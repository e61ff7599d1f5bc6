"""Static checks on the package source: every module-level import is used,
and no check lives in an assert statement, which python -O strips."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homposet"


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import that the module never reads.

    `from __future__ import annotations` binds a compiler flag, not a name,
    so it is skipped.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nsys.exit(d)\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


def test_no_unused_module_level_imports():
    # __init__.py imports only to re-export
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []


def assert_lines(source: str) -> list:
    """Line of each assert statement, nested ones included."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_assert_statements_are_found():
    source = "x = 1\nassert x\ndef f():\n    assert not x, 'no'\n    raise AssertionError\n"
    assert assert_lines(source) == [2, 4]


def test_no_assert_statements_in_the_package():
    # the library computes and the oracle checks, under any interpreter flags
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in assert_lines(path.read_text())
    ]
    assert found == []
