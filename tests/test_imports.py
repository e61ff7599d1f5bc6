"""Every module-level import in the package is used by its module."""
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
