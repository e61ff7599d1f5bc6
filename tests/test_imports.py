"""Static checks on the package source: every module-level import is used,
no check lives in an assert statement, which python -O strips, no
functools cache outlives the rings it was filled from, and only the oracle
searches for morphisms or runs the tensor epimorphism test."""
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


def process_caches(source: str) -> list:
    """Line of each use of functools.lru_cache or functools.cache, imported
    by name or read off the module."""
    memo = {"lru_cache", "cache"}
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            found += [n.lineno for a in n.names if a.name in memo]
        elif (isinstance(n, ast.Attribute) and n.attr in memo
              and isinstance(n.value, ast.Name) and n.value.id == "functools"):
            found.append(n.lineno)
    return sorted(found)


def test_process_caches_are_found():
    source = ("from functools import partial, lru_cache\nimport functools\n"
              "cache = {}\n@functools.cache\ndef f(): pass\n")
    assert process_caches(source) == [1, 4]


def test_no_process_wide_caches():
    # derived state lives on its ring (rings.per_ring) and dies with it
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in process_caches(path.read_text())
    ]
    assert found == []


SEARCHES = {"enumerate_morphisms", "is_ring_epimorphism"}


def names_in(source: str) -> set:
    """Every identifier the source reads, imports or takes as an attribute."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_names_are_found():
    source = "from .m import a as b\nimport c\nc.d(e)\n"
    assert names_in(source) == {"a", "c", "d", "e"}


def test_only_the_oracle_searches():
    # the library derives from the ideal core; morphisms.py defines the
    # search and the epi test, and __init__.py only re-exports them
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("oracle.py", "morphisms.py", "__init__.py")
        for name in sorted(names_in(path.read_text()) & SEARCHES)
    ]
    assert found == []
