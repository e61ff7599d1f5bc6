"""Static checks on the package source: every module-level import is used,
no check lives in an assert statement, which python -O strips, no
functools cache outlives the rings it was filled from, only the oracle
searches for morphisms or runs the tensor epimorphism test, every name the
package exports has a caller among its programs, and no program takes a
ring's provenance record apart by position."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homposet"


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
    """Every identifier the source reads, imports or takes as an attribute.
    A name or attribute that is only assigned is not read."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_names_are_found():
    source = "from .m import a as b\nimport c\nc.d(e)\nf = 1\nc.g = 2\n"
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


def uncalled_exports(init_source: str, program_sources) -> list:
    """Each name the package __init__ imports that no program source reads."""
    exported = [a.asname or a.name
                for n in ast.parse(init_source).body if isinstance(n, ast.ImportFrom)
                for a in n.names]
    read = set().union(*map(names_in, program_sources))
    return [name for name in exported if name not in read]


def test_uncalled_exports_are_found():
    init = "from .a import b, c\nfrom .d import e as f\n__version__ = '1'\n"
    # an assignment to c is not a call
    programs = ["from homposet import b\n", "import homposet\nhomposet.f()\nc = 1\n"]
    assert uncalled_exports(init, programs) == ["c"]


# the entry point for tables from outside the program: ring descriptions
# name only built-in rings, so no program builds a ring from raw tables
EXTERNAL_ENTRY_POINTS = {"ring_from_tables"}


def test_every_export_has_a_program_caller():
    # programs are the package itself, the scripts and the benchmark; the
    # benchmark's own tests are not callers
    programs = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        programs += [path for path in sorted((ROOT / folder).rglob("*.py"))
                     if "tests" not in path.relative_to(ROOT).parts]
    uncalled = uncalled_exports((PACKAGE / "__init__.py").read_text(),
                                [path.read_text() for path in programs])
    assert sorted(set(uncalled) - EXTERNAL_ENTRY_POINTS) == []


def provenance_by_position(source: str) -> list:
    """Line of each place a ring's provenance is subscripted, unpacked,
    iterated or bound to a name, rather than asked or matched as a record."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Subscript, ast.Starred, ast.Assign, ast.AnnAssign,
                          ast.AugAssign, ast.NamedExpr)):
            read = n.value
        elif isinstance(n, (ast.For, ast.comprehension)):
            read = n.iter
        else:
            continue
        if isinstance(read, ast.Attribute) and read.attr == "provenance":
            found.append(read.lineno)
    return sorted(found)


def test_provenance_by_position_is_found():
    source = ("tag = r.provenance[0]\nprov = r.provenance\n_, a, b = r.provenance\n"
              "f(*r.provenance)\nr.provenance.units(r)\nisinstance(r.provenance, P)\n"
              "match r.provenance:\n    case P(a):\n        pass\n"
              "[x for x in r.provenance]\n")
    assert provenance_by_position(source) == [1, 2, 3, 4, 10]


def test_provenance_is_a_record_everywhere():
    # rings.py asks each record what its family knows; elsewhere a record
    # is only built or tested with isinstance
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for folder in (PACKAGE, ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        for line in provenance_by_position(path.read_text())
    ]
    assert found == []
