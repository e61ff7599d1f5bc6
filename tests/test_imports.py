"""Static checks on the package source: every module-level import is used,
no check lives in an assert statement, which python -O strips, no
functools cache outlives the rings it was filled from, only the oracle
searches for morphisms or runs the tensor epimorphism test, every name the
package exports has a caller among its programs, no program takes a
ring's provenance record apart by position, only rings.py builds rings,
only the oracle runs the checked morphism constructor, only FiniteRing
writes its own equality and only rings._unchecked calls object.__new__."""
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


def record_classes(rings_source: str) -> set:
    """The provenance record classes: Tables and every class that rings.py
    derives from one, bases being defined before their subclasses."""
    records = {"Tables"}
    for n in ast.parse(rings_source).body:
        if isinstance(n, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in records for b in n.bases):
            records.add(n.name)
    return records


def test_record_classes_are_found():
    source = ("class Tables: pass\nclass A(Tables): pass\nclass B: pass\n"
              "class C(B, A): pass\n")
    assert record_classes(source) == {"Tables", "A", "C"}


def named(node):
    """The name a Name holds or an Attribute reads off its object, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def calls_to(source: str, names) -> list:
    """Line of each call of one of names, by name or read off an object."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and named(n.func) in names)


def unchecked_builds(source: str, names) -> list:
    """Line of each call _unchecked(X, ...) with X one of names."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and named(n.func) == "_unchecked"
                  and n.args and named(n.args[0]) in names)


def test_calls_are_found():
    source = ("r = FiniteRing(1, a, m, 0, 0,\n    Corner(p, c))\n"
              "s = rings.FiniteRing._constructed(2, 0, 1, ZMod(2))\n"
              "g = RingMorphism._trusted(r, s, i)\nh = rings.RingMorphism(r, s, i)\n"
              "isinstance(r.provenance, Corner)\n")
    builds = {"FiniteRing", "_constructed", "Corner", "ZMod"}
    assert calls_to(source, builds) == [1, 2, 3, 3]
    assert calls_to(source, {"RingMorphism"}) == [5]


def test_unchecked_builds_are_found():
    source = ("r = _unchecked(FiniteRing, size=2)\np = rings._unchecked(rings.ZMod, n=2)\n"
              "q = _unchecked(PrimeSet, cofinite=False)\nf = _unchecked(cls, x=1)\n"
              "g = FiniteRing(_unchecked)\n")
    assert unchecked_builds(source, {"FiniteRing", "ZMod"}) == [1, 2]


def test_only_rings_builds_rings():
    # every construction family's record and tables come from rings.py;
    # elsewhere a ring is only asked for through its constructors
    builds = {"FiniteRing", "_constructed"} | record_classes(
        (PACKAGE / "rings.py").read_text())
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "rings.py"
        for line in calls_to(path.read_text(), builds)
        + unchecked_builds(path.read_text(), builds)
    ]
    assert found == []


def test_only_the_oracle_checks_morphisms():
    # the library builds the morphisms a theorem guarantees with
    # RingMorphism._trusted; the oracle claim that owns the theorem checks them
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracle.py"
        for line in calls_to(path.read_text(), {"RingMorphism"})
    ]
    assert found == []


def equality_methods(source: str) -> list:
    """(line, "Class.name") of each __eq__ or __hash__ that a class body
    defines or assigns, or that is assigned onto a class by attribute."""
    special = ("__eq__", "__hash__")
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ClassDef):
            for item in n.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                found += [(item.lineno, f"{n.name}.{name}") for name in names if name in special]
        elif isinstance(n, ast.Assign):
            found += [(n.lineno, f"{named(t.value)}.{t.attr}") for t in n.targets
                      if isinstance(t, ast.Attribute) and t.attr in special]
    return sorted(found)


def test_equality_methods_are_found():
    source = ("class A:\n    def __eq__(self, o): pass\n    def __repr__(self): pass\n"
              "class B:\n    __hash__ = None\n    class C:\n        def __hash__(self): pass\n"
              "def __eq__(a, b): pass\nA.__hash__ = hash\n")
    assert equality_methods(source) == [(2, "A.__eq__"), (5, "B.__hash__"),
                                        (7, "C.__hash__"), (9, "A.__hash__")]


def test_only_finite_ring_writes_its_equality():
    # pairs, morphisms and ideals compare and hash by their fields through
    # the dataclass; a ring compares its tables, hashes them once and never
    # builds a constructed ring's tables just to tell two objects apart
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for _, name in equality_methods(path.read_text())
    ]
    assert found == ["rings.py: FiniteRing.__eq__", "rings.py: FiniteRing.__hash__"]


def object_new_calls(source: str) -> list:
    """(line, dotted name of the enclosing classes and functions) of each
    call of object.__new__; a module-level call has the name ''."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__" and named(child.func.value) == "object"):
                found.append((child.lineno, scope))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_object_new_calls_are_found():
    source = ("def f():\n    return object.__new__(A)\nclass B:\n    def g(cls):\n"
              "        super().__new__(cls)\n        A.__new__(A)\n"
              "        return object.__new__(cls)\nobject.__new__(C)\n")
    assert object_new_calls(source) == [(2, "f"), (7, "B.g"), (8, "")]


def test_only_unchecked_skips_constructors():
    # a value that a theorem guarantees is built by rings._unchecked alone,
    # so no class repeats its own way around its checks
    found = [
        f"{path.name}: {scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for _, scope in object_new_calls(path.read_text())
    ]
    assert found == ["rings.py: _unchecked"]
