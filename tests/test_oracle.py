"""The independent claim battery: catalog, search, reporting, fault reports."""
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from homposet import morphisms, oracle, pairs, poset, rings
from homposet.morphisms import enumerate_morphisms
from homposet.oracle import (
    CLAIMS,
    Catalog,
    build_catalog,
    realized_pairs,
    verify_hom_construction,
    verify_theorems,
)
from homposet.pairs import TOP, HomPair, pair_of_morphism, validate_pair
from homposet.poset import hom_poset
from homposet.rings import (
    Ideal,
    RingMorphism,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    proper_ideals,
)

CLAIM_KEYS = (
    "ring-axioms",
    "regular-units",
    "directly-finite",
    "units-saturated",
    "pair-invariants",
    "poset-search",
    "compose-order",
    "meet-product",
    "functor-laws",
    "corner-split",
    "product-poset",
    "prime-pairs-maximal",
    "max-spec",
    "greatest-unique-prime",
    "max-nonempty",
    "bar-lattice",
    "join-quotient",
    "universal-contract",
    "universal-factor",
    "corestriction-epi",
    "factor-stages",
    "fiber-least",
    "local-criterion",
    "limit-exchange",
    "fraction-pairs",
)


def test_claim_registry_shape():
    assert tuple(key for key, _, _ in CLAIMS) == CLAIM_KEYS
    assert len(CLAIMS) == 25
    titles = [title for _, title, _ in CLAIMS]
    assert len(set(titles)) == len(titles)


def test_catalog_bound_8():
    cat = build_catalog(8)
    assert cat.bound == 8
    assert len(cat.rings) == 13
    assert all(r.size <= 8 for r in cat.rings)
    assert cat.rings[0] == make_zmod(2)
    # pairwise distinct by table equality
    for i, a in enumerate(cat.rings):
        for b in cat.rings[i + 1:]:
            assert a != b


def test_catalog_bound_16_includes_matrix_ring():
    cat = build_catalog(16)
    assert len(cat.rings) == 38
    m2 = make_matrix_ring(make_zmod(2), 2)
    assert m2 in cat.rings
    assert any(not r.is_commutative for r in cat.rings)


def test_catalog_deterministic():
    a, b = build_catalog(12), build_catalog(12)
    assert a == b
    assert a.rings == b.rings


def test_catalog_closed_under_quotients():
    cat = build_catalog(8)
    have = set(cat.rings)
    for ring in cat.rings:
        for ideal in proper_ideals(ring):
            if len(ideal) == 1:
                continue
            q, _ = make_quotient(ring, ideal)
            assert q in have, (ring, sorted(ideal.members))


def test_realized_pairs_pure_search_matches_construction():
    cat = build_catalog(8)
    z6 = make_zmod(6)
    got = realized_pairs(z6, cat)
    assert got == tuple(
        (p.ideal, p.mset) for p in hom_poset(z6).elements
    )
    ok, missing, extra = verify_hom_construction(z6, cat)
    assert ok and not missing and not extra


def test_hom_construction_for_ring_outside_catalog():
    cat = build_catalog(8)
    ring = make_product(make_zmod(2), make_zmod(2))
    ok, missing, extra = verify_hom_construction(ring, cat)
    assert ok, (missing, extra)


def test_battery_all_claims_hold_bound_8():
    report = verify_theorems(build_catalog(8))
    assert report.ok
    assert not report.degenerate
    assert report.ring_count == 13
    assert tuple(c.key for c in report.claims) == CLAIM_KEYS
    assert all(c.ok for c in report.claims)
    assert all(c.checked > 0 for c in report.claims)
    assert all(c.witness is None for c in report.claims)


def test_battery_all_claims_hold_bound_16():
    report = verify_theorems(build_catalog(16))
    assert report.ok
    assert report.ring_count == 38


def test_only_filter_is_key_substring():
    cat = build_catalog(8)
    report = verify_theorems(cat, only="functor")
    assert [c.key for c in report.claims] == ["functor-laws"]
    report = verify_theorems(cat, only="max")
    assert [c.key for c in report.claims] == [
        "prime-pairs-maximal", "max-spec", "max-nonempty",
    ]
    report = verify_theorems(cat, only="no-such-claim")
    assert report.claims == ()


def realized(ring) -> set:
    return {(p.ideal, p.mset) for p in hom_poset(ring).elements}


# a pair given by hand is judged by validate_pair, the criterion that
# pair-invariants runs on the pair of each searched morphism
def test_unrealized_pair_fails_regular_in_quotient():
    z6 = make_zmod(6)
    report = validate_pair(z6, {0}, {1, 2, 4, 5})
    assert [c.key for c in report.failed()] == ["regular_in_quotient"]
    assert (frozenset({0}), frozenset({1, 2, 4, 5})) not in realized(z6)


def test_realized_pair_passes_the_criterion():
    z6 = make_zmod(6)
    assert validate_pair(z6, {0, 2, 4}, {1, 3, 5}).ok
    assert (frozenset({0, 2, 4}), frozenset({1, 3, 5})) in realized(z6)


def test_non_ideal_pair_fails_translation_stability():
    z6 = make_zmod(6)
    report = validate_pair(z6, {0, 2}, {1, 3, 5})
    assert [(c.key, c.witness) for c in report.failed()] == [
        ("translation_stable", "first component is not an ideal"),
    ]
    assert all(ideal != {0, 2} for ideal, _ in realized(z6))


def test_degenerate_catalog():
    report = verify_theorems(Catalog(0, ()))
    assert report.degenerate
    assert not report.ok
    assert report.claims == ()
    assert "degenerate" in report.render_text()


def test_report_rendering_layout():
    report = verify_theorems(build_catalog(8))
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0] == "oracle battery over 13 rings (bound 8)"
    assert lines[-1] == "25/25 claims hold"
    assert sum(1 for l in lines if l.startswith("ok  ")) == 25
    assert all("checked]" in l for l in lines if l.startswith("ok  "))


def test_report_bytes_stable_across_runs():
    a = verify_theorems(build_catalog(8))
    b = verify_theorems(build_catalog(8))
    assert a.render_text() == b.render_text()
    assert a.to_json_dict() == b.to_json_dict()
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_json_dict_shape():
    report = verify_theorems(build_catalog(8), only="bar-lattice")
    d = report.to_json_dict()
    assert d["bound"] == 8 and d["rings"] == 13 and d["ok"] is True
    (claim,) = d["claims"]
    assert claim["key"] == "bar-lattice" and claim["ok"] is True
    assert claim["witness"] is None and claim["checked"] > 0


def test_oracle_catches_a_core_fault_in_unchecked_pairs(monkeypatch):
    # M = U(R) in place of U(R)+I: hom_poset builds its pairs unchecked, so
    # only the battery's own search can notice.  The faulty posets live on
    # the run's rings, fields included, and die with them.
    lattice = rings._ideal_lattice
    monkeypatch.setattr(poset, "_ideal_lattice",
                        lambda ring: dict.fromkeys(lattice(ring), ring.unit_indices))
    try:
        report = verify_theorems(build_catalog(16))
    finally:
        monkeypatch.undo()
    failed = [c for c in report.claims if not c.ok]
    assert [c.key for c in report.claims] == list(CLAIM_KEYS)
    assert "poset-search" in {c.key for c in failed}
    assert all(c.witness and not c.witness.endswith(": ") for c in failed)
    # no faulty poset is left where a field's morphisms lead
    gf4 = make_finite_field(2, 2)
    square = make_product(gf4, gf4)
    (f, *_) = enumerate_morphisms(gf4, square)
    assert hom_poset(f.target) == hom_poset(square)


@pytest.mark.parametrize("bound", [8, 16, 32])
@pytest.mark.parametrize("completed_only", [False, True])
def test_poset_search_checks_the_hasse_covers(monkeypatch, bound, completed_only):
    # covers that keep every strict upper bound still hold every true cover
    covers = poset.HomPoset.covers

    def every_upper_bound(self):
        if completed_only and not self.top_adjoined:
            return covers.func(self)
        top = 1 << len(self.above) if self.top_adjoined else 0
        return tuple((i, j) for i, up in enumerate(self.above)
                     for j in poset._bits(up or top))

    monkeypatch.setattr(poset.HomPoset, "covers", property(every_upper_bound))
    (claim,) = verify_theorems(build_catalog(bound), only="poset-search").claims
    what = "completed poset" if completed_only else "poset"
    assert not claim.ok and claim.checked == 7
    assert claim.witness == f"Z/8: Hasse covers of the {what} differ from ideal inclusion"


def test_max_spec_searches_for_the_division_pairs(monkeypatch):
    # division pairs that are missing still form a chain, so only the
    # claim's search into the catalog fields can notice
    chain = oracle.maximality_chain
    monkeypatch.setattr(oracle, "maximality_chain",
                        lambda ring: replace(chain(ring), division_pairs=()))
    (claim,) = verify_theorems(build_catalog(8), only="max-spec").claims
    assert not claim.ok and claim.checked == 1
    assert claim.witness == (
        "Z/2: division pairs differ from the pairs of morphisms into fields"
    )


def test_claim_exception_is_its_witness(monkeypatch):
    def crash(ctx):
        raise RuntimeError("boom")

    claims = tuple((k, t, crash if k == "max-spec" else fn) for k, t, fn in CLAIMS)
    monkeypatch.setattr(oracle, "CLAIMS", claims)
    report = verify_theorems(build_catalog(8))
    (bad,) = [c for c in report.claims if not c.ok]
    assert bad.key == "max-spec" and bad.checked == 0
    assert bad.witness == "RuntimeError in crash: boom"
    assert len(report.claims) == len(CLAIMS) and not report.ok



# Faults injected into a fresh interpreter; prints the faulty report, one
# witness per single-claim fault, and the interpreter's optimize flag.
FAULT_RUN = """
import json, sys
from dataclasses import replace
from homposet import oracle, poset, rings
from homposet.oracle import build_catalog, verify_theorems
from homposet.pairs import TOP
from homposet.rings import identity_morphism

catalog = build_catalog(8)
lattice = rings._ideal_lattice
poset._ideal_lattice = lambda ring: dict.fromkeys(lattice(ring), ring.unit_indices)
fault = verify_theorems(build_catalog(8)).render_text()
poset._ideal_lattice = lattice

decompose = oracle.product_decompose_poset
factorize = oracle.canonical_factorization
corestrict = oracle.epimorphic_corestriction
faults = {
    "product-poset": ("product_decompose_poset", lambda prod: replace(
        decompose(prod), forward=dict.fromkeys(decompose(prod).forward, (TOP, TOP)))),
    "max-spec": ("spec_correspondence", lambda ring: ()),
    "corestriction-epi": ("epimorphic_corestriction", lambda f: replace(
        corestrict(f), corestriction=identity_morphism(f.source))),
    "factor-stages": ("canonical_factorization",
                      lambda f: factorize(identity_morphism(f.source))),
    "local-criterion": ("is_local_morphism", lambda f: True),
}
witnesses = {}
for key, (name, faulty) in faults.items():
    kept = getattr(oracle, name)
    setattr(oracle, name, faulty)
    (claim,) = verify_theorems(catalog, only=key).claims
    setattr(oracle, name, kept)
    witnesses[key] = claim.witness
print(json.dumps({"optimize": sys.flags.optimize, "fault": fault, "witnesses": witnesses}))
"""


def _fault_run(script, *flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_faults_are_caught_under_python_O():
    # every claim detects its failures without assert statements, so -O
    # changes nothing: same report, same witnesses
    plain, optimized = _fault_run(FAULT_RUN), _fault_run(FAULT_RUN, "-O")
    assert (plain.pop("optimize"), optimized.pop("optimize")) == (0, 1)
    assert optimized == plain
    lines = optimized["fault"].splitlines()
    assert lines[-1] == "17/25 claims hold"
    # hom_functor pulls back only the ideal; the claim checks the M
    at = lines.index(next(l for l in lines if l.startswith("FAIL functor-laws:")))
    assert lines[at + 1] == (
        "     witness: pullback along RingMorphism(Z/6 -> Z/2, [0, 1, 0, 1, 0, 1]) of "
        "HomPair(Z/2: [0], [1]) is not the preimage of its M"
    )
    at = lines.index(next(l for l in lines if l.startswith("FAIL max-spec:")))
    assert lines[at + 1] == (
        "     witness: Z/6: M over the complete prime [0, 3] is not its complement"
    )
    # each single-claim fault is caught by a check, not by an exception
    assert optimized["witnesses"] == {
        "product-poset": "Z/2 x Z/2: product ideal does not split",
        "max-spec": "Z/2: primes and maximal pairs disagree",
        "corestriction-epi":
            "corestriction of RingMorphism(Z/4 -> Z/2, [0, 1, 0, 1]) changes the kernel",
        "factor-stages":
            "stages of RingMorphism(Z/2 -> GF(4), [0, 1]) do not compose back",
        "local-criterion": "RingMorphism(Z/6 -> Z/2, [0, 1, 0, 1, 0, 1]): "
                           "unit reflection and the radical criterion disagree",
    }


# Faults in what Z/n, products, matrix rings and quotients of them know of
# themselves, injected before each catalog is built, so that no ring has
# read the sound fact already.
CONSTRUCTION_FAULT_RUN = """
import json, sys
from homposet import poset, rings
from homposet.oracle import build_catalog, verify_theorems

coprime_to, ideal_lattice = rings._coprime_to, rings._ideal_lattice
general_linear = rings._general_linear
quotient_units, zmod_divide = rings.ConstructedQuotient.units, rings.ZMod.divide

def one_unit_dropped(d, n):
    # Z/2 keeps its unit: the catalog's matrix ring needs a field base
    return coprime_to(d, n) - {n - 1} if n > 2 else coprime_to(d, n)

def one_product_ideal_dropped(ring):
    # the second smallest ideal goes, with its M
    items = list(ideal_lattice(ring).items())
    return dict(items[:1] + items[2:] if isinstance(ring.provenance, rings.Product) else items)

def one_matrix_unit_dropped(k, base):
    units = general_linear(k, base)
    return units - {max(units)}

def one_quotient_unit_dropped(record, ring):
    units = quotient_units(record, ring)
    return units - {max(units)} if len(units) > 1 else units

def zmod_modulus_doubled(record, ring, members):
    # Z/n by dZ/nZ taken as Z/2d where 2d is a proper divisor of n.  The
    # catalog drops such a quotient as a copy of Z/2d, but products and
    # meet-product divide Z/n too
    n, d = record.n, record.n // len(members)
    if n % (2 * d) == 0 and 2 * d < n:
        members = frozenset(range(0, n, 2 * d))
    return zmod_divide(record, ring, members)

witnesses = {}
# poset reads the lattice under its own name
for key, owners, name, faulty in (
        ("regular-units", (rings,), "_coprime_to", one_unit_dropped),
        ("poset-search", (rings, poset), "_ideal_lattice", one_product_ideal_dropped),
        ("regular-units", (rings,), "_general_linear", one_matrix_unit_dropped),
        ("regular-units", (rings.ConstructedQuotient,), "units", one_quotient_unit_dropped),
        ("meet-product", (rings.ZMod,), "divide", zmod_modulus_doubled)):
    kept = getattr(owners[0], name)
    for m in owners:
        setattr(m, name, faulty)
    (claim,) = verify_theorems(build_catalog(16), only=key).claims
    for m in owners:
        setattr(m, name, kept)
    witnesses[faulty.__name__] = [key, claim.witness]
print(json.dumps({"optimize": sys.flags.optimize, "witnesses": witnesses}))
"""


def test_construction_faults_are_caught_with_and_without_python_O():
    # the units of Z/n, of a matrix ring and of a quotient, the ideals of a
    # product and the quotients of Z/n come from their construction;
    # regular-units scans the tables, poset-search searches morphisms and
    # meet-product checks the kernel of a map into a product of quotients,
    # so each catches a fault in them
    plain, optimized = (_fault_run(CONSTRUCTION_FAULT_RUN, *flags) for flags in ((), ("-O",)))
    assert (plain.pop("optimize"), optimized.pop("optimize")) == (0, 1)
    assert optimized == plain == {"witnesses": {
        "one_unit_dropped": ["regular-units", "Z/3: regular set differs from unit group"],
        "one_product_ideal_dropped":
            ["poset-search", "Z/2 x Z/2: missing pair with ideal [0, 1]"],
        "one_matrix_unit_dropped":
            ["regular-units", "M2(Z/2): regular set differs from unit group"],
        "one_quotient_unit_dropped":
            ["regular-units", "Z/3 x Z/4/(0,2): regular set differs from unit group"],
        "zmod_modulus_doubled":
            ["meet-product", "product morphism over Z/8 realizes a different meet"],
    }}


# Each claim derives each distinct thing once: counting spies at bound 16.


def _all_morphisms(catalog):
    """Every catalog morphism, in the order the battery walks them."""
    return [f for src in catalog.rings for tgt in catalog.rings
            for f in enumerate_morphisms(src, tgt)]


def test_pair_invariants_validates_each_distinct_pair_once(monkeypatch):
    catalog = build_catalog(16)
    validated, translated = [], []
    validate, translate = oracle.validate_pair, oracle.radical_translation_holds
    monkeypatch.setattr(oracle, "validate_pair", lambda ring, i, m: (
        validated.append((ring, i, m)) or validate(ring, i, m)))
    monkeypatch.setattr(oracle, "radical_translation_holds", lambda ring, pair: (
        translated.append(pair) or translate(ring, pair)))
    (claim,) = verify_theorems(catalog, only="pair-invariants").claims
    fs = _all_morphisms(catalog)
    distinct = {(f.source, f.kernel_members, f.unit_preimage_members) for f in fs}
    assert claim.ok and claim.checked == len(fs)
    assert len(distinct) < len(fs)
    assert len(validated) == len(translated) == len(distinct)
    assert set(validated) == distinct


def test_pair_invariants_reports_the_first_morphism_with_a_failing_pair(monkeypatch):
    catalog = build_catalog(16)
    fs = _all_morphisms(catalog)
    # a pair that several morphisms share, chosen through its last morphism
    pairs = [pair_of_morphism(f) for f in fs]
    shared = Counter(pairs)
    last = max(i for i, p in enumerate(pairs) if shared[p] > 1)
    bad = pairs[last]
    first = pairs.index(bad)
    assert first < last
    holds = oracle.radical_translation_holds
    monkeypatch.setattr(oracle, "radical_translation_holds",
                        lambda ring, pair: pair != bad and holds(ring, pair))
    (claim,) = verify_theorems(catalog, only="pair-invariants").claims
    assert not claim.ok
    assert claim.checked == first + 1
    assert claim.witness == f"pair of {fs[first]!r} not stable under radical translation"


def test_functor_laws_pulls_back_along_each_morphism_once(monkeypatch):
    catalog = build_catalog(16)
    built = []
    functor = oracle.hom_functor
    monkeypatch.setattr(oracle, "hom_functor", lambda f: built.append(f) or functor(f))
    (claim,) = verify_theorems(catalog, only="functor-laws").claims
    small = [r for r in catalog.rings if r.size <= 9]
    homs = {(r, s): enumerate_morphisms(r, s) for r in small for s in small}
    composites = sum(len(homs[r, s]) * len(homs[s, t])
                     for r in small for s in small for t in small)
    # every morphism between small rings, identities included, once; every
    # composite afresh, since the composite law is what is tested
    assert claim.ok
    assert len(built) == sum(map(len, homs.values())) + composites


def test_corner_split_builds_each_corner_once(monkeypatch):
    catalog = build_catalog(16)
    built = []

    def counted(size, add, mul, zero, one, provenance):
        built.append((provenance.parent, provenance.carrier[one]))
        return rings.FiniteRing(size, add, mul, zero, one, provenance)

    monkeypatch.setattr(morphisms, "FiniteRing", counted)
    (claim,) = verify_theorems(catalog, only="corner-split").claims
    corners = set()
    for prod in catalog.rings:
        if not isinstance(prod.provenance, rings.Product):
            continue
        r1, r2 = rings.product_factors(prod)
        for s in catalog.rings:
            for f in enumerate_morphisms(prod, s):
                e = f.images[r1.one * r2.size + r2.zero]
                corners |= {(s, e), (s, s.sub(s.one, e))}
    assert claim.ok and claim.checked > len(corners)
    assert len(built) == len(set(built)) == len(corners)
    assert set(built) == corners


def test_corner_split_reports_a_faulty_rebuild(monkeypatch):
    # the rebuild is built unchecked, so a wrong one is compared with f and
    # reported, where a checked constructor would raise
    rebuild = oracle.rebuild_product_morphism
    monkeypatch.setattr(oracle, "rebuild_product_morphism", lambda dec: rebuild(
        replace(dec, members1=dec.members1[::-1])))
    (claim,) = verify_theorems(build_catalog(8), only="corner-split").claims
    assert not claim.ok
    assert claim.witness.startswith("corner rebuild differs from RingMorphism(")


def test_join_quotient_closes_each_union_once(monkeypatch):
    catalog = build_catalog(16)
    closed = []
    # the sum is closed over the tables, also on a constructed ring, so
    # the claim checks the lattice the construction gives
    generate = oracle._closed_ideal
    monkeypatch.setattr(oracle, "_closed_ideal", lambda ring, gens: (
        closed.append((ring, frozenset(gens))) or generate(ring, gens)))
    (claim,) = verify_theorems(catalog, only="join-quotient").claims
    unions = {(r, p.ideal | q.ideal) for r in catalog.rings
              for p in hom_poset(r).elements for q in hom_poset(r).elements}
    assert claim.ok and claim.checked > len(unions)
    assert len(closed) == len(set(closed)) == len(unions)


# The localization module builds its maps unchecked; corestriction-epi and
# factor-stages run the morphism check.  Relabelling Z/5's image by the
# transposition (2 3), which is no automorphism, keeps every other checked
# property: kernels, unit preimages, surjectivity, injectivity, composites.

SWAP = (0, 1, 3, 2, 4)


def _relabelled(g, before=False):
    """SWAP after g, or g after SWAP when before is set."""
    images = [g.images[SWAP[x]] for x in range(g.source.size)] if before else [
        SWAP[y] for y in g.images]
    return RingMorphism._trusted(g.source, g.target, images)


def test_corestriction_epi_checks_the_corestriction_is_a_morphism(monkeypatch):
    corestrict = oracle.epimorphic_corestriction
    monkeypatch.setattr(oracle, "epimorphic_corestriction", lambda f: replace(
        corestrict(f), corestriction=_relabelled(corestrict(f).corestriction)))
    (claim,) = verify_theorems(Catalog(5, (make_zmod(5),)), only="corestriction-epi").claims
    assert not claim.ok and claim.checked == 1
    assert claim.witness == (
        "corestriction of RingMorphism(Z/5 -> Z/5, [0, 1, 2, 3, 4]) is not a "
        "morphism: addition not preserved at (1,1)"
    )


def test_factor_stages_checks_each_stage_is_a_morphism(monkeypatch):
    factorize = oracle.canonical_factorization

    def faulty(f):
        fact = factorize(f)
        return replace(fact, collapse=_relabelled(fact.collapse),
                       embed=_relabelled(fact.embed, before=True))

    monkeypatch.setattr(oracle, "canonical_factorization", faulty)
    (claim,) = verify_theorems(Catalog(5, (make_zmod(5),)), only="factor-stages").claims
    assert not claim.ok and claim.checked == 1
    assert claim.witness == (
        "collapse stage of RingMorphism(Z/5 -> Z/5, [0, 1, 2, 3, 4]) is not a "
        "morphism: addition not preserved at (1,1)"
    )


def test_unchecked_radical_and_ass_ideals_are_checked(monkeypatch):
    # jacobson_radical and denominator_analysis build their ideals unchecked;
    # a non-ideal from either fails its claim with the set as witness
    def not_an_ideal(ring):
        return Ideal._trusted(ring, {ring.one})  # lacks 0

    analyse = oracle.denominator_analysis
    monkeypatch.setattr(oracle, "jacobson_radical", not_an_ideal)
    monkeypatch.setattr(oracle, "denominator_analysis", lambda ring, tset: replace(
        analyse(ring, tset), ass_ideal=not_an_ideal(ring)))
    local, fraction = (verify_theorems(build_catalog(8), only=key).claims[0]
                       for key in ("local-criterion", "fraction-pairs"))
    assert not local.ok and local.checked == 1
    assert local.witness == "Z/2: radical [1] is not an ideal"
    assert not fraction.ok and fraction.checked == 1
    assert fraction.witness == "ass(T) of T=[1] over Z/2 is not an ideal: [1]"


def test_factor_stages_checks_no_ideal(monkeypatch):
    # canonical_factorization quotients by the kernel of f, an ideal already
    catalog = build_catalog(8)
    calls = []
    is_ideal = rings._is_ideal

    def spy(ring, members):
        calls.append((ring, members))
        return is_ideal(ring, members)

    monkeypatch.setattr(rings, "_is_ideal", spy)
    monkeypatch.setattr(pairs, "_is_ideal", spy)
    (claim,) = verify_theorems(catalog, only="factor-stages").claims
    assert claim.ok and claim.checked > 0
    assert calls == []


# bar-lattice and meet-product fault reports: a faulty meet or join is
# patched into the oracle alone, so the library's posets stay sound.
# bar-lattice evaluates each operation once per ordered pair, so these pin
# that the first failure in canonical order is still the one reported,
# with the same count.


@pytest.fixture(scope="module")
def catalog_of():
    """build_catalog by bound, built once for this module's tests."""
    built = {}

    def get(bound):
        if bound not in built:
            built[bound] = build_catalog(bound)
        return built[bound]

    return get


def _highest_bound(p, q, bar):
    """join_ext with the highest common upper bound for the least."""
    if p is TOP or q is TOP:
        return TOP
    i, j = bar.index[p], bar.index[q]
    common = (bar.above[i] | 1 << i) & (bar.above[j] | 1 << j)
    return bar.elements[common.bit_length() - 1] if common else TOP


def _highest_bound_raising_late(p, q, bar):
    """_highest_bound, raising on Z/4's last pair with itself, which no
    check reads before absorption fails at Z/4's second ordered pair."""
    if (p is q and p is not TOP and oracle.ring_label(p.ring) == "Z/4"
            and bar.index[p] == len(bar.elements) - 1):
        raise ValueError("late pair")
    return _highest_bound(p, q, bar)


def _first_if_incomparable(p, q):
    m = pairs.meet(p, q)
    return m if m is p or m is q else p


def _top_unless_an_input(p, q, bar):
    j = poset.join_ext(p, q, bar)
    return j if j is p or j is q else TOP


def _first_or_outside(p, q):
    """Not commutative on incomparable pairs: the first of the two in the
    completed poset's order, else a pair outside that poset."""
    m = pairs.meet(p, q)
    if m is p or m is q:
        return m
    index = poset.hom_poset(p.ring, adjoin_top=True).index
    return p if index[p] < index[q] else _union_of_msets(p, q)


def _larger_if_comparable(p, q):
    m = pairs.meet(p, q)
    return q if m is p else p if m is q else m


def _union_of_msets(p, q):
    m = pairs.meet(p, q)
    if m is p or m is q:
        return m
    return HomPair._trusted(m.ring, m.ideal, p.mset | q.mset)


@pytest.mark.parametrize("key, name, fault, bound, checked, witness", [
    ("bar-lattice", "join_ext", _highest_bound, 8, 25, "absorption fails over Z/4"),
    ("bar-lattice", "join_ext", _highest_bound, 16, 25, "absorption fails over Z/4"),
    ("bar-lattice", "join_ext", _highest_bound, 32, 25, "absorption fails over Z/4"),
    ("bar-lattice", "join_ext", _highest_bound_raising_late, 8, 25,
     "absorption fails over Z/4"),
    ("bar-lattice", "meet", _first_if_incomparable, 8, 79,
     "lattice operations not commutative over Z/6"),
    ("bar-lattice", "meet", _first_if_incomparable, 32, 79,
     "lattice operations not commutative over Z/6"),
    ("bar-lattice", "join_ext", _top_unless_an_input, 8, 517,
     "join not associative over Z/2 x Z/4"),
    ("bar-lattice", "join_ext", _top_unless_an_input, 16, 461,
     "join not associative over Z/12"),
    ("bar-lattice", "meet", _union_of_msets, 8, 79,
     "lattice operation over Z/6 leaves the completed poset"),
    # the first incomparable pair fails commutativity before its transpose,
    # whose meet leaves the poset, is reached in canonical order
    ("bar-lattice", "meet", _first_or_outside, 8, 79,
     "lattice operations not commutative over Z/6"),
    ("meet-product", "meet", _larger_if_comparable, 8, 4,
     "product morphism over Z/4 realizes a different meet"),
    ("meet-product", "meet", _larger_if_comparable, 16, 4,
     "product morphism over Z/4 realizes a different meet"),
    ("meet-product", "meet", _larger_if_comparable, 32, 4,
     "product morphism over Z/4 realizes a different meet"),
    ("meet-product", "meet", _union_of_msets, 8, 12, "meet of pairs over Z/6 not realized"),
    ("meet-product", "meet", _union_of_msets, 16, 12, "meet of pairs over Z/6 not realized"),
    ("meet-product", "meet", _union_of_msets, 32, 12, "meet of pairs over Z/6 not realized"),
])
def test_lattice_fault_reports(monkeypatch, catalog_of, key, name, fault, bound, checked,
                               witness):
    catalog = catalog_of(bound)
    monkeypatch.setattr(oracle, name, fault)
    (claim,) = verify_theorems(catalog, only=key).claims
    assert (claim.ok, claim.checked, claim.witness) == (False, checked, witness)
