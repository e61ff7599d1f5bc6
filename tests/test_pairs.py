"""Pair construction, the membership criterion, order and meet laws."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from homposet.errors import InvalidPair, RingMismatch
from homposet.pairs import (
    TOP,
    HomPair,
    leq,
    meet,
    pair_of_morphism,
    radical_translation_holds,
    validate_pair,
)
from homposet.oracle import build_catalog, realized_pairs
from homposet.poset import hom_poset
from homposet.rings import (
    Ideal,
    _is_ideal,
    element_label,
    enumerate_ideals,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    regular_elements,
)


def test_pair_structural_validation():
    z6 = make_zmod(6)
    HomPair(z6, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    with pytest.raises(InvalidPair):
        HomPair(z6, frozenset({0, 2}), frozenset({1}))  # not an ideal
    with pytest.raises(InvalidPair):
        HomPair(z6, frozenset({0}), frozenset({1, 3}))  # 3*3=3 fine, but misses unit 5
    with pytest.raises(InvalidPair):
        HomPair(z6, frozenset({0, 3}), frozenset({1, 3, 5}))  # 3 in both


def test_pair_rejects_out_of_range_indices():
    z6 = make_zmod(6)
    ideal, mset = frozenset({0, 3}), frozenset({1, 2, 4, 5})
    assert validate_pair(z6, ideal, mset).ok
    for bad in (-3, z6.size):  # -3 would wrap onto the member 3
        with pytest.raises(InvalidPair):
            HomPair(z6, ideal | {bad}, mset)
        assert not validate_pair(z6, ideal | {bad}, mset).ok
    for bad in (-1, z6.size):  # -1 would wrap onto the member 5
        with pytest.raises(InvalidPair):
            HomPair(z6, ideal, mset | {bad})
        report = validate_pair(z6, ideal, mset | {bad})
        assert [c.key for c in report.failed()] == ["submonoid"]
        assert report.failed()[0].witness == f"{bad} is not an element index"


def test_validate_pair_accepts_realized():
    z6 = make_zmod(6)
    report = validate_pair(z6, {0, 2, 4}, {1, 3, 5})
    assert report.ok
    assert [c.key for c in report.clauses] == [
        "submonoid", "units_included", "translation_stable", "regular_in_quotient",
    ]
    assert "realizable" in report.render_text()


def test_validate_pair_translation_witness():
    z6 = make_zmod(6)
    report = validate_pair(z6, {0, 2, 4}, {1, 5})
    assert not report.ok
    failed = report.failed()
    assert [c.key for c in failed] == ["translation_stable"]
    assert failed[0].witness == "1+2=3 not in M"


def test_validate_pair_regularity_witness():
    z6 = make_zmod(6)
    # {1,2,4,5} is multiplicatively closed and contains the units, but 2 is a
    # zero divisor mod (0)
    report = validate_pair(z6, {0}, {1, 2, 4, 5})
    assert not report.ok
    failed = report.failed()
    assert [c.key for c in failed] == ["regular_in_quotient"]
    assert "zero divisor" in failed[0].witness


def test_validate_pair_submonoid_witness():
    z6 = make_zmod(6)
    report = validate_pair(z6, {0}, {1, 2, 5})
    bad = {c.key for c in report.failed()}
    assert "submonoid" in bad


def test_validate_pair_improper_ideal():
    z6 = make_zmod(6)
    report = validate_pair(z6, set(range(6)), {1, 5})
    assert not report.ok


def test_pair_of_morphism_and_raw():
    z6, z2 = make_zmod(6), make_zmod(2)
    from homposet.morphisms import enumerate_morphisms

    f = enumerate_morphisms(z6, z2)[0]
    p = pair_of_morphism(f)
    assert p.ideal == frozenset({0, 2, 4})
    assert p.mset == frozenset({1, 3, 5})
    assert (f.kernel_members, f.unit_preimage_members) == (p.ideal, p.mset)


def test_least_pair():
    z6 = make_zmod(6)
    p = hom_poset(z6).least
    assert p.ideal == frozenset({0})
    assert p.mset == z6.unit_indices
    for q in hom_poset(z6).elements:
        assert leq(p, q)


def test_leq_and_top():
    z6 = make_zmod(6)
    a = hom_poset(z6).least
    assert leq(a, TOP) and not leq(TOP, a)
    assert leq(TOP, TOP)
    z4 = make_zmod(4)
    with pytest.raises(RingMismatch):
        leq(a, hom_poset(z4).least)


def test_meet_with_top_and_mismatch():
    z6 = make_zmod(6)
    a = hom_poset(z6).least
    assert meet(a, TOP) == a and meet(TOP, a) == a
    with pytest.raises(RingMismatch):
        meet(a, hom_poset(make_zmod(4)).least)


def test_meet_and_leq_accept_table_equal_rings():
    # rings compare by tables: a second Z/12 object is the same ring
    p, q = hom_poset(make_zmod(12)).elements[1:3]
    q2 = HomPair._trusted(make_zmod(12), q.ideal, q.mset)
    assert q2.ring is not p.ring
    assert meet(p, q2) == meet(p, q) and meet(q2, p) == meet(q, p)
    assert leq(hom_poset(p.ring).least, q2)
    assert leq(p, q2) == leq(p, q) and leq(q2, p) == leq(q, p)


def test_meet_of_unrealized_pairs_is_componentwise():
    z6 = make_zmod(6)
    p = HomPair(z6, frozenset({0, 3}), frozenset({1, 5}))
    q = HomPair(z6, frozenset({0}), frozenset({1, 3, 5}))
    # q's ideal lies in p's but its mset does not, so neither input is the meet
    expected = HomPair(z6, frozenset({0}), frozenset({1, 5}))
    assert meet(p, q) == expected and meet(q, p) == expected


def test_meet_is_glb_over_z12():
    z12 = make_zmod(12)
    els = hom_poset(z12).elements
    for p in els:
        for q in els:
            m = meet(p, q)
            assert leq(m, p) and leq(m, q)
            # a comparable pair's meet is the smaller input itself
            if leq(p, q):
                assert m is p
            elif leq(q, p):
                assert m is q
            for r in els:
                if leq(r, p) and leq(r, q):
                    assert leq(r, m)


def test_multiplicative_set_need_not_cancel():
    # the multiplicative component is a monoid but not cancellative:
    # 3*1 = 3*3 mod 6 while 1 != 3
    z6 = make_zmod(6)
    m = frozenset({1, 3, 5})
    assert z6.mul_table[3][1] == z6.mul_table[3][3]
    p = HomPair(z6, frozenset({0, 2, 4}), m)
    assert 1 in p.mset and 3 in p.mset


def test_radical_translation():
    z4 = make_zmod(4)
    p = hom_poset(z4).least  # ({0}, {1,3}); J = {0,2}; 1+0+2 = 3 stays in M
    assert radical_translation_holds(z4, p)


def test_pair_equality_and_hash():
    z6 = make_zmod(6)
    a = HomPair(z6, frozenset({0}), frozenset({1, 5}))
    b = hom_poset(z6).least
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@settings(deadline=None)
@given(st.integers(2, 24))
def test_all_quotient_pairs_validate(n):
    ring = make_zmod(n)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper:
            continue
        q, pi = make_quotient(ring, ideal)
        report = validate_pair(ring, pi.kernel_members, pi.unit_preimage_members)
        assert report.ok


@settings(deadline=None)
@given(st.integers(2, 16), st.integers(2, 16))
def test_meet_componentwise_matches_pairwise_order(n, m):
    ring = make_zmod(n * m) if n * m <= 64 else make_zmod(n)
    els = hom_poset(ring).elements
    for p in els[:4]:
        for q in els[:4]:
            mm = meet(p, q)
            assert mm.ideal == p.ideal & q.ideal
            assert mm.mset == p.mset & q.mset


def test_validate_pair_on_noncommutative():
    m2 = make_matrix_ring(make_zmod(2), 2)
    report = validate_pair(m2, {0}, m2.unit_indices)
    assert report.ok


def test_validate_pair_product_ring():
    p = make_product(make_zmod(2), make_zmod(3))
    # ideal 0 x Z/3 = {0,1,2}, mset = preimage of units of Z/2 side
    report = validate_pair(p, {0, 1, 2}, {3, 4, 5})
    assert report.ok
    report2 = validate_pair(p, {0, 1, 2}, {4, 5})
    assert not report2.ok  # misses 3, which is 1 mod the ideal


def test_membership_criterion_holds_exactly_on_realized_pairs():
    # the converse of the criterion: each (I, M) with 0 in I, 1 not in I,
    # 1 in M and M off I passes iff a morphism into the catalog realizes it
    catalog = build_catalog(8)
    calls = 0
    for ring in catalog.rings:
        realized = set(realized_pairs(ring, catalog))
        others = [x for x in range(ring.size) if x not in (ring.zero, ring.one)]
        for places in itertools.product((None, "I", "M"), repeat=len(others)):
            imembers = frozenset([ring.zero] + [x for x, w in zip(others, places) if w == "I"])
            mmembers = frozenset([ring.one] + [x for x, w in zip(others, places) if w == "M"])
            calls += 1
            ok = validate_pair(ring, imembers, mmembers).ok
            assert ok == ((imembers, mmembers) in realized), (ring, imembers, mmembers)
    assert calls == 3379


def reference_regularity_clause(ring, imembers, mmembers):
    """(ok, witness) of the regular_in_quotient clause, decided the earlier
    way: build R/I and test each member's class for regularity there."""
    lab = lambda x: element_label(ring, x)
    if ring.one in imembers:
        return False, "ideal is improper"
    if not _is_ideal(ring, imembers):
        return True, None
    quotient, proj = make_quotient(ring, Ideal(ring, imembers))
    regular = regular_elements(quotient)
    for m in sorted(mmembers & ring.index_set):
        qm = proj.images[m]
        if qm in regular:
            continue
        for x in range(quotient.size):
            if x != quotient.zero and (
                quotient.mul_table[qm][x] == quotient.zero
                or quotient.mul_table[x][qm] == quotient.zero
            ):
                lift = next(r for r in range(ring.size) if proj.images[r] == x)
                return False, f"{lab(m)} is a zero divisor mod the ideal (against {lab(lift)})"
    return True, None


def test_regularity_clause_matches_quotient_reference():
    rng = random.Random(20184)
    rings = list(build_catalog(16).rings) + [make_matrix_ring(make_zmod(2), 2)]
    witnessed = 0
    for ring in rings:
        ideals = [i.members for i in enumerate_ideals(ring)]
        for _ in range(40):
            imembers = rng.choice(ideals)
            if rng.random() < 0.2:
                imembers = imembers ^ {rng.randrange(ring.size)}
            density = rng.random()
            mmembers = frozenset(x for x in range(ring.size) if rng.random() < density)
            if rng.random() < 0.5:
                mmembers |= ring.unit_indices
            clause = validate_pair(ring, imembers, mmembers).clauses[3]
            assert clause.key == "regular_in_quotient"
            expected = reference_regularity_clause(ring, imembers, mmembers)
            assert (clause.ok, clause.witness) == expected, (ring, imembers, mmembers)
            witnessed += "zero divisor" in (clause.witness or "")
    assert witnessed >= 100


def test_unchecked_pairs_and_ideals_pass_the_public_checks():
    # hom_poset, meet and enumerate_ideals build these without the checks
    for ring in build_catalog(16).rings:
        for ideal in enumerate_ideals(ring):
            assert Ideal(ring, ideal.members) == ideal
        elements = hom_poset(ring).elements
        for p in elements:
            assert HomPair(ring, p.ideal, p.mset) == p
            for q in elements:
                m = meet(p, q)
                assert HomPair(ring, m.ideal, m.mset) == m
