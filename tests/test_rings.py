"""Table rings: constructors, structural sets, and invariants."""
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from homposet.cli import format_ring, parse_ring, render_hom_json
from homposet.config import Caps
from homposet.errors import (
    BaseNotField,
    CapExceeded,
    ImproperIdeal,
    NotAnIdeal,
    NotPrime,
    ZeroRingExcluded,
)
from homposet.morphisms import decompose_product_morphism, enumerate_morphisms
from homposet.oracle import build_catalog
from homposet.poset import hom_poset
from homposet.rings import (
    ConstructedQuotient,
    Field,
    FiniteRing,
    Ideal,
    Matrix,
    Product,
    Quotient,
    RingMorphism,
    Subring,
    ZMod,
    _Subgroup,
    _coprime_to,
    _digits,
    _ideal_lattice,
    _is_ideal,
    _is_submonoid,
    _poly_divides,
    _poly_mul_mod,
    _smallest_irreducible,
    _undigits,
    check_table_axioms,
    compose,
    coset_reps,
    element_label,
    enumerate_ideals,
    ideal_generated_by,
    identity_morphism,
    is_completely_prime,
    is_directly_finite,
    is_field,
    is_prime,
    is_saturated,
    jacobson_radical,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    product_factors,
    proper_ideals,
    regular_elements,
    ring_from_tables,
    ring_label,
    subring,
)

zmods = st.integers(2, 32).map(make_zmod)


def test_zmod_basics():
    z6 = make_zmod(6)
    assert z6.size == 6 and z6.zero == 0 and z6.one == 1
    assert z6.additive_orders[z6.one] == 6
    assert z6.is_commutative
    assert sorted(z6.unit_indices) == [1, 5]
    assert z6.neg_table == (0, 5, 4, 3, 2, 1)
    assert z6.additive_orders == (1, 6, 3, 2, 3, 6)


def test_zmod_rejects_degenerate_and_capped():
    with pytest.raises(ZeroRingExcluded):
        make_zmod(1)
    with pytest.raises(ZeroRingExcluded):
        make_zmod(0)
    with pytest.raises(CapExceeded):
        make_zmod(65)
    make_zmod(65, Caps(table_size=65))  # explicit cap lifts the bound


@settings(deadline=None)
@given(zmods)
def test_zmod_satisfies_axioms(ring):
    assert check_table_axioms(ring) == []


@settings(deadline=None)
@given(zmods)
def test_units_are_exactly_coprime_residues(ring):
    n = ring.size
    assert ring.unit_indices == frozenset(x for x in range(n) if math.gcd(x, n) == 1)


def test_coprime_to_matches_gcd_definition():
    # gcd(x, d) is gcd(x mod d, d), so the residues prime to d repeat
    for d in range(1, 2049):
        prime = [math.gcd(x, d) == 1 for x in range(d)]
        for n in range(d, 2049, d):
            assert _coprime_to(d, n) == frozenset(
                itertools.compress(range(n), prime * (n // d))), (d, n)


@settings(deadline=None)
@given(zmods)
def test_regular_equals_units_in_zmod(ring):
    assert regular_elements(ring) == ring.unit_indices


def test_finite_field_smallest_modulus():
    f4 = make_finite_field(2, 2)
    # x^2 + x + 1: coefficients low degree first, trailing leading 1
    assert f4.provenance.modulus == (1, 1, 1)
    assert is_field(f4)
    f8 = make_finite_field(2, 3)
    # low-degree-first comparison puts 1 + x^2 + x^3 before 1 + x + x^3
    assert f8.provenance.modulus == (1, 0, 1, 1)
    assert is_field(f8)
    f9 = make_finite_field(3, 2)
    assert is_field(f9) and f9.additive_orders[f9.one] == 3


def reference_smallest_irreducible(p, k):
    """The earlier full search: every monic of degree k in low-degree-first
    lex order, tried against every monic of degree at most k/2, x first."""
    if k == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=k):
        cand = low + (1,)
        if not any(_poly_divides(g + (1,), cand, p)
                   for d in range(1, k // 2 + 1)
                   for g in itertools.product(range(p), repeat=d)):
            return cand
    raise AssertionError("no irreducible found")


def test_smallest_irreducible_matches_the_full_search():
    orders = [(p, k) for p in range(2, 1025) if is_prime(p)
              for k in range(1, 11) if p**k <= 1024]
    assert len(orders) == 198
    for p, k in orders:
        assert _smallest_irreducible(p, k) == reference_smallest_irreducible(p, k), (p, k)


def test_finite_field_order_one_matches_zmod():
    assert make_finite_field(5, 1).mul_table == make_zmod(5).mul_table
    assert make_finite_field(5, 1) == make_zmod(5)


def test_finite_field_is_built_afresh_behind_its_checks(monkeypatch):
    wide = Caps(table_size=64)
    f32 = make_finite_field(2, 5, wide)
    again = make_finite_field(2, 5, wide)
    assert again == f32 and again is not f32
    built = []
    monkeypatch.setattr("homposet.rings._smallest_irreducible",
                        lambda p, k: built.append((p, k)))
    with pytest.raises(CapExceeded):
        make_finite_field(2, 5, Caps(table_size=16))
    assert built == []


def test_finite_field_rejects_composite_base():
    with pytest.raises(NotPrime):
        make_finite_field(4, 2)
    with pytest.raises(CapExceeded):
        make_finite_field(2, 7)


@settings(deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (5, 1), (7, 1), (3, 3)]))
def test_finite_fields_satisfy_axioms(pk):
    ring = make_finite_field(*pk)
    assert check_table_axioms(ring) == []
    assert is_field(ring)
    assert len(ring.unit_indices) == ring.size - 1


def test_product_layout_and_units():
    p = make_product(make_zmod(2), make_zmod(3))
    assert p.size == 6 and p.zero == 0 and p.one == 1 * 3 + 1
    assert sorted(p.unit_indices) == [4, 5]


def test_product_rejects_trivial_factor_and_cap():
    with pytest.raises(CapExceeded):
        make_product(make_zmod(16), make_zmod(16))


def test_product_tables_share_their_ints():
    # every entry is one of the carrier's index objects
    z32 = make_zmod(32)
    p = make_product(z32, z32, Caps(table_size=1024))
    ids = {id(v) for table in (p.add_table, p.mul_table) for row in table for v in row}
    assert len(ids) == 1024


def test_quotient_of_z6_by_two():
    z6 = make_zmod(6)
    q, pi = make_quotient(z6, ideal_generated_by(z6, (2,)))
    assert q.size == 2
    assert pi.images == (0, 1, 0, 1, 0, 1)
    assert q == make_zmod(2)  # same tables after min-rep relabeling
    assert pi.kernel_members == frozenset({0, 2, 4})
    assert pi.unit_preimage_members == frozenset({1, 3, 5})


def test_quotient_rejects_improper():
    z6 = make_zmod(6)
    with pytest.raises(ImproperIdeal):
        make_quotient(z6, ideal_generated_by(z6, (1,)))


def test_matrix_ring_m2_f2():
    m2 = make_matrix_ring(make_zmod(2), 2)
    assert m2.size == 16
    assert not m2.is_commutative
    assert check_table_axioms(m2) == []
    # |GL_2(F_2)| = 6, re-derived by a determinant scan
    det_units = set()
    for i in range(16):
        a, b, c, d = i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1
        if (a * d - b * c) % 2 == 1:
            det_units.add(i)
    assert m2.unit_indices == frozenset(det_units)
    assert len(m2.unit_indices) == 6
    # simple: only ideals are 0 and the whole ring
    assert [sorted(i.members) for i in enumerate_ideals(m2)] == [[0], sorted(range(16))]


def test_matrix_ring_needs_field_base():
    with pytest.raises(BaseNotField, match=r"^matrix rings need a field base, got Z/4$"):
        make_matrix_ring(make_zmod(4), 2)


def reference_radical_members(ring) -> frozenset:
    """x with 1 + r*x*s a unit for every r, s: the quasi-regular definition."""
    add, mul, one, units_ = ring.add_table, ring.mul_table, ring.one, ring.unit_indices
    return frozenset(
        x for x in range(ring.size)
        if all(add[one][mul[mul[r][x]][s]] in units_
               for r in range(ring.size) for s in range(ring.size))
    )


def test_jacobson_radical_is_computed_once_and_quasi_regular():
    rings = list(build_catalog(16).rings)
    # seeded proper subrings of M2(Z/3), among them noncommutative ones
    # with a nonzero radical (upper triangular matrices)
    m2 = parse_ring("matrix:2:zmod:3", Caps(table_size=256))
    rng = random.Random(20185)
    for _ in range(40):
        seed = rng.sample(range(m2.size), rng.randint(1, 2))
        members = reference_subring_closure(m2, seed)
        if len(members) < m2.size:
            rings.append(subring(m2, members)[0])
    assert any(not r.is_commutative and len(jacobson_radical(r)) > 1 for r in rings)
    for ring in rings:
        rad = jacobson_radical(ring)
        assert jacobson_radical(ring) is rad
        assert rad.members == reference_radical_members(ring)


def test_jacobson_radical_values():
    assert jacobson_radical(make_zmod(4)).members == frozenset({0, 2})
    assert jacobson_radical(make_zmod(6)).members == frozenset({0})
    assert jacobson_radical(make_zmod(8)).members == frozenset({0, 2, 4, 6})
    assert jacobson_radical(make_matrix_ring(make_zmod(2), 2)).members == frozenset({0})


@settings(deadline=None)
@given(zmods)
def test_radical_of_zmod_is_product_of_primes(ring):
    n = ring.size
    rad = 1
    m = n
    for p in range(2, n + 1):
        if m % p == 0:
            rad *= p
            while m % p == 0:
                m //= p
    assert jacobson_radical(ring).members == frozenset(range(0, n, rad))


def test_ideal_count_of_z6_is_divisor_count():
    assert len(enumerate_ideals(make_zmod(6))) == 4
    assert len(enumerate_ideals(make_zmod(12))) == 6
    assert len(proper_ideals(make_zmod(12))) == 5


@settings(deadline=None)
@given(zmods)
def test_ideals_of_zmod_are_divisor_generated(ring):
    n = ring.size
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    expected = {frozenset(range(0, n, d)) for d in divisors}
    assert {i.members for i in enumerate_ideals(ring)} == expected


def test_ideal_generated_closure():
    z12 = make_zmod(12)
    assert ideal_generated_by(z12, (8,)).members == frozenset({0, 4, 8})
    assert ideal_generated_by(z12, (4, 6)).members == frozenset({0, 2, 4, 6, 8, 10})
    m2 = make_matrix_ring(make_zmod(2), 2)
    # any nonzero matrix generates everything in a simple ring
    assert len(ideal_generated_by(m2, (1,)).members) == 16


def test_ideal_generated_rejects_out_of_range_index():
    z6 = make_zmod(6)
    for bad in (-1, z6.size):
        with pytest.raises(ValueError, match="generator index out of range"):
            ideal_generated_by(z6, (bad,))


def test_ideal_wrapper_validates():
    z6 = make_zmod(6)
    with pytest.raises(NotAnIdeal):
        Ideal(z6, frozenset({0, 1}))
    assert not _is_submonoid(z6, frozenset({1, 2}))  # 2*2=4 missing
    assert _is_submonoid(z6, frozenset({1, 2, 4}))


def test_member_sets_reject_out_of_range_indices():
    z6 = make_zmod(6)
    for bad in (-3, z6.size):  # -3 would wrap onto the member 3
        with pytest.raises(NotAnIdeal):
            Ideal(z6, frozenset({0, 3, bad}))
    for bad in (-1, z6.size):  # -1 would wrap onto the member 5
        assert not _is_submonoid(z6, frozenset({1, 5, bad}))


def test_saturation_and_direct_finiteness():
    z6 = make_zmod(6)
    assert is_saturated(z6, z6.unit_indices)
    # odd residues mod 6: products of elements outside never land inside
    assert is_saturated(z6, frozenset({1, 3, 5}))
    # {1,4}: 4 = 2*2 with 2 outside, so not saturated
    assert not is_saturated(z6, frozenset({1, 4}))
    assert is_directly_finite(z6)
    assert is_directly_finite(make_matrix_ring(make_zmod(2), 2))


def test_saturation_refuses_members_outside_the_ring():
    z6 = make_zmod(6)
    for bad in (-1, z6.size):  # -1 would wrap onto the member 5
        with pytest.raises(ValueError, match="out of range"):
            is_saturated(z6, {1, 5, bad})


def test_completely_prime_and_prime():
    z6 = make_zmod(6)
    two = Ideal(z6, frozenset({0, 2, 4}))
    three = Ideal(z6, frozenset({0, 3}))
    zero = Ideal(z6, frozenset({0}))
    assert is_completely_prime(z6, two)
    assert is_completely_prime(z6, three)
    assert not is_completely_prime(z6, zero)  # 2*3 = 0
    z4 = make_zmod(4)
    assert not is_completely_prime(z4, Ideal(z4, frozenset({0})))
    assert is_completely_prime(z4, Ideal(z4, frozenset({0, 2})))


def test_subring_closure_and_materialization():
    f4 = make_finite_field(2, 2)
    # the prime subring is closed, and x generates all of GF(4)
    with pytest.raises(ValueError, match="not closed"):
        subring(f4, {0, 1, 2})
    sub, carrier = subring(f4, {0, 1})
    assert sub.size == 2 and carrier == (0, 1)
    assert sub == make_zmod(2)


def test_subrings_reject_out_of_range_and_unclosed_members():
    z6 = make_zmod(6)
    for members in ({0, 1, -1}, {0, 1, 6}):
        with pytest.raises(ValueError, match="out of range"):
            subring(z6, members)
    with pytest.raises(ValueError, match="not closed"):
        subring(z6, {0, 1, 5})  # 1+1 escapes
    # in M2(Z/2), index a00 + 2*a01 + 4*a10 + 8*a11: the span of 1, E12 and
    # E21 is closed under + but not x, since E12*E21 = E11
    m2 = make_matrix_ring(make_zmod(2), 2)
    with pytest.raises(ValueError, match="not closed"):
        subring(m2, {0, 9, 2, 4, 11, 13, 6, 15})


def regenerate(ring):
    """Rebuild a ring from the fields of its construction record."""
    wide = Caps(table_size=max(Caps().table_size, ring.size))
    match ring.provenance:
        case ZMod(n):
            return make_zmod(n, wide)
        case Field(p, k):
            return make_finite_field(p, k, wide)
        case Product(r1, r2):
            return make_product(r1, r2, wide)
        case Matrix(k, base):
            return make_matrix_ring(base, k, wide)
        case Quotient(parent, members):
            q, _ = make_quotient(parent, Ideal(parent, frozenset(members)))
            return q
        case Subring(parent, carrier):
            s, _ = subring(parent, carrier)
            return s
    return ring


def test_regenerate_round_trips():
    samples = [
        make_zmod(9),
        make_finite_field(3, 2),
        make_product(make_zmod(2), make_zmod(4)),
        make_matrix_ring(make_zmod(2), 2),
        make_quotient(make_zmod(12), ideal_generated_by(make_zmod(12), (4,)))[0],
    ]
    for r in samples:
        assert regenerate(r) == r


def test_ring_from_tables_derives_identities():
    z3 = make_zmod(3)
    r = ring_from_tables(z3.add_table, z3.mul_table)
    assert r == z3
    bad_mul = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError):
        ring_from_tables(z3.add_table, bad_mul)


def test_equality_ignores_provenance():
    a = make_zmod(4)
    b = make_quotient(make_zmod(8), ideal_generated_by(make_zmod(8), (4,)))[0]
    assert a == b and hash(a) == hash(b)
    assert isinstance(a.provenance, ZMod) and isinstance(b.provenance, Quotient)


def golden_label_rings():
    """One ring of each way a ring is built, by name: the descriptions
    parse_ring reads, a subring, both corners of a split and a table copy."""
    rings = {spec: parse_ring(spec, Caps()) for spec in (
        "zmod:6", "gf:2:1", "gf:2:3", "product:zmod:2:gf:2:2", "matrix:2:gf:2:1",
        "quot:product:zmod:4:zmod:6:gens=2", "quot:quot:zmod:36:gens=6:gens=2")}
    # upper-triangular matrices: a10, worth 4 in the index, is zero
    rings["T2"], _ = subring(parse_ring("matrix:2:zmod:2", Caps()), {0, 1, 2, 3, 8, 9, 10, 11})
    z2z3 = parse_ring("product:zmod:2:zmod:3", Caps())
    split = decompose_product_morphism(identity_morphism(z2z3))
    rings["corner1"], rings["corner2"] = split.corner1, split.corner2
    z6 = rings["zmod:6"]
    rings["table copy"] = ring_from_tables(z6.add_table, z6.mul_table)
    return rings


GOLDEN_LABELS = {
    # name: (ring_label, {index: element_label}, format_ring or its ValueError)
    "zmod:6": ("Z/6", {0: "0", 1: "1", 5: "5"}, "zmod:6"),
    "gf:2:1": ("GF(2)", {0: "0", 1: "1"}, "gf:2:1"),
    "gf:2:3": ("GF(8)", {0: "0", 1: "1", 2: "x", 3: "1+x", 6: "x+x^2", 7: "1+x+x^2"},
               "gf:2:3"),
    "product:zmod:2:gf:2:2": ("Z/2 x GF(4)",
                              {0: "(0,0)", 3: "(0,1+x)", 5: "(1,1)", 7: "(1,1+x)"},
                              "product:zmod:2:gf:2:2"),
    "matrix:2:gf:2:1": ("M2(GF(2))", {0: "[[0,0],[0,0]]", 1: "[[1,0],[0,0]]",
                                      6: "[[0,1],[1,0]]", 9: "[[1,0],[0,1]]",
                                      15: "[[1,1],[1,1]]"}, "matrix:2:gf:2:1"),
    "quot:product:zmod:4:zmod:6:gens=2": (
        "Z/4 x Z/6/(0,2,4)", {0: "(0,0)", 1: "(0,1)", 5: "(2,1)", 7: "(3,1)"},
        "quot:product:zmod:4:zmod:6:gens=0,2,4"),
    "quot:quot:zmod:36:gens=6:gens=2": (
        "Z/36/(0,6,12,18,24,30)/(0,2,4)", {0: "0", 1: "1"},
        "quot:quot:zmod:36:gens=0,6,12,18,24,30:gens=0,2,4"),
    "T2": ("sub[8](M2(Z/2))", {0: "[[0,0],[0,0]]", 1: "[[1,0],[0,0]]", 3: "[[1,1],[0,0]]",
                               7: "[[1,1],[0,1]]"},
           ValueError("ring sub[8](M2(Z/2)) has no description grammar")),
    "corner1": ("corner[2](Z/2 x Z/3)", {0: "0", 1: "1"},
                ValueError("ring corner[2](Z/2 x Z/3) has no description grammar")),
    "corner2": ("corner[3](Z/2 x Z/3)", {0: "0", 1: "1", 2: "2"},
                ValueError("ring corner[3](Z/2 x Z/3) has no description grammar")),
    "table copy": ("ring6", {0: "0", 5: "5"},
                   ValueError("ring ring6 has no description grammar")),
}


def test_golden_labels_per_construction():
    rings = golden_label_rings()
    assert rings.keys() == GOLDEN_LABELS.keys()
    for name, ring in rings.items():
        label, elements, description = GOLDEN_LABELS[name]
        assert ring_label(ring) == label, name
        assert {i: element_label(ring, i) for i in elements} == elements, name
        if isinstance(description, ValueError):
            with pytest.raises(ValueError) as raised:
                format_ring(ring)
            assert str(raised.value) == str(description), name
        else:
            assert format_ring(ring) == description, name


def test_quotient_labels_read_the_representatives_of_their_construction(monkeypatch):
    # make_quotient finds the coset representatives once; labels read them
    ring = parse_ring("quot:quot:zmod:36:gens=6:gens=2", Caps())
    calls = []
    monkeypatch.setattr("homposet.rings.coset_reps", lambda *a: calls.append(a) or coset_reps(*a))
    assert [element_label(ring, i) for i in range(ring.size)] == ["0", "1"]
    assert calls == []


def test_morphism_validation():
    z6, z2 = make_zmod(6), make_zmod(2)
    f = RingMorphism(z6, z2, (0, 1, 0, 1, 0, 1))
    assert f.is_surjective and not f.is_injective
    with pytest.raises(ValueError):
        RingMorphism(z6, z2, (0, 1, 1, 1, 0, 1))
    with pytest.raises(ValueError):
        RingMorphism(z6, z2, (1, 1, 0, 1, 0, 1))


def test_compose_and_identity():
    z12, z6, z2 = make_zmod(12), make_zmod(6), make_zmod(2)
    f = RingMorphism(z12, z6, tuple(i % 6 for i in range(12)))
    g = RingMorphism(z6, z2, tuple(i % 2 for i in range(6)))
    gf = compose(g, f)
    assert gf.images == tuple(i % 2 for i in range(12))
    assert compose(identity_morphism(z6), f).images == f.images
    from homposet.errors import NotComposable

    with pytest.raises(NotComposable):
        compose(f, g)


# ---------------------------------------------------------------------------
# reference closures: the earlier fixed-point algorithm, kept to pin the
# coset-extension closure and the lattice enumeration to the same answers


def reference_ideal_members(ring, gens) -> frozenset:
    """Least two-sided ideal containing gens, by fixed-point closure."""
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    known = {ring.zero} | set(gens)
    work = list(known)
    while work:
        a = work.pop()
        for c in (neg[a],):
            if c not in known:
                known.add(c)
                work.append(c)
        for b in list(known):
            c = add[a][b]
            if c not in known:
                known.add(c)
                work.append(c)
        for r in range(ring.size):
            for c in (mul[r][a], mul[a][r]):
                if c not in known:
                    known.add(c)
                    work.append(c)
    return frozenset(known)


def reference_ideals(ring) -> list:
    """Principal ideals closed under pairwise sums, sorted by size then members."""
    add = ring.add_table
    seeds = {reference_ideal_members(ring, (x,)) for x in range(ring.size)}
    ideals = set(seeds)
    frontier = set(seeds)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in ideals:
                s = frozenset(add[x][y] for x in a for y in b)
                if s not in ideals and s not in fresh:
                    fresh.add(s)
        ideals |= fresh
        frontier = fresh
    return sorted(ideals, key=lambda m: (len(m), sorted(m)))


def assert_lattice_matches_reference(ring):
    assert [i.members for i in enumerate_ideals(ring)] == reference_ideals(ring)
    for x in range(ring.size):
        assert ideal_generated_by(ring, (x,)).members == reference_ideal_members(ring, (x,))
    gens = (ring.size // 2, ring.size - 1)
    assert ideal_generated_by(ring, gens).members == reference_ideal_members(ring, gens)
    # each realized pair's second component is the preimage of the quotient's units
    for pair in hom_poset(ring).elements:
        _, pi = make_quotient(ring, Ideal(ring, pair.ideal))
        assert pair.mset == pi.unit_preimage_members


def test_ideal_lattice_matches_reference_on_catalog():
    for ring in build_catalog(16).rings:
        assert_lattice_matches_reference(ring)


def test_ideal_lattice_matches_reference_on_matrix_ring():
    m2 = make_matrix_ring(make_zmod(3), 2, Caps(table_size=81))
    assert_lattice_matches_reference(m2)


small_rings = st.sampled_from(
    [make_zmod(n) for n in range(2, 7)]
    + [make_finite_field(2, 2), make_finite_field(3, 2), make_matrix_ring(make_zmod(2), 2)]
)


@settings(deadline=None, max_examples=25)
@given(st.lists(small_rings, min_size=2, max_size=3).filter(
    lambda rs: math.prod(r.size for r in rs) <= 36))
def test_ideal_lattice_matches_reference_on_products(factors):
    ring = factors[0]
    for factor in factors[1:]:
        ring = make_product(ring, factor)
    assert_lattice_matches_reference(ring)


def test_finite_field_tables_match_schoolbook_product():
    # both tables, on polynomials as digit tuples: digitwise sums mod p and
    # schoolbook products reduced by the modulus
    wide = Caps(table_size=256)
    for q in range(2, 257):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = round(math.log(q, p))
        if p**k != q:
            continue
        gf = make_finite_field(p, k, wide)
        modulus = gf.provenance.modulus
        polys = [tuple((i // p**j) % p for j in range(k)) for i in range(q)]
        index = {c: i for i, c in enumerate(polys)}
        schoolbook = tuple(
            tuple(index[_poly_mul_mod(a, b, modulus, p)] for b in polys) for a in polys
        )
        assert gf.mul_table == schoolbook, q
        digitwise = tuple(
            tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for b in polys)
            for a in polys
        )
        assert gf.add_table == digitwise, q


def test_coset_reps_are_least_and_sorted():
    z12 = make_zmod(12)
    rep_of, reps = coset_reps(z12, frozenset({0, 4, 8}))
    assert reps == (0, 1, 2, 3)
    assert rep_of == tuple(x % 4 for x in range(12))


@settings(deadline=None)
@given(st.integers(2, 12), st.integers(2, 12))
def test_random_product_axioms(n, m):
    p = make_product(make_zmod(n), make_zmod(m), Caps(table_size=144))
    assert check_table_axioms(p) == []
    assert len(p.unit_indices) == len(make_zmod(n).unit_indices) * len(
        make_zmod(m).unit_indices
    )


# ---------------------------------------------------------------------------
# reference axiom scan: the earlier exhaustive O(n^3) check, kept to pin the
# generating-set decision in check_table_axioms (Light's test)


def reference_check_table_axioms(ring: FiniteRing) -> list:
    """Exhaustive ring-axiom scan; returns human-readable violations."""
    n, add, mul = ring.size, ring.add_table, ring.mul_table
    zero, one = ring.zero, ring.one
    bad = []
    if any(add[zero][b] != b for b in range(n)):
        bad.append("0 is not an additive identity")
    if any(mul[one][b] != b or mul[b][one] != b for b in range(n)):
        bad.append("1 is not a multiplicative identity")
    for a in range(n):
        if all(add[a][b] != zero for b in range(n)):
            bad.append(f"{a} has no additive inverse")
            break
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                bad.append(f"addition not commutative at ({a},{b})")
                break
        else:
            continue
        break
    for a in range(n):
        for b in range(n):
            ab_add = add[a][b]
            ab_mul = mul[a][b]
            for c in range(n):
                if add[ab_add][c] != add[a][add[b][c]]:
                    bad.append(f"addition not associative at ({a},{b},{c})")
                    return bad
                if mul[ab_mul][c] != mul[a][mul[b][c]]:
                    bad.append(f"multiplication not associative at ({a},{b},{c})")
                    return bad
                if mul[a][add[b][c]] != add[ab_mul][mul[a][c]]:
                    bad.append(f"left distributivity fails at ({a},{b},{c})")
                    return bad
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    bad.append(f"right distributivity fails at ({a},{b},{c})")
                    return bad
    return bad


# each law as a test on its named elements: True when it holds there
LAWS = {
    "addition not commutative": lambda add, mul, a, b: add[a][b] == add[b][a],
    "addition not associative":
        lambda add, mul, a, b, c: add[add[a][b]][c] == add[a][add[b][c]],
    "multiplication not associative":
        lambda add, mul, a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]],
    "left distributivity fails":
        lambda add, mul, a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]],
    "right distributivity fails":
        lambda add, mul, a, b, c: mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]],
}


def law_is_broken(ring, message) -> bool:
    """Whether the violation a check_table_axioms message names occurs."""
    n, add, mul = ring.size, ring.add_table, ring.mul_table
    if message == "0 is not an additive identity":
        return any(add[ring.zero][b] != b for b in range(n))
    if message == "1 is not a multiplicative identity":
        return any(mul[ring.one][b] != b or mul[b][ring.one] != b for b in range(n))
    if message.endswith("has no additive inverse"):
        a = int(message.split()[0])
        return all(add[a][b] != ring.zero for b in range(n))
    head, _, args = message.partition(" at (")
    elems = [int(t) for t in args.rstrip(")").split(",")]
    if head.endswith("table entry"):
        table = add if head.startswith("addition") else mul
        return not 0 <= table[elems[0]][elems[1]] < n
    return not LAWS[head](add, mul, *elems)


def table_ring(ring, add, mul) -> FiniteRing:
    """Tables taken as they are, without ring_from_tables' check."""
    return FiniteRing(ring.size, tuple(map(tuple, add)), tuple(map(tuple, mul)),
                      ring.zero, ring.one)


def table_mutants(ring, rng, count):
    """Copies of the tables with one or two entries set to random values.

    A second entry mirrors the first half the time, so that a mutated sum
    can stay commutative and reach the laws in three variables.
    """
    n = ring.size
    for _ in range(count):
        add = [list(row) for row in ring.add_table]
        mul = [list(row) for row in ring.mul_table]
        table = rng.choice((add, mul))
        a, b, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table[a][b] = v
        if rng.random() < 0.25:
            table[b][a] = v
        elif rng.random() < 0.33:
            rng.choice((add, mul))[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield table_ring(ring, add, mul)


def near_ring_of_maps(m, opposite=False) -> FiniteRing:
    """All maps Z/m -> Z/m under pointwise + and composition.

    f o (g + h) differs from f o g + f o h for a map f that is not
    additive, so this is associative and distributive on one side only;
    opposite composes the other way round and swaps the sides.
    """
    maps = list(itertools.product(range(m), repeat=m))
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((x + y) % m for x, y in zip(f, g))] for g in maps] for f in maps]
    mul = [[index[tuple(f[g[x]] for x in range(m))] for g in maps] for f in maps]
    if opposite:
        mul = [list(col) for col in zip(*mul)]
    zero, one = index[(0,) * m], index[tuple(range(m))]
    return FiniteRing(len(maps), tuple(map(tuple, add)), tuple(map(tuple, mul)), zero, one)


def random_algebra(p, k, rng) -> FiniteRing:
    """A unital algebra over Z/p with basis 1 = e0, e1, ..., e(k-1) and
    random structure constants e_i e_j for i, j > 0.

    Its product is bilinear, so every law but associativity of x holds.
    """
    n = p**k
    vecs = [[(i // p**d) % p for d in range(k)] for i in range(n)]
    basis = [[int(d == i) for d in range(k)] for i in range(k)]
    const = [[basis[j] if i == 0 else basis[i] if j == 0
              else [rng.randrange(p) for _ in range(k)] for j in range(k)]
             for i in range(k)]

    def index(v):
        return sum(c * p**d for d, c in enumerate(v))

    add = [[index([(x + y) % p for x, y in zip(u, v)]) for v in vecs] for u in vecs]
    mul = []
    for u in vecs:
        row = []
        for v in vecs:
            out = [0] * k
            for i, ui in enumerate(u):
                for j, vj in enumerate(v):
                    if ui and vj:
                        for d, c in enumerate(const[i][j]):
                            out[d] = (out[d] + ui * vj * c) % p
            row.append(index(out))
        mul.append(row)
    return FiniteRing(n, tuple(map(tuple, add)), tuple(map(tuple, mul)), 0, 1)


def axiom_inputs():
    """The catalog, M2(Z/3), near-rings, random algebras, and seeded
    one- and two-entry mutants of the small catalog rings and M2(Z/2)."""
    rng = random.Random(20251)
    catalog = build_catalog(32).rings
    yield from catalog
    yield make_matrix_ring(make_zmod(3), 2, Caps(table_size=81))
    for m in (2, 3):
        yield near_ring_of_maps(m)
        yield near_ring_of_maps(m, opposite=True)
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2)):
        for _ in range(6):
            yield random_algebra(p, k, rng)
    for ring in catalog:
        if ring.size <= 16:
            yield from table_mutants(ring, rng, 30)
    yield from table_mutants(make_matrix_ring(make_zmod(2), 2), rng, 2000)


def test_axiom_check_matches_exhaustive_scan():
    counts = {}
    for ring in axiom_inputs():
        bad = check_table_axioms(ring)
        assert bool(bad) == bool(reference_check_table_axioms(ring)), (ring, bad)
        for message in bad:
            assert law_is_broken(ring, message), (ring, message)
        if bad:
            law = bad[0].partition(" at ")[0]
            counts[law] = counts.get(law, 0) + 1
    # every law in three variables is the first failure somewhere
    for law in ("addition not associative", "left distributivity fails",
                "right distributivity fails", "multiplication not associative"):
        assert counts.get(law, 0) >= 3, counts


def test_axiom_check_rejects_out_of_range_entries():
    z3 = make_zmod(3)
    for bad_value in (3, -1):
        add = [list(row) for row in z3.add_table]
        add[1][2] = bad_value
        assert check_table_axioms(table_ring(z3, add, z3.mul_table)) == [
            "addition table entry at (1,2) is out of range"
        ]
        with pytest.raises(ValueError, match="out of range"):
            ring_from_tables(add, z3.mul_table)
    mul = [list(row) for row in z3.mul_table]
    mul[2][2] = 7
    with pytest.raises(ValueError, match="multiplication table entry at \\(2,2\\)"):
        ring_from_tables(z3.add_table, mul)


# ---------------------------------------------------------------------------
# reference scans: the earlier all-pairs checks, kept to pin the
# generating-set checks for ideals, submonoids, morphisms and generators


def reference_is_ideal(ring, members) -> bool:
    if ring.zero not in members:
        return False
    add, mul = ring.add_table, ring.mul_table
    for a in members:
        for b in members:
            if add[a][b] not in members:
                return False
        for r in range(ring.size):
            if mul[r][a] not in members or mul[a][r] not in members:
                return False
    return True


def coset_growth_is_ideal(ring, members) -> bool:
    """The generating-set test that _is_ideal ran before it became one
    closure: grow the additive subgroup of the members one coset at a time
    inside them, then check x*b and b*x for ring generators x and basis b."""
    if ring.zero not in members or not members <= ring.index_set:
        return False
    sub = _Subgroup(ring)
    elems = sub.elems
    for a in members:
        start = len(elems)
        if sub.extend(a) and not members.issuperset(elems[start:]):
            return False
    mul = ring.mul_table
    for b in sub.basis:
        row = mul[b]
        for x in ring.generators:
            if mul[x][b] not in members or row[x] not in members:
                return False
    return True


def reference_is_submonoid(ring, members) -> bool:
    if ring.one not in members:
        return False
    mul = ring.mul_table
    return all(mul[a][b] in members for a in members for b in members)


def reference_morphism_error(src, tgt, f):
    """Exception type the all-pairs morphism check raises, or None."""
    if len(f) != src.size or any(not 0 <= y < tgt.size for y in f):
        return ValueError
    if f[src.zero] != tgt.zero or f[src.one] != tgt.one:
        return ValueError
    for a in range(src.size):
        for b in range(src.size):
            if f[src.add_table[a][b]] != tgt.add_table[f[a]][f[b]]:
                return ValueError
            if f[src.mul_table[a][b]] != tgt.mul_table[f[a]][f[b]]:
                return ValueError
    return None


def reference_subring_closure(ring, seed) -> frozenset:
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    known = {ring.zero, ring.one}
    work = list(known | set(seed))
    known |= set(seed)
    while work:
        a = work.pop()
        for b in list(known):
            for c in (add[a][b], mul[a][b], mul[b][a]):
                if c not in known:
                    known.add(c)
                    work.append(c)
        na = neg[a]
        if na not in known:
            known.add(na)
            work.append(na)
    return frozenset(known)


def reference_generators(ring) -> tuple:
    gens = []
    span = reference_subring_closure(ring, ())
    while len(span) < ring.size:
        nxt = min(x for x in range(ring.size) if x not in span)
        gens.append(nxt)
        span = reference_subring_closure(ring, span | {nxt})
    return tuple(gens)


def toggles(ring, members):
    """members, then members with each element in turn added or removed."""
    yield members
    for x in range(ring.size):
        yield members ^ {x}


def closure_candidates(ring, rng):
    """Ideals, one-sided ideals, U(R)+I, generated monoids and random sets,
    each also with one element toggled."""
    n, add, mul = ring.size, ring.add_table, ring.mul_table
    ideals = [i.members for i in enumerate_ideals(ring)]
    one_sided = [frozenset(mul[r][x] for r in range(n)) for x in range(n)]
    one_sided += [frozenset(mul[x][r] for r in range(n)) for x in range(n)]
    msets = [frozenset(add[u][a] for u in ring.unit_indices for a in i) for i in ideals]
    monoids = []
    for _ in range(20):
        gens = rng.sample(range(n), min(n, 2))
        words = {ring.one}
        while True:
            more = {mul[w][g] for w in words for g in gens} - words
            if not more:
                break
            words |= more
        monoids.append(frozenset(words))
    for members in ideals + one_sided + msets + monoids:
        yield from toggles(ring, members)
    for _ in range(300):
        density = rng.random()
        members = {x for x in range(n) if rng.random() < density}
        if rng.random() < 0.5:
            members |= {ring.zero, ring.one}
        yield frozenset(members)


def test_closure_checks_match_all_pairs_scans_on_catalog():
    rng = random.Random(20181)
    for ring in build_catalog(16).rings:
        for members in closure_candidates(ring, rng):
            assert _is_ideal(ring, members) == reference_is_ideal(ring, members), (ring, members)
            assert _is_submonoid(ring, members) == reference_is_submonoid(ring, members), (
                ring, members)


def test_ideal_closure_matches_coset_growth():
    # every subset of the rings of at most 8 elements
    for ring in build_catalog(8).rings:
        for bits in range(1 << ring.size):
            members = frozenset(x for x in range(ring.size) if bits >> x & 1)
            expected = reference_is_ideal(ring, members)
            assert coset_growth_is_ideal(ring, members) == expected, (ring, members)
            assert _is_ideal(ring, members) == expected, (ring, members)
    # every ideal, each with one element toggled, and seeded random sets
    rng = random.Random(20186)
    rings = build_catalog(16).rings
    assert parse_ring("matrix:2:zmod:2", Caps()) in rings
    for ring in rings:
        candidates = [m for i in enumerate_ideals(ring) for m in toggles(ring, i.members)]
        for _ in range(100):
            candidates.append(frozenset(x for x in range(ring.size) if rng.random() < 0.5))
        for members in candidates:
            assert _is_ideal(ring, members) == coset_growth_is_ideal(ring, members), (
                ring, members)


def test_ideal_test_stops_once_the_closure_outgrows_the_set(monkeypatch):
    # the closure of {0, 1} in Z/1024 is the whole ring, but the test gives
    # up once the subgroup holds more than the two members
    ring = make_zmod(1024, Caps(table_size=1024))
    assert ring.generators == ()  # 1 alone generates; closed before the spy
    sizes = []
    extend = _Subgroup.extend

    def spy(self, c):
        try:
            return extend(self, c)
        finally:
            sizes.append(len(self.elems))

    monkeypatch.setattr(_Subgroup, "extend", spy)
    assert not _is_ideal(ring, frozenset({0, 1}))
    assert max(sizes) == 3


def morphism_candidates(src, tgt, rng):
    """Searched morphisms with each entry perturbed, additive maps fixing 0
    and 1, and random maps fixing 0 and 1."""
    n, m = src.size, tgt.size
    for f in enumerate_morphisms(src, tgt):
        images = list(f.images)
        yield tuple(images)
        for i in range(n):
            bumped = images.copy()
            bumped[i] = (bumped[i] + 1) % m
            yield tuple(bumped)
    for _ in range(10):
        # extend random images of the additive basis; skip inconsistent ones
        images = {src.zero: tgt.zero}
        consistent = True
        for b in src.additive_basis:
            fb = rng.randrange(m)
            for x in list(images):
                y, fy = x, images[x]
                while consistent:
                    y, fy = src.add_table[y][b], tgt.add_table[fy][fb]
                    if y in images:
                        consistent = images[y] == fy
                        break
                    images[y] = fy
        if consistent and images[src.one] == tgt.one:
            yield tuple(images[x] for x in range(n))
    for _ in range(10):
        images = [rng.randrange(m) for _ in range(n)]
        images[src.zero], images[src.one] = tgt.zero, tgt.one
        yield tuple(images)


def test_morphism_check_matches_all_pairs_scan_on_catalog():
    rng = random.Random(20182)
    rings = build_catalog(16).rings
    for src in rings:
        for tgt in rings:
            for images in morphism_candidates(src, tgt, rng):
                try:
                    RingMorphism(src, tgt, images)
                    raised = None
                except Exception as e:  # the type is what is compared
                    raised = type(e)
                assert raised is reference_morphism_error(src, tgt, images), (src, tgt, images)


def test_morphism_check_keeps_its_input_checks():
    z6, z2 = make_zmod(6), make_zmod(2)
    for images in ((0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 2), (0, 1, 0, 1, 0, -1)):
        with pytest.raises(ValueError):
            RingMorphism(z6, z2, images)


def hom_ladder_rings():
    wide = Caps(table_size=256)
    specs = (
        "zmod:64", "zmod:128", "gf:2:6", "gf:2:7", "product:zmod:8:zmod:16",
        "product:zmod:4:product:zmod:4:zmod:4",
        ":".join(["product:zmod:2"] * 6 + ["zmod:2"]),
        "matrix:2:zmod:3", "quot:zmod:256:gens=64",
    )
    return [parse_ring(spec, wide) for spec in specs]


# reference lattice: the earlier loop that closes every element, kept to pin
# the one-closure-per-unit-orbit enumeration to the same ideals in the same
# order


def reference_enumerate_ideals(ring) -> list:
    gens = ring.generators
    principal = {}
    for x in range(ring.size):
        sub = _Subgroup(ring)
        sub.close((x,), gens, gens)
        principal.setdefault(frozenset(sub.elems), tuple(sub.basis))
    lattice = {frozenset({ring.zero}): ()}
    for p, p_basis in sorted(principal.items(), key=lambda kv: len(kv[0])):
        if p in lattice:
            continue
        for members, basis in list(lattice.items()):
            if p <= members:
                continue
            sub = _Subgroup(ring, members, basis)
            for c in p_basis:
                sub.extend(c)
            lattice.setdefault(frozenset(sub.elems), tuple(sub.basis))
    return sorted(lattice, key=lambda m: (len(m), sorted(m)))


def test_unit_orbits_keep_the_ideal_lattice():
    wide = Caps(table_size=256)
    rings = list(build_catalog(32).rings) + hom_ladder_rings() + [
        # noncommutative, with nontrivial unit groups
        parse_ring("matrix:2:zmod:2", wide),
        parse_ring("matrix:2:zmod:3", wide),
        parse_ring("matrix:2:gf:2:2", wide),
        # U = {1}: every orbit is a single element
        parse_ring("product:zmod:2:product:zmod:2:zmod:2", wide),
    ]
    for ring in rings:
        assert [i.members for i in enumerate_ideals(ring)] == reference_enumerate_ideals(ring), ring


def test_one_principal_closure_per_unit_orbit(monkeypatch):
    closed = []
    close = _Subgroup.close

    def counted(sub, pending, left=(), right=()):
        closed.append(tuple(pending))
        return close(sub, pending, left, right)

    # Z/128 and M2(Z/3) from their tables alone, since the constructed
    # rings know their ideals
    z = make_zmod(128, Caps(table_size=128))
    z128 = ring_from_tables(z.add_table, z.mul_table, Caps(table_size=128))
    m = parse_ring("matrix:2:zmod:3", Caps(table_size=81))
    m2 = ring_from_tables(m.add_table, m.mul_table, Caps(table_size=81))
    for ring in (z128, m2):
        ring.generators  # its own closures are not principal ones
    monkeypatch.setattr(_Subgroup, "close", counted)
    enumerate_ideals(z128)
    # one per divisor of 128: 0, then 2^k for k = 0..6
    assert closed == [(0,), (1,), (2,), (4,), (8,), (16,), (32,), (64,)]
    closed.clear()
    enumerate_ideals(m2)
    assert len(closed) == 3  # one per rank: 0, 1 and 2


def constructed_rings():
    """Every ring whose units, ideals and U(R)+I come from its construction
    at the benchmark and survey sizes, with the ladder's rings (M2(Z/3)
    among them), larger matrix rings and a product over a matrix ring."""
    wide = Caps(table_size=1024)
    specs = ("zmod:1024", "zmod:1020", "product:zmod:32:zmod:32", "gf:2:10",
             ":".join(["product:zmod:2"] * 9 + ["zmod:2"]),
             "product:matrix:2:zmod:2:zmod:3", "matrix:3:zmod:2", "matrix:2:gf:2:2",
             "matrix:2:zmod:5")
    catalog = [r for r in build_catalog(64).rings
               if isinstance(r.provenance, (ZMod, Field, Product, Matrix))]
    return catalog + hom_ladder_rings() + [parse_ring(spec, wide) for spec in specs]


def test_construction_agrees_with_closure_and_table_scan():
    for ring in constructed_rings():
        # the same tables with no construction behind them: closure and scan
        raw = FiniteRing(ring.size, ring.add_table, ring.mul_table, ring.zero, ring.one)
        assert [i.members for i in enumerate_ideals(ring)] == reference_enumerate_ideals(raw), ring
        assert ring.unit_indices == raw.unit_indices, ring
        assert [(p.ideal, p.mset) for p in hom_poset(ring).elements] == [
            (p.ideal, p.mset) for p in hom_poset(raw).elements], ring
        for bar in (False, True):
            assert hom_poset(ring, bar).covers == hom_poset(raw, bar).covers, ring


def test_hom_builds_no_table_of_a_constructed_ring():
    wide = Caps(table_size=256)
    for spec in ("zmod:128", "gf:2:7", "matrix:2:zmod:3",
                 ":".join(["product:zmod:2"] * 6 + ["zmod:2"]),
                 "quot:zmod:256:gens=64", "quot:product:zmod:8:zmod:16:gens=2"):
        ring = parse_ring(spec, wide)
        render_hom_json(ring, hom_poset(ring), spec)
        # records compare by identity, so hashing one reads no factor's table
        hash(ring.provenance)
        parts = [ring]
        for r in parts:
            assert "add_table" not in r.__dict__ and "mul_table" not in r.__dict__, spec
            if isinstance(r.provenance, Product):
                parts.extend(product_factors(r))
            if isinstance(r.provenance, ConstructedQuotient):
                parts.extend((r.provenance.parent, r.provenance.model))
    # a read builds both tables, which stay as plain attributes
    assert ring.add_table is ring.__dict__["add_table"]
    assert "mul_table" in ring.__dict__


def test_generators_match_greedy_definition():
    for ring in list(build_catalog(16).rings) + hom_ladder_rings():
        assert ring.generators == reference_generators(ring), ring
    # seeded subrings of a noncommutative ring: a closure that forgets the
    # old span times a new generator still matches on the rings above
    m2 = parse_ring("matrix:2:gf:2:2", Caps(table_size=256))
    rng = random.Random(20183)
    for _ in range(60):
        seed = tuple(rng.sample(range(m2.size), rng.randint(1, 3)))
        sub, _ = subring(m2, reference_subring_closure(m2, seed))
        assert sub.generators == reference_generators(sub), seed



# ---------------------------------------------------------------------------
# reference builders: the earlier per-entry table constructions, kept to pin
# the row-at-a-time builders (rotation, digit composition, additivity) to
# the same tables, zero and one


def reference_ring(add, mul, zero, one) -> FiniteRing:
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    return FiniteRing(len(add), add, mul, zero, one)


def reference_make_zmod(n) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return reference_ring(add, mul, 0, 1)


def reference_finite_field(p, k) -> FiniteRing:
    q = p**k
    modulus = _smallest_irreducible(p, k)
    polys = [_digits(i, p, k) for i in range(q)]
    add = [
        [_undigits([(a + b) % p for a, b in zip(f, g)], p) for g in polys]
        for f in polys
    ]
    order = q - 1
    for g in range(1, q):
        exp = [1]
        while True:
            nxt = _undigits(_poly_mul_mod(polys[exp[-1]], polys[g], modulus, p), p)
            if nxt == 1:
                break
            exp.append(nxt)
        if len(exp) == order:
            break
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    exp2 = exp + exp
    mul = [[0] * q for _ in range(q)]
    for a in range(1, q):
        row, la = mul[a], log[a]
        for b in range(1, q):
            row[b] = exp2[la + log[b]]
    return reference_ring(add, mul, 0, 1)


def reference_matrix_ring(base, k) -> FiniteRing:
    q = base.size
    size = q ** (k * k)
    nn = k * k
    mats = [_digits(i, q, nn) for i in range(size)]
    badd, bmul = base.add_table, base.mul_table
    add = [
        [_undigits([badd[x][y] for x, y in zip(A, B)], q) for B in mats]
        for A in mats
    ]
    mul = []
    for i in range(size):
        A = mats[i]
        row = []
        for j in range(size):
            B = mats[j]
            out = []
            for r in range(k):
                for c in range(k):
                    acc = base.zero
                    for t in range(k):
                        acc = badd[acc][bmul[A[r * k + t]][B[t * k + c]]]
                    out.append(acc)
            row.append(_undigits(out, q))
        mul.append(row)
    zero = _undigits((base.zero,) * nn, q)
    one = _undigits([base.one if r == c else base.zero for r in range(k) for c in range(k)], q)
    return reference_ring(add, mul, zero, one)


def reference_make_product(r1, r2) -> FiniteRing:
    size = r1.size * r2.size
    n2 = r2.size
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a1 in range(r1.size):
        for a2 in range(n2):
            i = a1 * n2 + a2
            arow, mrow = add[i], mul[i]
            aa, ma = r1.add_table[a1], r1.mul_table[a1]
            ab, mb = r2.add_table[a2], r2.mul_table[a2]
            for b1 in range(r1.size):
                for b2 in range(n2):
                    j = b1 * n2 + b2
                    arow[j] = aa[b1] * n2 + ab[b2]
                    mrow[j] = ma[b1] * n2 + mb[b2]
    return reference_ring(add, mul, r1.zero * n2 + r2.zero, r1.one * n2 + r2.one)


def prime_powers(bound):
    """(p, k) with p prime and p**k <= bound."""
    return [(p, k) for p in range(2, bound + 1) if is_prime(p)
            for k in range(1, bound.bit_length()) if p**k <= bound]


def relabelled_z3() -> FiniteRing:
    """Z/3 through ring_from_tables with its zero at index 2 and one at 0."""
    new = (2, 0, 1)  # new[x] is the index of the residue x
    old = {v: x for x, v in enumerate(new)}

    def table(op):
        return [[new[op(old[a], old[b]) % 3] for b in range(3)] for a in range(3)]

    return ring_from_tables(table(lambda a, b: a + b), table(lambda a, b: a * b))


def test_zmod_tables_match_reference():
    # every n up to 300, and Z/1024 at table cap 1024, the largest Z/n built here
    wide = Caps(table_size=1024)
    for n in list(range(2, 301)) + [1024]:
        ring = make_zmod(n, wide)
        assert ring == reference_make_zmod(n), n
        assert all(type(row) is tuple for row in ring.mul_table), n


def test_finite_field_tables_match_reference():
    wide = Caps(table_size=256)
    for p, k in prime_powers(256):
        assert make_finite_field(p, k, wide) == reference_finite_field(p, k), (p, k)


def test_matrix_tables_match_reference():
    wide = Caps(table_size=512)
    fields = [r for r in build_catalog(16).rings if is_field(r)]
    assert make_finite_field(2, 2) in fields  # digit sums there are not sums mod q
    for base in fields:
        k = 1
        while base.size ** (k * k) <= 512:
            assert make_matrix_ring(base, k, wide) == reference_matrix_ring(base, k), (base, k)
            k += 1


def test_matrix_ring_over_a_base_whose_zero_is_not_index_0():
    z3 = relabelled_z3()
    assert (z3.zero, z3.one) == (2, 0) and is_field(z3)
    m2 = make_matrix_ring(z3, 2, Caps(table_size=81))
    assert check_table_axioms(m2) == []
    assert m2 == reference_matrix_ring(z3, 2)
    assert m2.zero == 80 and len(m2.unit_indices) == 48  # |GL_2(F_3)|


def test_product_tables_match_reference():
    small = build_catalog(16).rings
    pairs = [(r1, r2) for i, r1 in enumerate(small) for r2 in small[i:]]
    rings = build_catalog(32).rings
    pairs += [(r1, r2) for r1 in rings for r2 in rings if r1.size * r2.size <= 64]
    z32 = make_zmod(32)
    for r1, r2 in pairs + [(z32, z32)]:
        wide = Caps(table_size=r1.size * r2.size)
        assert make_product(r1, r2, wide) == reference_make_product(r1, r2), (r1, r2)


def reference_make_quotient(ring, ideal) -> tuple:
    """The earlier construction, kept as the reference: (add, mul, zero,
    one, projection images), each entry looked up through the coset reps."""
    rep, reps = coset_reps(ring, ideal.members)
    qidx = {r: i for i, r in enumerate(reps)}

    def rows(table):
        return tuple(tuple(qidx[rep[table[a][b]]] for b in reps) for a in reps)

    return (rows(ring.add_table), rows(ring.mul_table), qidx[rep[ring.zero]],
            qidx[rep[ring.one]], tuple(qidx[rep[x]] for x in range(ring.size)))


def test_quotient_tables_match_reference():
    rings = build_catalog(32).rings + (make_zmod(1024, Caps(table_size=1024)),)
    for ring in rings:
        for ideal in proper_ideals(ring):
            q, pi = make_quotient(ring, ideal)
            assert (q.add_table, q.mul_table, q.zero, q.one, pi.images) == (
                reference_make_quotient(ring, ideal)), (ring, ideal)
            assert pi.source is ring and pi.target is q


def quotient_parents():
    """Constructed rings whose every proper quotient comes from its
    construction: Z/n, two-factor products over small rings (one over a
    table ring among them), a field and a matrix ring over one, each
    simple, and a quotient of a quotient."""
    wide = Caps(table_size=64)
    factors = [make_zmod(n) for n in (2, 3, 4, 6, 8, 9)] + [
        make_finite_field(2, 2), make_matrix_ring(make_zmod(2), 2)]
    z4 = make_zmod(4)
    factors.append(ring_from_tables(z4.add_table, z4.mul_table))
    return ([make_zmod(n) for n in range(2, 65)]
            + [make_product(r1, r2, wide) for r1 in factors for r2 in factors
               if r1.size * r2.size <= 64]
            + [make_finite_field(p, k, wide) for p, k in ((2, 1), (2, 3), (3, 2), (2, 6))]
            + [make_matrix_ring(f, 2, wide) for f in (make_zmod(2),)]
            + [parse_ring("matrix:2:zmod:3", Caps(table_size=81)),
               parse_ring("quot:zmod:36:gens=6", Caps())])


def description_or_error(ring) -> str:
    try:
        return format_ring(ring)
    except ValueError as err:
        return str(err)


def test_constructed_quotient_agrees_with_the_table_path():
    for ring in quotient_parents():
        # the same tables with no construction behind them
        raw = FiniteRing(ring.size, ring.add_table, ring.mul_table, ring.zero, ring.one)
        for ideal in proper_ideals(ring):
            members = ideal.members
            q, pi = make_quotient(ring, ideal)
            t, tpi = make_quotient(raw, Ideal(raw, members))
            assert isinstance(q.provenance, ConstructedQuotient), (ring, ideal)
            assert isinstance(t.provenance, Quotient) and not isinstance(
                t.provenance, ConstructedQuotient)
            assert pi.source is ring and pi.target is q
            reference = reference_make_quotient(ring, ideal)
            assert (q.add_table, q.mul_table, q.zero, q.one, pi.images) == reference, (ring, ideal)
            assert (t.add_table, t.mul_table, t.zero, t.one, tpi.images) == reference
            assert q.unit_indices == t.unit_indices, (ring, ideal)
            assert list(_ideal_lattice(q).items()) == list(_ideal_lattice(t).items()), (ring, ideal)
            for bar in (False, True):
                assert hom_poset(q, bar).covers == hom_poset(t, bar).covers, (ring, ideal)
            gens = ",".join(map(str, sorted(members)))
            reps = coset_reps(ring, members)[1]
            assert ring_label(q) == f"{ring_label(ring)}/({gens})"
            assert [element_label(q, i) for i in range(q.size)] == [
                element_label(ring, r) for r in reps]
            try:
                spec = f"quot:{format_ring(ring)}:gens={gens}"
            except ValueError as err:  # over the table ring
                spec = str(err)
            assert description_or_error(q) == spec, (ring, ideal)


def test_unit_indices_match_pairwise_definition():
    wide = Caps(table_size=256)
    rings = list(build_catalog(32).rings) + [
        parse_ring("matrix:2:zmod:3", wide), parse_ring("product:zmod:8:zmod:16", wide),
    ]
    for ring in rings:
        mul, one, n = ring.mul_table, ring.one, ring.size
        pairwise = frozenset(a for a in range(n)
                             if any(mul[a][b] == one == mul[b][a] for b in range(n)))
        assert ring.unit_indices == pairwise, ring


def test_addition_table_that_is_not_a_group_fails_at_once():
    # make_product's comprehension with its two loops swapped: the rows are
    # no longer group rows, and before the bound a subgroup grew forever
    r1, r2 = make_zmod(2), make_zmod(3)
    n2 = r2.size

    def rows(t1, t2):
        return tuple(tuple(v * n2 + x for x in row2 for v in row1)
                     for row1 in t1 for row2 in t2)

    ring = FiniteRing(6, rows(r1.add_table, r2.add_table), rows(r1.mul_table, r2.mul_table),
                      r1.zero * n2 + r2.zero, r1.one * n2 + r2.one)
    with pytest.raises(ValueError, match="not a group"):
        enumerate_ideals(ring)
    with pytest.raises(ValueError, match="not a group"):
        ideal_generated_by(ring, (1,))
