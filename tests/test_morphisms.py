"""Morphism search, epimorphism obstruction, corners, denominators."""
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from homposet import morphisms
from homposet.config import Caps
from homposet.errors import CapExceeded, NotAProduct, NotComposable
from homposet.morphisms import (
    _chain,
    decompose_product_morphism,
    denominator_analysis,
    direct_limit_chain,
    enumerate_morphisms,
    epi_obstruction_invariants,
    is_ring_epimorphism,
    rebuild_product_morphism,
)
from homposet.oracle import build_catalog
from homposet.rings import (
    Product,
    RingMorphism,
    check_table_axioms,
    compose,
    ideal_generated_by,
    identity_morphism,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    ring_from_tables,
    ring_label,
    subring,
)


def brute_force_morphisms(src, tgt):
    """Reference enumeration: try every image tuple with 0 and 1 pinned."""
    free = [i for i in range(src.size) if i not in (src.zero, src.one)]
    found = []
    for assignment in itertools.product(range(tgt.size), repeat=len(free)):
        images = [None] * src.size
        images[src.zero] = tgt.zero
        images[src.one] = tgt.one
        for i, y in zip(free, assignment):
            images[i] = y
        ok = True
        for a in range(src.size):
            for b in range(src.size):
                if images[src.add_table[a][b]] != tgt.add_table[images[a]][images[b]]:
                    ok = False
                    break
                if images[src.mul_table[a][b]] != tgt.mul_table[images[a]][images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(images))
    return sorted(found)


def reference_propagate(src, tgt, known, fresh):
    """Close a partial assignment under +, x and negation, or None on a
    contradiction: the earlier search's consistency engine."""
    sadd, smul, sneg = src.add_table, src.mul_table, src.neg_table
    tadd, tmul, tneg = tgt.add_table, tgt.mul_table, tgt.neg_table
    sorders, torders = src.additive_orders, tgt.additive_orders
    while fresh:
        a = fresh.pop()
        fa = known[a]
        na, fna = sneg[a], tneg[fa]
        prior = known.get(na)
        if prior is None:
            known[na] = fna
            fresh.append(na)
        elif prior != fna:
            return None
        for b, fb in list(known.items()):
            for s, t in (
                (sadd[a][b], tadd[fa][fb]),
                (smul[a][b], tmul[fa][fb]),
                (smul[b][a], tmul[fb][fa]),
            ):
                prior = known.get(s)
                if prior is None:
                    if torders[t] != 1 and sorders[s] % torders[t] != 0:
                        return None
                    known[s] = t
                    fresh.append(s)
                elif prior != t:
                    return None
    return known


def reference_search(src, tgt):
    """The earlier search, kept as the reference: assign each generator in
    turn and propagate the assignment through a dict; sorted image tuples."""
    if src.additive_orders[src.one] % tgt.additive_orders[tgt.one] != 0:
        return []
    base = reference_propagate(src, tgt, {src.zero: tgt.zero, src.one: tgt.one},
                               [src.zero, src.one])
    if base is None:
        return []
    gens = src.generators
    sorders, torders = src.additive_orders, tgt.additive_orders
    found = []

    def assign(level, known):
        if level == len(gens):
            found.append(tuple(known[i] for i in range(src.size)))
            return
        g = gens[level]
        if g in known:
            assign(level + 1, known)
            return
        for y in range(tgt.size):
            if sorders[g] % torders[y] != 0:
                continue
            trial = dict(known)
            trial[g] = y
            if reference_propagate(src, tgt, trial, [g]) is not None:
                assign(level + 1, trial)

    assign(0, base)
    return sorted(found)


def relabelled_m2(seed):
    """M2(Z/2) on a seeded permutation of its carrier, from raw tables."""
    m2 = make_matrix_ring(make_zmod(2), 2)
    perm = list(range(m2.size))
    random.Random(seed).shuffle(perm)
    add = [[0] * m2.size for _ in range(m2.size)]
    mul = [[0] * m2.size for _ in range(m2.size)]
    for a in range(m2.size):
        for b in range(m2.size):
            add[perm[a]][perm[b]] = perm[m2.add_table[a][b]]
            mul[perm[a]][perm[b]] = perm[m2.mul_table[a][b]]
    return ring_from_tables(add, mul)


def has_noncommuting_step(ring):
    """Whether the search derives some f(a*b) with a*b != b*a."""
    mul = ring.mul_table
    return any(
        a is not None and mul[a][b] != mul[b][a]
        for _, steps, _, _, _ in _chain(ring)
        for a, b, _, _ in steps
    )


def test_search_matches_reference_on_relabelled_matrix_rings():
    m2 = make_matrix_ring(make_zmod(2), 2)
    relabelled = [relabelled_m2(seed) for seed in range(20)]
    # a search that evaluates f(b)*f(a) for f(a*b) passes on every ring
    # without such a step, so the seeds must include some
    assert sum(has_noncommuting_step(p) for p in relabelled) >= 5
    for p in relabelled:
        for src, tgt in ((p, m2), (m2, p), (p, p)):
            ours = [f.images for f in enumerate_morphisms(src, tgt)]
            assert ours == reference_search(src, tgt), (src, tgt)
            assert len(ours) == 6  # the inner automorphisms of M2(Z/2)


def test_search_matches_reference_on_catalog():
    rings = build_catalog(16).rings
    for src in rings:
        for tgt in rings:
            ours = [f.images for f in enumerate_morphisms(src, tgt)]
            assert ours == reference_search(src, tgt), (src, tgt)


@pytest.mark.parametrize(
    "src,tgt",
    [
        ("z2", "z2"), ("z2", "z3"), ("z2", "z4"), ("z4", "z2"), ("z6", "z2"),
        ("z6", "z3"), ("z6", "z6"), ("z4", "z4"), ("f4", "f4"), ("f4", "z4"),
        ("z2", "f4"), ("p22", "z2"), ("p22", "p22"), ("z6", "p23"), ("p23", "z6"),
    ],
)
def test_search_matches_brute_force(src, tgt):
    rings = {
        "z2": make_zmod(2), "z3": make_zmod(3), "z4": make_zmod(4),
        "z6": make_zmod(6), "f4": make_finite_field(2, 2),
        "p22": make_product(make_zmod(2), make_zmod(2)),
        "p23": make_product(make_zmod(2), make_zmod(3)),
    }
    s, t = rings[src], rings[tgt]
    ours = [f.images for f in enumerate_morphisms(s, t)]
    assert ours == brute_force_morphisms(s, t)


def test_morphism_counts_frozen():
    z6, z2, z3 = make_zmod(6), make_zmod(2), make_zmod(3)
    f4 = make_finite_field(2, 2)
    m2 = make_matrix_ring(z2, 2)
    assert len(enumerate_morphisms(z6, z2)) == 1
    assert len(enumerate_morphisms(z2, z3)) == 0
    assert len(enumerate_morphisms(z3, z2)) == 0
    ms = enumerate_morphisms(f4, m2)
    assert len(ms) == 2
    assert all(m.is_injective for m in ms)
    # independent count: images of the generator solve A^2 + A + I = 0
    count = sum(
        1 for i in range(16)
        if m2.add_table[m2.add_table[m2.mul_table[i][i]][i]][m2.one] == m2.zero
    )
    assert count == 2


def test_morphism_search_is_sorted_and_cached():
    z6 = make_zmod(6)
    a = enumerate_morphisms(z6, z6)
    assert list(a) == sorted(a, key=lambda f: f.images)
    assert enumerate_morphisms(z6, z6) is a


@pytest.mark.parametrize("quotient_first", [False, True])
def test_morphisms_map_into_the_ring_passed(quotient_first):
    # Z/8/(4) has the tables of Z/4, so both share one memo entry on Z/8;
    # each call still gets maps into its own target object
    z8, z4 = make_zmod(8), make_zmod(4)
    q, _ = make_quotient(z8, ideal_generated_by(z8, (4,)))
    assert q == z4 and q is not z4
    order = (q, z4) if quotient_first else (z4, q)
    found = [enumerate_morphisms(z8, tgt) for tgt in order]
    for tgt, maps in zip(order, found):
        assert len(maps) == 1 and maps[0].target is tgt
        # the memo's own maps come back again; the other target's are rebuilt
        assert (enumerate_morphisms(z8, tgt) is maps) == (tgt is order[0])
    labels = {ring_label(maps[0].target) for maps in found}
    assert labels == {"Z/8/(0,4)", "Z/4"}


def test_characteristic_cut_skips_the_search(monkeypatch):
    # f(1) = 1 needs char S | char R, so Z/4 -> Z/3 is refuted before the
    # search builds its chain of subrings
    calls = []
    chain = morphisms._chain
    monkeypatch.setattr(morphisms, "_chain", lambda src: calls.append(src) or chain(src))
    assert enumerate_morphisms(make_zmod(4), make_zmod(3)) == ()
    assert calls == []
    assert len(enumerate_morphisms(make_zmod(4), make_zmod(2))) == 1
    assert len(calls) == 1


def test_morphism_cap():
    with pytest.raises(CapExceeded):
        enumerate_morphisms(make_zmod(33), make_zmod(3))
    enumerate_morphisms(make_zmod(33), make_zmod(3), Caps(morphism_search=33))


def test_crt_isomorphism():
    p = make_product(make_zmod(2), make_zmod(3))
    ms = enumerate_morphisms(p, make_zmod(6))
    assert len(ms) == 1
    assert ms[0].images == (0, 4, 2, 3, 1, 5)
    assert ms[0].is_injective and ms[0].is_surjective


def test_epi_obstruction_field_extension():
    z2, f4 = make_zmod(2), make_finite_field(2, 2)
    inc = enumerate_morphisms(z2, f4)[0]
    inv = epi_obstruction_invariants(inc)
    assert inv == (2, 2)
    assert not is_ring_epimorphism(inc)
    # order of the obstruction group: |F4 (x) F4/F2| = 4
    order = 1
    for d in inv:
        order *= d
    assert order == 4


def test_surjections_are_epimorphisms():
    z6 = make_zmod(6)
    q, pi = make_quotient(z6, ideal_generated_by(z6, (2,)))
    assert is_ring_epimorphism(pi)
    assert epi_obstruction_invariants(pi) == ()
    assert is_ring_epimorphism(identity_morphism(z6))


def test_epimorphisms_off_surjections_agree_with_the_catalog():
    # a non-surjective epimorphism f: R -> S needs R or S noncommutative, and
    # no two distinct morphisms out of S may agree on the image of f
    catalog = build_catalog(16)
    tested = 0
    for src in catalog.rings:
        for tgt in catalog.rings:
            for f in enumerate_morphisms(src, tgt):
                if f.is_surjective:
                    continue
                tested += 1
                epi = is_ring_epimorphism(f)
                if src.is_commutative and tgt.is_commutative:
                    assert not epi, f
                if epi:
                    image = sorted(f.image_members)
                    for t in catalog.rings:
                        on_image = [tuple(g.images[y] for y in image)
                                    for g in enumerate_morphisms(tgt, t)]
                        assert len(set(on_image)) == len(on_image), (f, t)
    assert tested == 444


def test_upper_triangular_inclusion_is_epi():
    # T2(F2) in M2(F2): the matrices with digit 2 (row 1, column 0) zero
    m2 = make_matrix_ring(make_zmod(2), 2)
    t2, carrier = subring(m2, [i for i in range(m2.size) if (i >> 2) & 1 == 0])
    assert t2.size == 8
    inc = RingMorphism(t2, m2, carrier)
    assert not inc.is_surjective and is_ring_epimorphism(inc)
    outs = [g for t in build_catalog(16).rings for g in enumerate_morphisms(m2, t)]
    assert len(outs) == 6
    on_image = {(g.target, tuple(g.images[y] for y in carrier)) for g in outs}
    assert len(on_image) == 6


def test_epi_obstruction_larger_extension():
    f2, f16 = make_finite_field(2, 1), make_finite_field(2, 4)
    inc = enumerate_morphisms(f2, f16)[0]
    inv = epi_obstruction_invariants(inc)
    # F16 (x)_F2 (F16/F2): dimension 4 * 3 over F2
    assert inv == (2,) * 12
    f4 = make_finite_field(2, 2)
    mid = enumerate_morphisms(f4, f16)[0]
    assert not is_ring_epimorphism(mid)


def test_product_decomposition_crt():
    p = make_product(make_zmod(2), make_zmod(3))
    z6 = make_zmod(6)
    f = enumerate_morphisms(p, z6)[0]
    dec = decompose_product_morphism(f)
    assert dec.idempotent == 3
    assert dec.members1 == (0, 3)
    assert dec.members2 == (0, 2, 4)
    assert rebuild_product_morphism(dec) == f
    assert dec.to_corner1.is_injective and dec.to_corner2.is_injective


def test_product_decomposition_kills_one_factor():
    p = make_product(make_zmod(2), make_zmod(3))
    z3 = make_zmod(3)
    f = enumerate_morphisms(p, z3)[0]  # kills the first factor
    dec = decompose_product_morphism(f)
    assert {dec.corner1.size, dec.corner2.size} == {1, 3}
    assert rebuild_product_morphism(dec) == f


def test_every_corner_is_a_ring_with_identity_e():
    # the split builds e.S.e unchecked; each one must satisfy the ring
    # axioms with e as its 1, which the rebuild comparison alone misses
    catalog = build_catalog(16)
    bad = []
    for prod in catalog.rings:
        if not isinstance(prod.provenance, Product):
            continue
        for s in catalog.rings:
            for f in enumerate_morphisms(prod, s):
                dec = decompose_product_morphism(f)
                e = dec.idempotent
                for ring, carrier, idem in ((dec.corner1, dec.members1, e),
                                            (dec.corner2, dec.members2, s.sub(s.one, e))):
                    problems = check_table_axioms(ring)
                    if problems or carrier[ring.one] != idem:
                        bad.append((f, idem, problems))
    assert bad == []


def test_decompose_requires_product_source():
    z6 = make_zmod(6)
    with pytest.raises(NotAProduct):
        decompose_product_morphism(identity_morphism(z6))


def test_direct_limit_chain_composites():
    f2 = make_finite_field(2, 1)
    f4 = make_finite_field(2, 2)
    f16 = make_finite_field(2, 4)
    i1 = enumerate_morphisms(f2, f4)[0]
    i2 = enumerate_morphisms(f4, f16)[0]
    last, comps = direct_limit_chain([f2, f4, f16], [i1, i2])
    assert last == f16
    assert comps[2] == identity_morphism(f16)
    assert comps[1] == i2
    assert comps[0] == compose(i2, i1)
    with pytest.raises(NotComposable):
        direct_limit_chain([f2, f4], [i2])


def test_denominator_analysis_z6():
    z6 = make_zmod(6)
    rep = denominator_analysis(z6, frozenset({1, 3}))
    assert rep.is_left_ore and rep.is_left_denominator
    assert rep.ass_members == frozenset({0, 2, 4})
    assert rep.fraction_ring.size == 2
    assert rep.fraction_map.images == (0, 1, 0, 1, 0, 1)


def test_denominator_analysis_units_are_trivial():
    z6 = make_zmod(6)
    rep = denominator_analysis(z6, z6.unit_indices)
    assert rep.is_left_denominator
    assert rep.ass_members == frozenset({0})
    assert rep.fraction_ring.size == 6


def test_denominator_analysis_zero_in_t():
    z6 = make_zmod(6)
    rep = denominator_analysis(z6, frozenset({0, 1}))
    assert rep.ass_members == frozenset(range(6))
    assert rep.fraction_ring is None


def test_denominator_analysis_refuses_members_outside_the_ring():
    z6 = make_zmod(6)
    for bad in (-1, z6.size):  # -1 would be read as element 5
        with pytest.raises(ValueError, match="out of range"):
            denominator_analysis(z6, {1, bad})


def test_denominator_noncommutative():
    m2 = make_matrix_ring(make_zmod(2), 2)
    rep = denominator_analysis(m2, m2.unit_indices)
    assert rep.is_left_ore and rep.is_left_denominator
    assert rep.fraction_ring.size == 16


@settings(deadline=None)
@given(st.integers(2, 20), st.integers(2, 20))
def test_zmod_morphism_existence_rule(n, m):
    # a morphism Z/n -> Z/m exists iff m | n, and then it is unique
    ms = enumerate_morphisms(make_zmod(n), make_zmod(m))
    assert len(ms) == (1 if n % m == 0 else 0)
    if ms:
        assert ms[0].images == tuple(i % m for i in range(n))


@settings(deadline=None)
@given(st.integers(2, 16), st.integers(2, 16))
def test_pairs_of_morphisms_are_disjoint_components(n, m):
    for f in enumerate_morphisms(make_zmod(n), make_zmod(m)):
        assert not (f.kernel_members & f.unit_preimage_members)
        assert f.images[0] == 0 and f.images[1] == 1


def test_corner_memo_lives_on_the_target_and_dies_with_it():
    prod = make_product(make_zmod(2), make_zmod(3))
    target = make_zmod(6)
    f = enumerate_morphisms(prod, target)[0]
    dec = decompose_product_morphism(f)
    again = decompose_product_morphism(f)
    assert again.corner1 is dec.corner1 and again.corner2 is dec.corner2
    refs = [weakref.ref(x) for x in (target, dec.corner1, dec.corner2)]
    # the search memo on prod is keyed by the target, so both must go
    del prod, target, f, dec, again
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
