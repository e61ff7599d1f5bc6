"""Poset materialization, joins, functoriality, maximal elements, limits."""
import gc
import weakref

import pytest

from homposet.cli import parse_ring
from homposet.config import Caps
from homposet.errors import (
    ImproperIdeal,
    NotAProduct,
    NotAnIdeal,
    NotCommutative,
    RingMismatch,
)
from homposet.morphisms import enumerate_morphisms
from homposet.oracle import build_catalog
from homposet.pairs import TOP, HomPair, leq, meet
from homposet.poset import (
    has_greatest,
    hasse,
    hom_functor,
    hom_poset,
    is_local_morphism,
    join_ext,
    least_of_fiber,
    limit_exchange_check,
    max_elements,
    maximality_chain,
    product_decompose_poset,
    spec_correspondence,
)
from homposet.rings import (
    compose,
    enumerate_ideals,
    identity_morphism,
    jacobson_radical,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_zmod,
)


def proj(n, m):
    """The unique morphism Z/n -> Z/m (exists when m | n)."""
    (f,) = enumerate_morphisms(make_zmod(n), make_zmod(m))
    return f


def test_poset_z6_shape():
    poset = hom_poset(make_zmod(6))
    ideals = [sorted(p.ideal) for p in poset.elements]
    msets = [sorted(p.mset) for p in poset.elements]
    assert ideals == [[0], [0, 3], [0, 2, 4]]
    assert msets == [[1, 5], [1, 2, 4, 5], [1, 3, 5]]
    assert poset.least == poset.elements[0]
    assert len(poset) == 3
    bar = hom_poset(make_zmod(6), adjoin_top=True)
    assert len(bar) == 4
    assert list(bar)[-1] is TOP


def test_poset_z12_shape():
    poset = hom_poset(make_zmod(12))
    ideals = [sorted(p.ideal) for p in poset.elements]
    assert ideals == [
        [0], [0, 6], [0, 4, 8], [0, 3, 6, 9], [0, 2, 4, 6, 8, 10],
    ]


def test_matrix_ring_poset_is_singleton():
    m2 = make_matrix_ring(make_zmod(2), 2)
    poset = hom_poset(m2)
    assert len(poset.elements) == 1
    only = poset.elements[0]
    assert only.ideal == frozenset({0})
    assert only.mset == m2.unit_indices
    assert len(only.mset) == 6


def test_bar_poset_of_z4_x_z9_has_nine_elements():
    prod = make_product(make_zmod(4), make_zmod(9))
    bar = hom_poset(prod, adjoin_top=True)
    assert len(bar) == 9


def test_hasse_of_z6_bar():
    bar = hom_poset(make_zmod(6), adjoin_top=True)
    assert hasse(bar) == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_hasse_of_z12_plain():
    poset = hom_poset(make_zmod(12))
    assert hasse(poset) == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4))


def test_joins_in_z12_bar():
    bar = hom_poset(make_zmod(12), adjoin_top=True)
    els = hom_poset(make_zmod(12)).elements
    six, four, three, two = els[1], els[2], els[3], els[4]
    # (6) v (4): common upper bounds need the ideal generated by both, (2)
    assert join_ext(six, four, bar) == two
    # (4) v (3): 4 and 3 generate the improper ideal, no bound below TOP
    assert join_ext(four, three, bar) is TOP
    for p in els:
        assert join_ext(els[0], p, bar) == p
        assert join_ext(p, TOP, bar) is TOP
        assert join_ext(TOP, p, bar) is TOP


def test_join_is_least_upper_bound_everywhere():
    for n in (4, 6, 8, 12, 18, 24, 30):
        bar = hom_poset(make_zmod(n), adjoin_top=True)
        for p in bar:
            for q in bar:
                j = join_ext(p, q, bar)
                assert leq(p, j) and leq(q, j)
                for r in bar:
                    if leq(p, r) and leq(q, r):
                        assert leq(j, r)
                # meet and join pair into lattice absorption laws
                assert join_ext(meet(p, q), p, bar) == p or p is TOP
                assert meet(join_ext(p, q, bar), p) == p or p is TOP


# Reference order computations: the pairwise leq scans that join_ext,
# max_elements, has_greatest and hasse used before they read the ideal
# inclusion table.


def _ref_join(p, q, poset):
    if p is TOP or q is TOP:
        return TOP
    uppers = [x for x in poset.elements if leq(p, x) and leq(q, x)]
    if not uppers:
        return TOP
    least = [x for x in uppers if all(leq(x, y) for y in uppers)]
    assert len(least) == 1, f"common upper bounds of {p} and {q} have no minimum"
    return least[0]


def _ref_maximal(poset):
    els = poset.elements
    return tuple(
        p for i, p in enumerate(els)
        if not any(j != i and leq(p, q) for j, q in enumerate(els))
    )


def _ref_has_greatest(poset):
    mx = _ref_maximal(poset)
    return mx[0] if len(mx) == 1 else None


def _ref_hasse(poset):
    els = poset.elements
    n = len(els)
    lt = [[i != j and leq(els[i], els[j]) for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n)):
                edges.append((i, j))
    if poset.top_adjoined:
        maximal = [i for i in range(n) if not any(lt[i][j] for j in range(n))]
        edges.extend((i, n) for i in maximal)
    return tuple(sorted(edges))


def _table_check_rings():
    rings = list(build_catalog(16).rings)
    wide = Caps(table_size=81)
    for desc in ("zmod:64", "product:zmod:4:product:zmod:4:zmod:4", "matrix:2:zmod:3"):
        rings.append(parse_ring(desc, wide))
    return rings


def test_order_table_matches_leq_scans():
    for ring in _table_check_rings():
        plain = hom_poset(ring)
        bar = hom_poset(ring, adjoin_top=True)
        assert max_elements(plain) == _ref_maximal(plain)
        for poset in (plain, bar):
            assert hasse(poset) == _ref_hasse(poset)
            assert has_greatest(poset) == _ref_has_greatest(plain)
        for p in bar:
            for q in bar:
                assert join_ext(p, q, bar) == _ref_join(p, q, bar)


def test_completed_poset_shares_the_plain_elements():
    for n in (2, 6, 12):
        ring = make_zmod(n)
        assert hom_poset(ring, adjoin_top=True).elements is hom_poset(ring).elements


def test_completed_poset_reads_the_plain_order_table():
    # one strict-upset table per ring, whichever poset reads it first
    for bar_first in (False, True):
        ring = make_product(make_zmod(4), make_zmod(6))
        posets = [hom_poset(ring, adjoin_top=bar) for bar in (bar_first, not bar_first)]
        first = posets[0].above
        assert posets[1].above is first
        assert hom_poset(ring).__dict__["above"] is first


def test_join_rejects_pairs_over_another_ring():
    bar = hom_poset(make_zmod(12), adjoin_top=True)
    other = hom_poset(make_zmod(6)).elements[1]
    with pytest.raises(RingMismatch):
        join_ext(other, bar.elements[0], bar)
    with pytest.raises(RingMismatch):
        join_ext(bar.elements[0], other, bar)


def test_join_rejects_a_pair_that_is_not_an_element():
    # join_ext finds each argument by its ideal, then checks the element is
    # the argument: the same ideal with another M is no element
    bar = hom_poset(make_zmod(12), adjoin_top=True)
    p = bar.elements[1]
    impostor = HomPair._trusted(p.ring, p.ideal, p.mset | {0})
    with pytest.raises(KeyError):
        join_ext(impostor, bar.elements[0], bar)
    with pytest.raises(KeyError):
        join_ext(bar.elements[0], impostor, bar)
    # a table-equal pair over a distinct ring object is an element
    twin = bar.elements[2]
    twin = HomPair._trusted(make_zmod(12), twin.ideal, twin.mset)
    assert join_ext(p, twin, bar) == join_ext(p, bar.elements[2], bar)


def test_hasse_is_computed_once_per_poset():
    for bar in (False, True):
        pst = hom_poset(make_zmod(12), adjoin_top=bar)
        assert hasse(pst) is hasse(pst) is pst.covers


def test_max_elements_and_greatest():
    z12 = hom_poset(make_zmod(12))
    mx = max_elements(z12)
    assert {frozenset(p.ideal) for p in mx} == {
        frozenset({0, 3, 6, 9}), frozenset({0, 2, 4, 6, 8, 10}),
    }
    assert has_greatest(z12) is None
    z4 = hom_poset(make_zmod(4))
    top = has_greatest(z4)
    assert top is not None and top.ideal == frozenset({0, 2})
    with pytest.raises(ValueError):
        max_elements(hom_poset(make_zmod(12), adjoin_top=True))


def test_least_of_fiber():
    z12 = make_zmod(12)
    p = least_of_fiber(z12, {0, 4, 8})
    assert p is hom_poset(z12).elements[2]
    assert p.mset == frozenset({1, 3, 5, 7, 9, 11})
    for members in ({0, 4}, {0, 6, 12}, {0, 6, -6}):
        with pytest.raises(NotAnIdeal):
            least_of_fiber(z12, members)
    with pytest.raises(ImproperIdeal):
        least_of_fiber(z12, range(12))


def test_hom_functor_pullback_images():
    f = proj(12, 6)
    pm = hom_functor(f)
    # domain order: least, (3)-pair, (2)-pair over Z/6
    assert pm.images == (1, 3, 4)
    assert pm.apply(TOP) is TOP
    dom = hom_poset(make_zmod(6))
    for p in dom.elements:
        for q in dom.elements:
            if leq(p, q):
                assert leq(pm.apply(p), pm.apply(q))


def test_hom_functor_laws():
    f = proj(12, 6)
    g = proj(6, 2)
    gf = compose(g, f)
    pm_f, pm_g, pm_gf = hom_functor(f), hom_functor(g), hom_functor(gf)
    for p in hom_poset(make_zmod(2)).elements:
        assert pm_gf.apply(p) == pm_f.apply(pm_g.apply(p))
    ident = hom_functor(identity_morphism(make_zmod(12)))
    assert ident.images == tuple(range(len(hom_poset(make_zmod(12)).elements)))


def test_local_morphisms():
    assert is_local_morphism(proj(4, 2))
    assert not is_local_morphism(proj(6, 2))
    assert is_local_morphism(identity_morphism(make_zmod(9)))
    f2, f4 = make_finite_field(2, 1), make_finite_field(2, 2)
    (emb,) = enumerate_morphisms(f2, f4)
    assert is_local_morphism(emb)
    assert not is_local_morphism(proj(12, 3))


def test_product_poset_splits():
    z2, z3 = make_zmod(2), make_zmod(3)
    prod = make_product(z2, z3)
    iso = product_decompose_poset(prod)
    bar = hom_poset(prod, adjoin_top=True)
    assert len(iso.forward) == len(bar) == 4
    least = hom_poset(prod).least
    x1, x2 = iso.forward[least]
    assert x1 is hom_poset(z2).least
    assert x2 is hom_poset(z3).least
    assert iso.forward[TOP] == (TOP, TOP)
    for key, val in iso.forward.items():
        assert iso.backward[val] == key
    # each side is TOP or the factor poset's own element
    for side, factor in ((0, z2), (1, z3)):
        own = {id(p) for p in hom_poset(factor).elements}
        assert all(v[side] is TOP or id(v[side]) in own for v in iso.forward.values())


def test_product_poset_splits_z4_z9():
    prod = make_product(make_zmod(4), make_zmod(9))
    iso = product_decompose_poset(prod)
    sides1 = {v[0] for v in iso.forward.values()}
    sides2 = {v[1] for v in iso.forward.values()}
    assert len(sides1) == len(hom_poset(make_zmod(4)).elements) + 1
    assert len(sides2) == len(hom_poset(make_zmod(9)).elements) + 1


def test_product_decompose_rejects_non_products():
    with pytest.raises(NotAProduct):
        product_decompose_poset(make_zmod(6))


def test_maximality_chain_z6():
    rep = maximality_chain(make_zmod(6))
    assert rep.chain_holds
    kernels = lambda pairs: {frozenset(p.ideal) for p in pairs}
    expected = {frozenset({0, 2, 4}), frozenset({0, 3})}
    assert kernels(rep.division_pairs) == expected
    assert kernels(rep.completely_prime_pairs) == expected
    assert kernels(rep.maximal_pairs) == expected


def test_maximality_chain_z4_collapses_to_one():
    rep = maximality_chain(make_zmod(4))
    assert rep.chain_holds
    assert len(rep.division_pairs) == 1
    assert rep.division_pairs == rep.completely_prime_pairs == rep.maximal_pairs


def test_maximality_chain_matrix_ring():
    m2 = make_matrix_ring(make_zmod(2), 2)
    rep = maximality_chain(m2)
    # no morphisms to fields, the zero ideal is not completely prime, yet
    # the lone pair is maximal: both containments are strict here
    assert rep.division_pairs == ()
    assert rep.completely_prime_pairs == ()
    assert len(rep.maximal_pairs) == 1
    assert rep.chain_holds


def test_spec_correspondence_z12():
    table = spec_correspondence(make_zmod(12))
    assert [sorted(ideal.members) for ideal, _ in table] == [
        [0, 3, 6, 9], [0, 2, 4, 6, 8, 10],
    ]
    for ideal, pair in table:
        assert pair.ideal == ideal.members
        assert pair in max_elements(hom_poset(make_zmod(12)))


def test_spec_correspondence_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        spec_correspondence(make_matrix_ring(make_zmod(2), 2))


def test_limit_exchange_field_tower():
    f2 = make_finite_field(2, 1)
    f4 = make_finite_field(2, 2)
    f16 = make_finite_field(2, 4)
    (e1,) = enumerate_morphisms(f2, f4)
    e2 = enumerate_morphisms(f4, f16)[0]
    rep = limit_exchange_check([f2, f4, f16], [e1, e2])
    assert rep.ok
    assert rep.compatible_count == 1


def test_limit_exchange_quotient_chain():
    rep = limit_exchange_check(
        [make_zmod(12), make_zmod(6), make_zmod(2)],
        [proj(12, 6), proj(6, 2)],
    )
    assert rep.ok
    assert rep.compatible_count == 1


def test_poset_cache_and_rebuild():
    z6 = make_zmod(6)
    a = hom_poset(z6)
    assert hom_poset(z6) is a
    assert hom_poset(z6, adjoin_top=True).elements is a.elements
    # the memo lives on the ring, so a table-equal ring builds its own
    c = hom_poset(make_zmod(6))
    assert c is not a and c == a


def test_per_ring_state_dies_with_its_ring():
    ring = make_product(make_zmod(2), make_zmod(3))
    enumerate_ideals(ring)
    hom_poset(ring)
    hom_poset(ring, adjoin_top=True)
    enumerate_morphisms(ring, make_zmod(6))
    jacobson_radical(ring)
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None
    # a field is not cached either, even with a morphism memo on it
    field = make_finite_field(2, 2)
    enumerate_morphisms(field, make_product(field, field))
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None


def test_every_pair_realized_by_quotient_projection():
    # the projection to R/a realizes (a, M): dual route to the raw search
    from homposet.pairs import pair_of_morphism
    from homposet.rings import Ideal, make_quotient

    for n in (4, 6, 9, 12, 16, 30):
        ring = make_zmod(n)
        for p in hom_poset(ring).elements:
            _, pi = make_quotient(ring, Ideal(ring, p.ideal))
            assert pair_of_morphism(pi) == p
