"""Universal inverting morphisms, factorizations, and corestrictions.

Over Z the universal pair-inverting target is stated here rather than in
the package, which builds it only for finite rings: a zero-kernel pair
localizes to the subring of Q whose denominators avoid its prime set, and a
modular pair nZ to Z/n, where its multiplicative set is already inverted.
"""
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homposet.errors import CapExceeded, InvalidPair, NoFactorization, NotComposable
from homposet.localization import (
    canonical_factorization,
    epimorphic_corestriction,
    factor_through,
    universal_inverting_finite,
)
from homposet.morphisms import enumerate_morphisms, is_ring_epimorphism
from homposet.pairs import HomPair, leq, pair_of_morphism
from homposet.poset import hom_poset
from homposet.rings import (
    compose,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_zmod,
)
from homposet.zhom import (
    PrimeSet,
    ZHomElement,
    prime_divisors,
    z_modular,
    z_zero_kernel,
)

ALL_PRIMES = PrimeSet(True, frozenset())
NO_PRIMES = PrimeSet(False, frozenset())


@dataclass(frozen=True)
class RationalSubring:
    """The subring of Q whose reduced denominators avoid a prime set."""

    avoided: PrimeSet

    def contains(self, q: Fraction) -> bool:
        q = Fraction(q)
        return all(p not in self.avoided for p in prime_divisors(q.denominator))

    def label(self) -> str:
        ps = self.avoided
        if ps.cofinite:
            if not ps.members:
                return "Z"
            inverted = ",".join(f"1/{p}" for p in sorted(ps.members))
            return f"Z[{inverted}]"
        if not ps.members:
            return "Q"
        kept = ",".join(map(str, sorted(ps.members)))
        return f"Z[1/p for p outside {{{kept}}}]"


def localize_integer_pair(x: ZHomElement):
    """The universal pair-inverting target of a pair over Z."""
    if x.is_modular:
        return make_zmod(x.modulus)
    return RationalSubring(x.primes)


def is_unit(r, q) -> bool:
    """Whether q is invertible in the rational subring r."""
    q = Fraction(q)
    if q == 0:
        return False
    return r.contains(q) and all(p not in r.avoided for p in prime_divisors(q.numerator))


def morphism(n, m):
    (f,) = enumerate_morphisms(make_zmod(n), make_zmod(m))
    return f


def test_universal_inverting_is_projection():
    z12 = make_zmod(12)
    pair = hom_poset(z12).elements[2]  # ideal {0,4,8}
    loc = universal_inverting_finite(z12, pair)
    assert loc.ring.size == 4
    assert loc.canonical.kernel_members == pair.ideal
    assert loc.canonical.unit_preimage_members == pair.mset
    assert pair_of_morphism(loc.canonical) == pair


def test_universal_inverting_every_pair():
    for n in (4, 6, 9, 12, 24, 30):
        ring = make_zmod(n)
        for pair in hom_poset(ring).elements:
            loc = universal_inverting_finite(ring, pair)
            assert pair_of_morphism(loc.canonical) == pair
            assert loc.canonical.is_surjective


def test_universal_inverting_rejects_bad_pairs():
    z6 = make_zmod(6)
    bogus = HomPair.__new__(HomPair)
    object.__setattr__(bogus, "ring", z6)
    object.__setattr__(bogus, "ideal", frozenset({0}))
    object.__setattr__(bogus, "mset", frozenset({1, 2, 4, 5}))
    with pytest.raises(InvalidPair) as err:
        universal_inverting_finite(z6, bogus)
    assert "regular_in_quotient" in str(err.value)


def test_universal_property_all_receivers():
    # every morphism whose pair dominates the localized pair factors through
    # the canonical projection, uniquely
    z12 = make_zmod(12)
    pair = hom_poset(z12).elements[1]  # ideal {0,6}
    loc = universal_inverting_finite(z12, pair)
    for tgt in (make_zmod(2), make_zmod(3), make_zmod(6), make_zmod(4)):
        for f in enumerate_morphisms(z12, tgt):
            if leq(pair, pair_of_morphism(f)):
                g = factor_through(loc.canonical, f)
                assert compose(g, loc.canonical) == f
            else:
                with pytest.raises(NoFactorization):
                    factor_through(loc.canonical, f)


def test_factor_through_strict_inequality():
    pi4 = morphism(12, 4)
    pi2 = morphism(12, 2)
    g = factor_through(pi4, pi2)
    assert g == morphism(4, 2)
    with pytest.raises(NoFactorization):
        factor_through(pi2, pi4)  # pair of pi2 is strictly above
    with pytest.raises(NotComposable):
        factor_through(morphism(6, 2), pi2)


def test_factor_through_needs_a_surjection():
    # the embedding GF(2) -> GF(4) lies below itself, and the identity of
    # GF(4) factors it, but factor_through asks psi to be onto
    f2, f4 = make_finite_field(2, 1), make_finite_field(2, 2)
    (emb,) = enumerate_morphisms(f2, f4)
    with pytest.raises(NoFactorization):
        factor_through(emb, emb)


def test_localize_integer_modular():
    ring = localize_integer_pair(z_modular(12))
    assert ring == make_zmod(12)
    with pytest.raises(CapExceeded):
        localize_integer_pair(z_modular(10**6))


def test_localize_integer_zero_kernel():
    q = localize_integer_pair(z_zero_kernel(NO_PRIMES))
    assert isinstance(q, RationalSubring)
    assert q.label() == "Q"
    assert q.contains(Fraction(3, 7)) and is_unit(q, Fraction(3, 7))
    # the least pair, that of the identity, avoids every prime
    z = localize_integer_pair(z_zero_kernel(ALL_PRIMES))
    assert z.label() == "Z"
    assert z.contains(5) and not z.contains(Fraction(1, 2))
    assert is_unit(z, Fraction(-1)) and not is_unit(z, 5)


def test_rational_subring_membership():
    # invert only 5: denominators are powers of 5
    r = localize_integer_pair(z_zero_kernel(PrimeSet(True, {5})))
    assert r.label() == "Z[1/5]"
    assert r.contains(Fraction(7, 25))
    assert not r.contains(Fraction(1, 10))
    assert is_unit(r, Fraction(5, 1)) and is_unit(r, Fraction(1, 5))
    assert not is_unit(r, Fraction(7, 5))
    avoided = localize_integer_pair(z_zero_kernel(PrimeSet(False, {2, 3})))
    assert avoided.label() == "Z[1/p for p outside {2,3}]"
    assert avoided.contains(Fraction(1, 35))
    assert not avoided.contains(Fraction(1, 6))
    assert is_unit(avoided, Fraction(7, 55)) and not is_unit(avoided, Fraction(2, 7))
    assert not is_unit(avoided, 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(-400, 400), st.integers(1, 400))
def test_rational_subring_unit_means_invertible_inside(num, den):
    r = RationalSubring(PrimeSet(True, {2, 7}))
    q = Fraction(num, den)
    if is_unit(r, q):
        assert r.contains(q) and r.contains(1 / q)
    elif q != 0 and r.contains(q):
        assert not r.contains(1 / q) or not is_unit(r, 1 / q)


def test_canonical_factorization_stages():
    z12, z4 = make_zmod(12), make_zmod(4)
    f = morphism(12, 4)
    fact = canonical_factorization(f)
    assert fact.quotient == z4
    assert fact.invert.source == fact.invert.target == fact.quotient
    assert fact.image_carrier == tuple(range(4))  # surjective: image is all of Z/4
    assert fact.composite() == f
    assert fact.start.is_surjective
    assert fact.collapse.is_surjective
    assert fact.embed.is_injective


def test_canonical_factorization_non_surjective():
    f2, f4 = make_finite_field(2, 1), make_finite_field(2, 2)
    (emb,) = enumerate_morphisms(f2, f4)
    fact = canonical_factorization(emb)
    assert fact.quotient == f2  # kernel is zero
    assert len(fact.image_carrier) == 2
    assert fact.composite() == emb
    assert fact.collapse.is_surjective and is_ring_epimorphism(fact.collapse)
    assert not is_ring_epimorphism(emb)  # the embed stage is where epi fails


def test_canonical_factorization_mixed():
    # kernel and image both proper: Z/12 -> Z/6 composed with Z/6 -> Z/6
    prod = make_product(make_zmod(2), make_zmod(3))
    fs = enumerate_morphisms(make_zmod(12), prod)
    assert fs
    for f in fs:
        fact = canonical_factorization(f)
        assert fact.composite() == f


def test_corestriction_preserves_pair():
    f2, f4 = make_finite_field(2, 1), make_finite_field(2, 2)
    (emb,) = enumerate_morphisms(f2, f4)
    co = epimorphic_corestriction(emb)
    assert is_ring_epimorphism(co.corestriction)
    assert co.corestriction.is_surjective
    assert co.corestriction.kernel_members == emb.kernel_members
    assert co.corestriction.unit_preimage_members == emb.unit_preimage_members
    assert pair_of_morphism(co.corestriction) == pair_of_morphism(emb)


def test_corestriction_on_quotient_is_whole_target():
    f = morphism(12, 3)
    co = epimorphic_corestriction(f)
    assert co.image_carrier == (0, 1, 2)
    assert co.corestriction.images == f.images


def test_corestriction_matrix_unit_scalars():
    # scalar embedding F4 -> M2(F2) retargets onto a field copy inside
    f4 = make_finite_field(2, 2)
    m2 = make_matrix_ring(make_zmod(2), 2)
    f = enumerate_morphisms(f4, m2)[0]
    co = epimorphic_corestriction(f)
    assert co.image_ring.size == 4
    assert is_ring_epimorphism(co.corestriction)
    assert co.corestriction.is_injective and co.corestriction.is_surjective


def test_factorization_localizes_pair_not_more():
    # the invert stage adds nothing over a finite ring: the projection
    # already inverts the whole multiplicative component
    for n in (6, 8, 12):
        ring = make_zmod(n)
        for pair in hom_poset(ring).elements:
            loc = universal_inverting_finite(ring, pair)
            fact = canonical_factorization(loc.canonical)
            assert fact.invert.images == tuple(range(fact.quotient.size))
            assert fact.image_carrier == tuple(range(loc.ring.size))
