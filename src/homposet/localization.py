"""Universal pair-inverting morphisms out of finite rings.

For a realized pair over a finite ring the universal morphism killing the
ideal and inverting the multiplicative set is the quotient projection
itself: classes of the set are regular in the quotient, and regular
elements of a finite ring are already invertible.

factor_through and canonical_factorization provide the universal-property
side.  They read their answers off quotients and images, and neither
search nor check: the oracle claims universal-contract, universal-factor,
corestriction-epi and factor-stages check their results against exhaustive
morphism search and the tensor epimorphism test, which run only there.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPair, NoFactorization, NotComposable
from .pairs import HomPair, validate_pair
from .rings import (
    FiniteRing,
    Ideal,
    RingMorphism,
    identity_morphism,
    compose,
    make_quotient,
    ring_label,
    subring,
)


@dataclass(frozen=True)
class FiniteLocalization:
    """Universal pair-inverting morphism out of a finite ring."""

    ring: FiniteRing
    canonical: RingMorphism


def universal_inverting_finite(ring: FiniteRing, pair: HomPair) -> FiniteLocalization:
    """The universal morphism for a realized pair over a finite ring.

    Raises InvalidPair when the pair fails the realizability criterion.
    The returned morphism is the quotient projection; the oracle claim
    universal-contract checks that its own pair is exactly the input.
    """
    report = validate_pair(ring, pair.ideal, pair.mset)
    if not report.ok:
        keys = ", ".join(c.key for c in report.failed())
        raise InvalidPair(f"pair fails: {keys}")
    return FiniteLocalization(*make_quotient(ring, Ideal._trusted(ring, pair.ideal)))


# ---------------------------------------------------------------------------
# factoring through a localization


def factor_through(psi: RingMorphism, f: RingMorphism) -> RingMorphism:
    """The morphism g with g o psi = f, when psi's pair lies below f's.

    psi must be surjective, as a quotient projection is.  Then g is forced
    on images, g(psi(x)) = f(x), and it is well defined because ker psi lies
    in ker f.  It preserves + and x because psi is onto and f preserves
    them, so it is built without a check and it is the only factorization.
    Raises NoFactorization when the pair condition fails or psi is not
    surjective.  The oracle claim universal-factor checks g against
    exhaustive search.
    """
    if psi.source != f.source:
        raise NotComposable("psi and f must share their source")
    if not (psi.kernel_members <= f.kernel_members
            and psi.unit_preimage_members <= f.unit_preimage_members):
        raise NoFactorization("pair of psi does not lie below pair of f")
    if not psi.is_surjective:
        raise NoFactorization(f"psi does not map onto {ring_label(psi.target)}")
    images = [None] * psi.target.size
    for x, y in zip(psi.images, f.images):
        images[x] = y
    return RingMorphism._trusted(psi.target, f.target, images)


@dataclass(frozen=True)
class Factorization:
    """Stages of a morphism between finite rings.

      start     quotient projection onto source/kernel
      invert    universal inverting step; the identity here, because the
                multiplicative component is already invertible mod the kernel
      collapse  onto the image subring; a surjection, hence an epimorphism
      embed     inclusion of the image into the target

    The composite of the stages equals the original morphism (the oracle
    claim factor-stages checks it).
    """

    morphism: RingMorphism
    quotient: FiniteRing
    start: RingMorphism
    invert: RingMorphism
    image_ring: FiniteRing
    image_carrier: tuple
    collapse: RingMorphism
    embed: RingMorphism

    def composite(self) -> RingMorphism:
        return compose(self.embed, compose(self.collapse, compose(self.invert, self.start)))


def canonical_factorization(f: RingMorphism) -> Factorization:
    """Split f through its pair's localization and its image subring.

    The kernel is an ideal, so it is not checked again.  collapse is the
    corestriction of f onto its image factored through the projection: it
    sends the class of x to f(x), well defined because the kernel is f's.
    embed is the inclusion of a subring.  Both are morphisms because f is
    and are built without a check.  The oracle claim factor-stages runs the
    check.
    """
    quotient, start = make_quotient(f.source, Ideal._trusted(f.source, f.kernel_members))
    co = epimorphic_corestriction(f)
    embed = RingMorphism._trusted(co.image_ring, f.target, co.image_carrier)
    return Factorization(f, quotient, start, identity_morphism(quotient), co.image_ring,
                         co.image_carrier, factor_through(start, co.corestriction), embed)


@dataclass(frozen=True)
class Corestriction:
    """A morphism retargeted onto its image subring."""

    morphism: RingMorphism
    image_ring: FiniteRing
    image_carrier: tuple
    corestriction: RingMorphism


def epimorphic_corestriction(f: RingMorphism) -> Corestriction:
    """Retarget f onto its image; the result is a surjection, hence epi.

    The pair is unchanged: over finite rings an element of the image that
    is invertible in the big ring is already invertible in the subring, so
    unit preimages agree, and kernels agree trivially.  The corestriction
    is a morphism because f is, so it is built without a check.  Nothing
    here runs the morphism check or the tensor epimorphism test: the oracle
    claim corestriction-epi does.
    """
    image_ring, carrier = subring(f.target, f.image_members)
    local = {x: i for i, x in enumerate(carrier)}
    g = RingMorphism._trusted(f.source, image_ring, [local[y] for y in f.images])
    return Corestriction(f, image_ring, carrier, g)
