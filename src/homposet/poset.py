"""The poset of realized pairs over a finite ring, and its structure maps.

Over a finite ring every element that is regular mod an ideal is already a
unit mod that ideal, so each realized pair is (a, preimage of units of R/a)
and the poset is in order-preserving bijection with the proper two-sided
ideals.  Units lift along R -> R/a when R is finite, so that preimage is
U(R) + a.  hom_poset materializes the poset that way: one pair per proper
ideal, with its M from rings._ideal_lattice, the one place M is computed,
and no quotient ring built.  Every other pair over the ring (a fiber, a
pullback, a factor of a product, a complete prime) is looked up in that
poset by its ideal.

The order is inclusion of ideals, read from one table per poset (see
HomPoset.above).  join_ext adjoins TOP to make the bounded lattice: the join
of two pairs is the pair of the ideal sum, or TOP when that sum is the whole
ring.  Maxima and Hasse covers come from the same table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ImproperIdeal, NotCommutative, RingMismatch
from .morphisms import direct_limit_chain
from .pairs import TOP, HomPair, leq
from .rings import (
    FiniteRing,
    Ideal,
    RingMorphism,
    _ideal_lattice,
    is_completely_prime,
    per_ring,
    product_factors,
    proper_ideals,
    ring_label,
)


@dataclass(frozen=True)
class HomPoset:
    """All realized pairs over one ring, in a fixed canonical order."""

    ring: FiniteRing
    elements: tuple
    top_adjoined: bool = False

    def __len__(self):
        return len(self.elements) + (1 if self.top_adjoined else 0)

    def __iter__(self):
        yield from self.elements
        if self.top_adjoined:
            yield TOP

    @cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def ideal_index(self) -> dict:
        """Each element's index keyed by its ideal's member set, which
        determines the element; a frozenset caches its own hash."""
        return {p.ideal: i for i, p in enumerate(self.elements)}

    @cached_property
    def above(self) -> tuple:
        """Strict upsets as bitmasks: bit j of above[i] is set when the ideal
        of element i lies strictly inside the ideal of element j.

        Ideal inclusion is the whole order because M = U(R)+I grows with I.
        A strictly larger ideal sorts later, so only bits j > i can be set,
        and TOP (index len(elements) when adjoined) is left out.  So the
        completion, which _posets builds on the plain poset's elements,
        reads the plain poset's table.
        """
        if self.top_adjoined:
            return hom_poset(self.ring).above
        ideals = [p.ideal for p in self.elements]
        return tuple(
            sum(1 << j for j in range(i + 1, len(ideals)) if ideal < ideals[j])
            for i, ideal in enumerate(ideals)
        )

    @cached_property
    def covers(self) -> tuple:
        """Cover relations as index pairs (i, j) with element i covered by j.

        The covers of i are its strict upset minus everything strictly
        above some member of it.  TOP, when adjoined, takes index
        len(elements) and covers the maximal pairs.  Edges come out sorted.
        """
        above = self.above
        top = 1 << len(above) if self.top_adjoined else 0
        edges = []
        for i, up in enumerate(above):
            beyond = 0
            for j in _bits(up):
                beyond |= above[j]
            # an empty upset means i is maximal, covered by TOP alone if adjoined
            edges.extend((i, j) for j in _bits(up & ~beyond or top))
        return tuple(edges)

    @property
    def least(self) -> HomPair:
        return self.elements[0]

    def __repr__(self):
        bar = " bar" if self.top_adjoined else ""
        return f"HomPoset({ring_label(self.ring)},{bar} {len(self.elements)} pairs)"


@per_ring
def _posets(ring: FiniteRing) -> tuple:
    """The plain poset over the ring and its completion, on one pair tuple:
    (I, U(R)+I), the pair of R -> R/I and so built unchecked, for each
    proper ideal I in the lattice's order, which is HomPair.sort_key's.
    The whole ring, last in that order, carries no pair."""
    *proper, _ = _ideal_lattice(ring).items()
    elements = tuple(HomPair._trusted(ring, ideal, mset) for ideal, mset in proper)
    return HomPoset(ring, elements), HomPoset(ring, elements, True)


def hom_poset(ring: FiniteRing, adjoin_top: bool = False) -> HomPoset:
    """Materialize every realized pair over the ring.

    With adjoin_top=True the result is the bounded-lattice completion whose
    greatest element is the TOP sentinel.
    """
    return _posets(ring)[bool(adjoin_top)]


def join_ext(p, q, poset: HomPoset):
    """Least upper bound of two pairs inside the completed poset.

    The join is the pair of the ideal sum, the least proper ideal above
    both, and it sorts first among the common upper bounds; TOP when the
    sum is the whole ring and no pair bounds both.  Both arguments must be
    TOP or elements of the poset.
    """
    if p is TOP or q is TOP:
        return TOP
    i, j = _position(poset, p), _position(poset, q)
    common = (poset.above[i] | 1 << i) & (poset.above[j] | 1 << j)
    if not common:
        return TOP
    return poset.elements[(common & -common).bit_length() - 1]


def _position(poset: HomPoset, p: HomPair) -> int:
    """The index of the element p, found by its ideal: RingMismatch for a
    pair over another ring, KeyError for any other non-element."""
    if p.ring is not poset.ring and p.ring != poset.ring:
        raise RingMismatch("pairs over different rings are incomparable")
    i = poset.ideal_index[p.ideal]
    if poset.elements[i] is not p and poset.elements[i] != p:
        raise KeyError(p)
    return i


def max_elements(poset: HomPoset) -> tuple:
    """Maximal pairs of the plain poset (the completion has TOP on top)."""
    if poset.top_adjoined:
        raise ValueError("maximal elements are asked of the poset without TOP")
    return _maximal(poset)


def has_greatest(poset: HomPoset):
    """The greatest pair if one exists, else None."""
    mx = _maximal(poset)
    return mx[0] if len(mx) == 1 else None


def _maximal(poset: HomPoset) -> tuple:
    """Pairs with an empty strict upset, TOP aside."""
    return tuple(p for p, up in zip(poset.elements, poset.above) if not up)


def least_of_fiber(ring: FiniteRing, ideal) -> HomPair:
    """The least pair whose first component is the given proper ideal.

    Over a finite ring the fiber over an ideal is this single pair, the
    poset's own element.  Members that are no ideal raise NotAnIdeal.
    """
    imembers = frozenset(getattr(ideal, "members", ideal))
    poset = hom_poset(ring)
    i = poset.ideal_index.get(imembers)
    if i is None:
        Ideal(ring, imembers)  # raises NotAnIdeal unless an ideal
        raise ImproperIdeal("the whole ring carries no pair")
    return poset.elements[i]


# ---------------------------------------------------------------------------
# functoriality: a morphism R -> S pulls pairs over S back to pairs over R


@dataclass(frozen=True)
class PosetMap:
    """Order-preserving map Hom(S) -> Hom(R) induced by f: R -> S."""

    morphism: RingMorphism
    domain: HomPoset
    codomain: HomPoset
    images: tuple  # codomain indices aligned with domain.elements

    def apply(self, x):
        if x is TOP:
            return TOP
        return self.codomain.elements[self.images[self.domain.index[x]]]


def hom_functor(f: RingMorphism) -> PosetMap:
    """Pull back each pair over the target along f.

    The preimage pair is realized over the source by the composite of f
    with any morphism realizing the target pair, so it is the element of
    hom_poset(source) over the preimage ideal, found with no search and no
    check.  The oracle claim functor-laws checks that its M is the preimage
    of the target's M.
    """
    dom = hom_poset(f.target)
    cod = hom_poset(f.source)
    images = []
    for p in dom.elements:
        pre_ideal = frozenset(i for i, y in enumerate(f.images) if y in p.ideal)
        images.append(cod.ideal_index[pre_ideal])
    return PosetMap(f, dom, cod, tuple(images))


def is_local_morphism(f: RingMorphism) -> bool:
    """Whether f reflects units: f(x) invertible only when x is.

    Equivalent over finite rings to ker f lying inside the radical; the
    oracle claim local-criterion compares the two.
    """
    return f.unit_preimage_members == f.source.unit_indices


# ---------------------------------------------------------------------------
# products: the completed poset splits along the factors


@dataclass(frozen=True)
class PosetIso:
    """Order isomorphism between the completed poset of a product ring and
    the product of the completed posets of its factors."""

    product_ring: FiniteRing
    factor1: FiniteRing
    factor2: FiniteRing
    forward: dict  # element of bar(R1 x R2) -> (x1, x2) with TOP sentinels
    backward: dict


def product_decompose_poset(prod: FiniteRing) -> PosetIso:
    """Split each pair over R1 x R2 into a pair-or-TOP per factor.

    Each ideal of the product is a product ideal I1 x I2; an improper
    factor corresponds to TOP on that side.  The oracle claim product-poset
    checks that the map is an order isomorphism.
    """
    r1, r2 = product_factors(prod)
    n2 = r2.size
    bar1, bar2 = hom_poset(r1, adjoin_top=True), hom_poset(r2, adjoin_top=True)
    # the improper factor ideal has no index; -1 picks TOP, listed last
    els1, els2 = tuple(bar1), tuple(bar2)
    forward = {TOP: (TOP, TOP)}
    for p in hom_poset(prod).elements:
        i1 = frozenset(i // n2 for i in p.ideal)
        i2 = frozenset(i % n2 for i in p.ideal)
        forward[p] = (els1[bar1.ideal_index.get(i1, -1)],
                      els2[bar2.ideal_index.get(i2, -1)])
    backward = {v: k for k, v in forward.items()}
    return PosetIso(prod, r1, r2, forward, backward)


# ---------------------------------------------------------------------------
# maximal elements, complete primes, and division pairs


@dataclass(frozen=True)
class MaximalityReport:
    ring: FiniteRing
    division_pairs: tuple
    completely_prime_pairs: tuple
    maximal_pairs: tuple

    @property
    def chain_holds(self) -> bool:
        dv, cp, mx = (set(self.division_pairs),
                      set(self.completely_prime_pairs),
                      set(self.maximal_pairs))
        return dv <= cp <= mx


def maximality_chain(ring: FiniteRing) -> MaximalityReport:
    """Division pairs, completely prime pairs, and maximal pairs, from the core.

    A division pair is the pair of a morphism into a division ring, whose
    unit preimage is all of R outside the kernel I.  Over a finite ring
    that pair is (I, U(R)+I), so the division pairs are the pairs whose M
    is the complement of I, and for each of them R/I is a division ring:
    every nonzero class is a unit.  A finite division ring is a field
    (Wedderburn), so these are also the pairs of morphisms into finite
    fields.  The oracle claim max-spec finds them again by searching for
    morphisms into its fields, and checks the chain division <= completely
    prime <= maximal.
    """
    poset = hom_poset(ring)
    division = tuple(p for p in poset.elements if p.mset == ring.index_set - p.ideal)
    return MaximalityReport(
        ring,
        division,
        tuple(pair for _, pair in _complete_primes(ring)),
        max_elements(poset),
    )


def spec_correspondence(ring: FiniteRing) -> tuple:
    """Prime ideals paired with the maximal elements they induce.

    Commutative rings only.  Each prime P maps to (P, complement of P), and
    the collection is exactly the set of maximal pairs; the oracle claim
    max-spec checks both.
    """
    if not ring.is_commutative:
        raise NotCommutative(ring_label(ring))
    return _complete_primes(ring)


@per_ring
def _complete_primes(ring: FiniteRing) -> tuple:
    """(ideal, least pair over it) for each completely prime ideal, in pair
    order: the one scan that maximality_chain and spec_correspondence share."""
    return tuple(
        (ideal, pair)
        for ideal, pair in zip(proper_ideals(ring), hom_poset(ring).elements)
        if is_completely_prime(ring, ideal)
    )


# ---------------------------------------------------------------------------
# finite chains: the poset of the last stage is the limit of the stages


@dataclass(frozen=True)
class LimitExchangeReport:
    rings: tuple
    compatible_count: int
    is_bijection: bool
    is_order_iso: bool

    @property
    def ok(self) -> bool:
        return self.is_bijection and self.is_order_iso


def limit_exchange_check(rings, maps) -> LimitExchangeReport:
    """Check Hom(last stage) against the inverse limit of the stage posets.

    A chain R0 -> ... -> Rn induces restriction maps between the pair
    posets; the tuples compatible with every restriction form the limit.
    Sending a pair over Rn to its pullbacks along the stage composites must
    be a bijection onto the compatible tuples and an order isomorphism for
    the componentwise order.
    """
    last, composites = direct_limit_chain(rings, maps)
    stage_posets = [hom_poset(r) for r in rings]
    stage_maps = [hom_functor(f) for f in maps]  # Hom(R_{i+1}) -> Hom(R_i)

    compatible = []
    for combo in itertools.product(*(p.elements for p in stage_posets)):
        if all(
            stage_maps[i].apply(combo[i + 1]) == combo[i]
            for i in range(len(maps))
        ):
            compatible.append(combo)

    functors = [hom_functor(f) for f in composites]
    image = []
    for x in hom_poset(last).elements:
        image.append(tuple(functors[i].apply(x) for i in range(len(rings))))

    bij = set(image) == set(compatible) and len(set(image)) == len(image)

    def tup_leq(a, b):
        return all(leq(x, y) for x, y in zip(a, b))

    els = hom_poset(last).elements
    order_iso = all(
        leq(els[i], els[j]) == tup_leq(image[i], image[j])
        for i in range(len(els))
        for j in range(len(els))
    )
    return LimitExchangeReport(tuple(rings), len(compatible), bij, order_iso)


# ---------------------------------------------------------------------------
# presentation


def hasse(poset: HomPoset) -> tuple:
    """Cover relations as index pairs (i, j) with element i covered by j,
    computed once per poset (HomPoset.covers)."""
    return poset.covers


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
