"""Morphism search, epimorphism testing, and product decomposition.

enumerate_morphisms is the workhorse: an exhaustive backtracking search for
unit-preserving ring morphisms between two table rings.  Everything
downstream that claims "all morphisms" leans on it, so it prunes hard but
never heuristically: the search tree covers every assignment of the chosen
generators and constraint propagation only removes provably inconsistent
branches.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import cokernel_invariants, group_presentation
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, NotAProduct, NotComposable
from .rings import (
    FiniteRing,
    Ideal,
    RingMorphism,
    compose,
    coset_reps,
    identity_morphism,
    product_factors,
    ring_label,
    subring,
)


def _propagate(src: FiniteRing, tgt: FiniteRing, known: dict, fresh: list):
    """Close a partial assignment under +, x and negation.

    known maps source indices to target indices; fresh lists source indices
    whose consequences are unprocessed.  Returns the extended dict or None
    on contradiction.  Both argument orders are generated, so the closure
    is complete over the subring generated by the assigned elements.
    """
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


@lru_cache(maxsize=None)
def _morphisms_cached(src: FiniteRing, tgt: FiniteRing) -> tuple:
    # char(tgt) must divide char(src) or 1 has no consistent image
    if src.characteristic % tgt.characteristic != 0:
        return ()
    base = _propagate(src, tgt, {src.zero: tgt.zero, src.one: tgt.one},
                      [src.zero, src.one])
    if base is None:
        return ()
    gens = src.generators
    sorders, torders = src.additive_orders, tgt.additive_orders
    found = []

    def assign(level: int, known: dict):
        if level == len(gens):
            images = tuple(known[i] for i in range(src.size))
            found.append(RingMorphism(src, tgt, images))
            return
        g = gens[level]
        prior = known.get(g)
        if prior is not None:
            assign(level + 1, known)
            return
        for y in range(tgt.size):
            if sorders[g] % torders[y] != 0:
                continue
            trial = dict(known)
            trial[g] = y
            if _propagate(src, tgt, trial, [g]) is not None:
                assign(level + 1, trial)

    assign(0, base)
    found.sort(key=lambda f: f.images)
    return tuple(found)


def enumerate_morphisms(src: FiniteRing, tgt: FiniteRing,
                        caps: Caps = DEFAULT_CAPS) -> tuple:
    """All unit-preserving ring morphisms src -> tgt, sorted by image tuple."""
    bound = caps.morphism_search
    if src.size > bound or tgt.size > bound:
        raise CapExceeded(
            f"morphism search over sizes {src.size}, {tgt.size} exceeds cap {bound}"
        )
    return _morphisms_cached(src, tgt)


# ---------------------------------------------------------------------------
# ring epimorphism test via tensor vanishing


def epi_obstruction_invariants(f: RingMorphism) -> tuple:
    """Invariant factors of S (x)_R (S / f(R)) as a finite abelian group.

    The morphism is a ring epimorphism exactly when this group vanishes,
    i.e. the returned tuple is empty.  The group is presented on generators
    u (x) [v] for u, v over additive generators of S and C = S/f(R), with
    relations inherited from both groups plus the balance relations
    (u.f(r)) (x) [v] = u (x) [f(r).v] for r over additive generators of R.
    """
    src, tgt = f.source, f.target
    fr_members = f.image_members
    rep_of, creps = coset_reps(tgt, fr_members)
    c_index = {r: i for i, r in enumerate(creps)}

    def c_add(i, j):
        return c_index[rep_of[tgt.add_table[creps[i]][creps[j]]]]

    s_gens, s_expr, s_rels = group_presentation(tgt.size, tgt.add, tgt.zero)
    c_gens, c_expr, c_rels = group_presentation(len(creps), c_add, c_index[rep_of[tgt.zero]])
    r_gens, _, _ = group_presentation(src.size, src.add, src.zero)

    ns, nc = len(s_gens), len(c_gens)
    ncols = ns * nc
    if ncols == 0:
        return ()

    def col(i, j):
        return i * nc + j

    rows = []
    # relations of S tensored with each generator of C, and symmetrically
    for rel in s_rels:
        for j in range(nc):
            row = [0] * ncols
            for i, coeff in enumerate(rel):
                row[col(i, j)] = coeff
            rows.append(row)
    for rel in c_rels:
        for i in range(ns):
            row = [0] * ncols
            for j, coeff in enumerate(rel):
                row[col(i, j)] = coeff
            rows.append(row)
    # balance: (u.f(r)) (x) v - u (x) (f(r).v) = 0, additive in r, u, v
    for r in r_gens:
        fr = f.images[r]
        for gi, u in enumerate(s_gens):
            left = s_expr[tgt.mul_table[u][fr]]
            for gj, v in enumerate(c_gens):
                right = c_expr[c_index[rep_of[tgt.mul_table[fr][creps[v]]]]]
                row = [0] * ncols
                for i, coeff in enumerate(left):
                    row[col(i, gj)] += coeff
                for j, coeff in enumerate(right):
                    row[col(gi, j)] -= coeff
                if any(row):
                    rows.append(row)
    return cokernel_invariants(rows, ncols)


def is_ring_epimorphism(f: RingMorphism) -> bool:
    """Epimorphism in the category of unital rings (not merely surjective)."""
    return not epi_obstruction_invariants(f)


# ---------------------------------------------------------------------------
# binary product decomposition of a morphism out of R1 x R2


@dataclass(frozen=True)
class ProductDecomposition:
    """Split of f: R1 x R2 -> S along the image idempotent e = f(1, 0).

    corner1 and corner2 are the rings e.S.e and (1-e).S.(1-e) on their
    member carriers; to_corner1/2 are the restricted morphisms out of the
    factors.  A corner may be the one-element ring when a factor is killed.
    """

    morphism: RingMorphism
    idempotent: int
    corner1: FiniteRing
    corner2: FiniteRing
    members1: tuple
    members2: tuple
    to_corner1: RingMorphism
    to_corner2: RingMorphism


def _corner(parent: FiniteRing, e: int):
    mul = parent.mul_table
    members = sorted({mul[mul[e][x]][e] for x in range(parent.size)})
    ring, carrier = subring(parent, members, one=e, allow_trivial=True)
    ring = FiniteRing(ring.size, ring.add_table, ring.mul_table, ring.zero,
                      ring.one, ("corner", parent, carrier))
    return ring, carrier


def decompose_product_morphism(f: RingMorphism) -> ProductDecomposition:
    """Split a morphism out of a product ring through its corner rings."""
    src = f.source
    r1, r2 = product_factors(src)  # raises NotAProduct
    n2 = r2.size
    e = f.images[r1.one * n2 + r2.zero]
    one_minus_e = f.target.sub(f.target.one, e)
    c1, members1 = _corner(f.target, e)
    c2, members2 = _corner(f.target, one_minus_e)
    loc1 = {x: i for i, x in enumerate(members1)}
    loc2 = {x: i for i, x in enumerate(members2)}
    img1 = tuple(loc1[f.images[a * n2 + r2.zero]] for a in range(r1.size))
    img2 = tuple(loc2[f.images[r1.zero * n2 + b]] for b in range(n2))
    g1 = RingMorphism(r1, c1, img1, check=(c1.size > 1))
    g2 = RingMorphism(r2, c2, img2, check=(c2.size > 1))
    return ProductDecomposition(f, e, c1, c2, tuple(members1), tuple(members2), g1, g2)


def rebuild_product_morphism(dec: ProductDecomposition) -> RingMorphism:
    """Reassemble f(r1, r2) = g1(r1) + g2(r2) from a decomposition."""
    f = dec.morphism
    src, tgt = f.source, f.target
    r1, r2 = product_factors(src)
    n2 = r2.size
    images = []
    for a in range(r1.size):
        ya = dec.members1[dec.to_corner1.images[a]]
        for b in range(n2):
            yb = dec.members2[dec.to_corner2.images[b]]
            images.append(tgt.add(ya, yb))
    return RingMorphism(src, tgt, tuple(images))


# ---------------------------------------------------------------------------
# chains of morphisms (finite stages of a directed system)


def direct_limit_chain(rings, maps):
    """Composites of a finite chain R0 -> R1 -> ... -> Rn into the last ring.

    Returns (last_ring, composites) where composites[i] maps rings[i] into
    rings[-1] and the last composite is the identity.
    """
    if len(maps) != len(rings) - 1:
        raise NotComposable("need one map per consecutive pair")
    for i, f in enumerate(maps):
        if f.source != rings[i] or f.target != rings[i + 1]:
            raise NotComposable(f"map {i} does not match its endpoints")
    last = rings[-1]
    composites = [identity_morphism(last)]
    for f in reversed(maps):
        composites.append(compose(composites[-1], f))
    composites.reverse()
    return last, tuple(composites)


# ---------------------------------------------------------------------------
# Ore / denominator analysis for a multiplicative subset


@dataclass(frozen=True)
class DenominatorReport:
    """Outcome of the left Ore and left denominator tests for T in R."""

    ring: FiniteRing
    tset: frozenset
    is_left_ore: bool
    is_left_denominator: bool
    ass_members: frozenset
    ass_ideal: Ideal | None
    fraction_ring: FiniteRing | None
    fraction_map: RingMorphism | None


def denominator_analysis(ring: FiniteRing, tset) -> DenominatorReport:
    """Classify T and, when it is a left denominator set, build the fractions.

    ass(T) = elements annihilated on the left by some t in T.  Over a finite
    ring a left denominator set localizes to R/ass(T): every t becomes
    invertible there because its class is regular, hence a unit.
    """
    members = frozenset(getattr(tset, "members", tset))
    mul = ring.mul_table
    zero = ring.zero
    n = ring.size

    left_ore = True
    for r in range(n):
        for t in members:
            # need T.r meet R.t nonempty
            targets = {mul[x][t] for x in range(n)}
            if all(mul[u][r] not in targets for u in members):
                left_ore = False
                break
        if not left_ore:
            break

    ass = frozenset(r for r in range(n) if any(mul[t][r] == zero for t in members))

    left_denom = left_ore
    if left_ore:
        for r in range(n):
            for t in members:
                if mul[r][t] == zero and r not in ass:
                    left_denom = False
                    break
            if not left_denom:
                break

    ass_ideal = None
    fraction_ring = None
    fraction_map = None
    if left_denom:
        ass_ideal = Ideal(ring, ass)
        if ass_ideal.is_proper:
            from .rings import make_quotient

            fraction_ring, fraction_map = make_quotient(ring, ass_ideal)
            units_q = fraction_ring.unit_indices
            for t in members:
                assert fraction_map.images[t] in units_q, (
                    f"{t} fails to invert in the fraction ring of {ring_label(ring)}"
                )
        # an improper ass ideal means T meets the annihilator of everything
        # and the fractions collapse to the zero ring, which lives outside
        # the unital world here; the report carries None in that case
    return DenominatorReport(ring, members, left_ore, left_denom, ass,
                             ass_ideal, fraction_ring, fraction_map)
