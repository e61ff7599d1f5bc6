"""Morphism search, epimorphism testing, and product decomposition.

enumerate_morphisms is the workhorse: an exhaustive backtracking search for
unit-preserving ring morphisms between two table rings.  Everything
downstream that claims "all morphisms" leans on it, so it prunes hard but
never heuristically.  The search fixes the image of one ring generator per
level, extends f to the subring generated so far, and keeps the level only
if f is a morphism on that subring, decided by the same check RingMorphism
runs.  So every assignment of generator images is covered, and a branch is
cut only when it cannot extend to a morphism.
"""
from __future__ import annotations

from dataclasses import dataclass

from .abelian import cokernel_invariants, group_presentation
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, NotComposable
from .rings import (
    Corner,
    FiniteRing,
    Ideal,
    RingMorphism,
    _preserves,
    _Subgroup,
    compose,
    coset_reps,
    identity_morphism,
    make_quotient,
    per_ring,
    product_factors,
    subring,
)


@per_ring
def _chain(src: FiniteRing) -> tuple:
    """The subrings 1 = S0 < S1 < ... the search fills f along, with the
    steps that derive f on each from f on the one before.

    Level 0 spans 1, and level k adjoins x = src.generators[k-1]: it extends
    x, then b*x for each old basis element b, then c*g for each new basis
    element c and each generator g so far: the products
    FiniteRing.generators closes under, taken first in first out.  Its span
    S is the least additive subgroup holding 1 and closed under right
    multiplication by the generators so far, which is the subring they
    generate: the t with St inside S form a subring holding them, so
    S = 1*S holds that subring, and no more.

    Each level is (x, steps, span, gens, basis).  A step (a, b, s, e) says
    that the basis element c = elems[s] is x when a is None and a*b
    otherwise, and that extending by c appended elems[s:e] in blocks of s:
    block j is j*c + elems[:s].  gens lists the generators so far, newest
    first.  _Subgroup.close would reach the same spans, but recording how
    each element arose serves only this search and would make the ideal
    core's hot loop branch on its caller, so the walk lives here.
    """
    mul = src.mul_table
    sub = _Subgroup(src)
    elems, gens, levels = sub.elems, [], []
    for x in (src.one,) + src.generators:
        pending = [(x, None, None)] + [(mul[b][x], b, x) for b in sub.basis]
        if x != src.one:
            gens.insert(0, x)
        steps = []
        for c, a, b in pending:
            s = len(elems)
            if sub.extend(c):
                steps.append((a, b, s, len(elems)))
                pending.extend((mul[c][g], c, g) for g in gens)
        levels.append((x, tuple(steps), tuple(elems), tuple(gens), tuple(sub.basis)))
    return tuple(levels)


@per_ring
def _morphisms_cached(src: FiniteRing, tgt: FiniteRing) -> tuple:
    # f(1) = 1, so the additive order of 1 in tgt divides its order in src
    if src.additive_orders[src.one] % tgt.additive_orders[tgt.one]:
        return ()
    chain = _chain(src)
    elems = chain[-1][2]
    tadd, tmul = tgt.add_table, tgt.mul_table
    sorders, torders = src.additive_orders, tgt.additive_orders
    f = [None] * src.size
    f[src.zero] = tgt.zero
    found = []

    def search(level: int):
        x, steps, span, gens, basis = chain[level]
        if level == 0:
            candidates = (tgt.one,)
        else:
            candidates = [y for y in range(tgt.size) if sorders[x] % torders[y] == 0]
        for y in candidates:
            for a, b, s, e in steps:
                fc = y if a is None else tmul[f[a]][f[b]]
                ft = fc
                for base in range(s, e, s):
                    row = tadd[ft]
                    for i in range(s):
                        f[elems[base + i]] = row[f[elems[i]]]
                    ft = row[fc]
            if _preserves(src, tgt, f, span, basis, gens) is not None:
                continue
            if level + 1 < len(chain):
                search(level + 1)
            else:
                # the last span is the whole ring, so f was just checked there
                found.append(RingMorphism._trusted(src, tgt, f))

    search(0)
    found.sort(key=lambda g: g.images)
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

    s_gens, s_expr, s_rels = group_presentation(
        tgt.size, lambda a, b: tgt.add_table[a][b], tgt.zero)
    c_gens, c_expr, c_rels = group_presentation(len(creps), c_add, c_index[rep_of[tgt.zero]])
    r_gens = src.additive_basis

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


@per_ring
def _corner(parent: FiniteRing, e: int):
    """The corner ring e.S.e on its members, built once per idempotent of S."""
    if e == parent.one:
        # 1.S.1 is S: share its tables rather than keep a copy on S
        ring, carrier = parent, tuple(range(parent.size))
    else:
        mul = parent.mul_table
        members = sorted({mul[mul[e][x]][e] for x in range(parent.size)})
        ring, carrier = subring(parent, members, one=e, allow_trivial=True)
    ring = FiniteRing(ring.size, ring.add_table, ring.mul_table, ring.zero,
                      ring.one, Corner(parent, carrier))
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
    g1 = RingMorphism(r1, c1, img1)
    g2 = RingMorphism(r2, c2, img2)
    return ProductDecomposition(f, e, c1, c2, tuple(members1), tuple(members2), g1, g2)


def rebuild_product_morphism(dec: ProductDecomposition) -> RingMorphism:
    """Reassemble f(r1, r2) = g1(r1) + g2(r2) from a decomposition."""
    f = dec.morphism
    add = f.target.add_table
    ys2 = [dec.members2[y] for y in dec.to_corner2.images]
    images = []
    for y in dec.to_corner1.images:
        row = add[dec.members1[y]]
        images.extend([row[yb] for yb in ys2])
    # built unchecked: the corner-split claim compares it with f, so a wrong
    # rebuild is reported there rather than raised here
    return RingMorphism._trusted(f.source, f.target, images)


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
    invertible there because its class is regular, hence a unit (the oracle
    claim fraction-pairs checks it).
    """
    members = frozenset(tset)
    mul = ring.mul_table
    zero = ring.zero
    n = ring.size

    # R.t for each t, built once for every r below
    left_multiples = {t: {row[t] for row in mul} for t in members}
    left_ore = True
    for r in range(n):
        for t in members:
            # need T.r meet R.t nonempty
            targets = left_multiples[t]
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
        # ass(T) of a left Ore set is a two-sided ideal; the oracle claim
        # fraction-pairs checks it
        ass_ideal = Ideal._trusted(ring, ass)
        if ass_ideal.is_proper:
            fraction_ring, fraction_map = make_quotient(ring, ass_ideal)
        # an improper ass ideal means T meets the annihilator of everything
        # and the fractions collapse to the zero ring, which lives outside
        # the unital world here; the report carries None in that case
    return DenominatorReport(ring, members, left_ore, left_denom, ass,
                             ass_ideal, fraction_ring, fraction_map)
