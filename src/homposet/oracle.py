"""Brute-force verification battery.

Everything the constructive modules claim is re-checked here by exhaustive
search over a catalog of small rings.  The battery never trusts the
construction under test: poset membership is re-derived by enumerating all
morphisms into catalog targets, meets are re-realized through product
morphisms, factorizations are re-found by exhaustive search, and so on.
A claim that fails carries a concrete witness.

Each claim is a generator over the battery's context: it yields once per
item it checks and returns its witness, or None when it holds.
verify_theorems counts the yields; a claim that raises has failed, with
the exception as its witness.

The catalog is deterministic for a given bound, every claim iterates in
canonical order, and reports render byte-identically across runs.

Many morphisms land on the same input, so a claim keeps what it derives
for its own run only, keyed by distinct input: pair-invariants judges each
distinct (ring, pair) once, functor-laws pulls back along each morphism
once, join-quotient closes each union of two ideals once, local-criterion
checks each source's radical once, and bar-lattice evaluates meet and join
once per ordered pair of its completed poset, for that poset's checks.
Counts and witnesses still go per morphism or per pair of pairs.  The only
memos that outlive a claim are the corner ring of each idempotent
(morphisms._corner), kept on its target ring, so it dies with that ring,
and the battery's table of each catalog pair's morphisms, which dies with
the run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, NoFactorization
from .localization import (
    canonical_factorization,
    epimorphic_corestriction,
    factor_through,
    universal_inverting_finite,
)
from .morphisms import (
    decompose_product_morphism,
    denominator_analysis,
    enumerate_morphisms,
    is_ring_epimorphism,
    rebuild_product_morphism,
)
from .pairs import (
    TOP,
    HomPair,
    leq,
    meet,
    pair_of_morphism,
    radical_translation_holds,
    validate_pair,
)
from .poset import (
    has_greatest,
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
from .rings import (
    FiniteRing,
    Ideal,
    Product,
    RingMorphism,
    _closed_ideal,
    _is_ideal,
    check_table_axioms,
    compose,
    identity_morphism,
    is_completely_prime,
    is_directly_finite,
    is_field,
    is_saturated,
    jacobson_radical,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    proper_ideals,
    regular_elements,
    ring_label,
)


@dataclass(frozen=True)
class Catalog:
    bound: int
    rings: tuple


def build_catalog(bound: int = 16, caps: Caps = DEFAULT_CAPS) -> Catalog:
    """Deterministic list of pairwise table-distinct rings of size <= bound.

    Stages: Z/n, finite fields, binary products of those, one matrix ring,
    then quotients closed to a fixed point.  Later table-identical rings
    are dropped, keeping the first construction.
    """
    seen = set()
    rings = []

    def put(r):
        if r not in seen:
            seen.add(r)
            rings.append(r)

    for n in range(2, bound + 1):
        put(make_zmod(n, caps))
    for p in (2, 3, 5, 7, 11, 13):
        k = 2
        while p**k <= bound:
            put(make_finite_field(p, k, caps))
            k += 1
    base = list(rings)
    for i, r1 in enumerate(base):
        for r2 in base[i:]:
            if r1.size * r2.size <= bound:
                put(make_product(r1, r2, caps))
    if 16 <= bound:
        put(make_matrix_ring(make_zmod(2, caps), 2, caps))
    # close under quotients so every search can land in the catalog
    frontier = list(rings)
    while frontier:
        fresh = []
        for r in frontier:
            for ideal in proper_ideals(r):
                if len(ideal) == 1:
                    continue
                q, _ = make_quotient(r, ideal)
                if q not in seen:
                    seen.add(q)
                    rings.append(q)
                    fresh.append(q)
        frontier = fresh
    return Catalog(bound, tuple(rings))


def realized_pairs(ring: FiniteRing, catalog: Catalog,
                   caps: Caps = DEFAULT_CAPS) -> tuple:
    """Every pair realized by some morphism into a catalog ring.

    Pure search: enumerates morphisms and collects (kernel, unit preimage)
    member sets, never consulting the constructive poset.
    """
    found = set()
    for target in catalog.rings:
        for f in enumerate_morphisms(ring, target, caps):
            found.add((f.kernel_members, f.unit_preimage_members))
    return tuple(sorted(found, key=lambda t: (len(t[0]), sorted(t[0]), sorted(t[1]))))


def verify_hom_construction(ring: FiniteRing, catalog: Catalog,
                            caps: Caps = DEFAULT_CAPS):
    """Search-realized pairs vs constructed poset; returns (ok, missing, extra)."""
    searched = set(realized_pairs(ring, catalog, caps))
    constructed = {(p.ideal, p.mset) for p in hom_poset(ring).elements}
    missing = tuple(sorted(searched - constructed, key=lambda t: sorted(t[0])))
    extra = tuple(sorted(constructed - searched, key=lambda t: sorted(t[0])))
    return (not missing and not extra), missing, extra


# ---------------------------------------------------------------------------
# battery context and claim registry


class _Ctx:
    def __init__(self, catalog: Catalog, caps: Caps):
        self.catalog = catalog
        self.caps = caps
        # catalog rings live as long as the context, so no other object
        # holds one of their ids meanwhile
        self._position = {id(r): i for i, r in enumerate(catalog.rings)}
        self._homs = [[None] * len(catalog.rings) for _ in catalog.rings]

    @cached_property
    def rings(self):
        return self.catalog.rings

    @cached_property
    def small_rings(self):
        return tuple(r for r in self.rings if r.size <= 9)

    @cached_property
    def commutative_rings(self):
        return tuple(r for r in self.rings if r.is_commutative)

    @cached_property
    def product_rings(self):
        return tuple(r for r in self.rings if isinstance(r.provenance, Product))

    def morphisms(self, src, tgt):
        """enumerate_morphisms, kept by catalog positions; a ring outside
        the catalog goes to enumerate_morphisms on every call."""
        i, j = self._position.get(id(src)), self._position.get(id(tgt))
        if i is None or j is None:
            return enumerate_morphisms(src, tgt, self.caps)
        row = self._homs[i]
        if row[j] is None:
            row[j] = enumerate_morphisms(src, tgt, self.caps)
        return row[j]

    def all_morphisms(self):
        for src in self.rings:
            for tgt in self.rings:
                yield from self.morphisms(src, tgt)


def _claim_ring_axioms(ctx):
    for r in ctx.rings:
        yield
        bad = check_table_axioms(r)
        if bad:
            return f"{ring_label(r)}: {bad[0]}"


def _claim_regular_units(ctx):
    for r in ctx.rings:
        yield
        if regular_elements(r) != r.unit_indices:
            return f"{ring_label(r)}: regular set differs from unit group"


def _claim_directly_finite(ctx):
    for r in ctx.rings:
        yield
        if not is_directly_finite(r):
            return f"{ring_label(r)}: one-sided inverse is not two-sided"


def _claim_units_saturated(ctx):
    for r in ctx.rings:
        yield
        if not is_saturated(r, r.unit_indices):
            return f"{ring_label(r)}: unit group is not saturated"


def _claim_pair_invariants(ctx):
    # many morphisms share a pair, so each distinct (ring, pair) is judged
    # once; a failure ends the claim, so only the pairs that held are kept
    held = set()
    for f in ctx.all_morphisms():
        yield
        pair = (f.source, f.kernel_members, f.unit_preimage_members)
        if pair in held:
            continue
        report = validate_pair(*pair)
        if not report.ok:
            key = report.failed()[0].key
            return f"pair of {f!r} fails {key}"
        if not radical_translation_holds(f.source, pair_of_morphism(f)):
            return f"pair of {f!r} not stable under radical translation"
        held.add(pair)


def _claim_poset_search(ctx):
    for r in ctx.rings:
        yield
        ok, missing, extra = verify_hom_construction(r, ctx.catalog, ctx.caps)
        if not ok:
            what = "missing" if missing else "unrealized"
            sets = (missing or extra)[0]
            return f"{ring_label(r)}: {what} pair with ideal {sorted(sets[0])}"
        # covers from member sets alone, with the whole ring in TOP's place
        bar = hom_poset(r, adjoin_top=True)
        ideals = [p.ideal for p in bar.elements] + [r.index_set]
        edges = [(i, j) for i, a in enumerate(ideals) for j, b in enumerate(ideals)
                 if a < b and not any(a < c < b for c in ideals)]
        plain = [(i, j) for i, j in edges if j < len(bar.elements)]
        for what, poset, want in (("", hom_poset(r), plain), ("completed ", bar, edges)):
            if list(poset.covers) != want:
                return (f"{ring_label(r)}: Hasse covers of the {what}poset "
                        "differ from ideal inclusion")


def _claim_compose_order(ctx):
    for r in ctx.small_rings:
        for s in ctx.small_rings:
            fs = ctx.morphisms(r, s)
            if not fs:
                continue
            for t in ctx.small_rings:
                for g in ctx.morphisms(s, t):
                    for f in fs:
                        yield
                        if not leq(pair_of_morphism(f), pair_of_morphism(compose(g, f))):
                            return f"pair of composite dropped below pair of {f!r}"


def _claim_meet_product(ctx):
    for r in ctx.rings:
        poset = hom_poset(r)
        quotients = {p: make_quotient(r, Ideal(r, p.ideal)) for p in poset.elements}
        for p in poset.elements:
            for q in poset.elements:
                m = meet(p, q)
                if m not in poset.index:
                    return f"meet of pairs over {ring_label(r)} not realized"
                qp, jp = quotients[p]
                qq, jq = quotients[q]
                if qp.size * qq.size > ctx.caps.table_size:
                    continue
                yield
                prod = make_product(qp, qq, ctx.caps)
                images = tuple(
                    jp.images[x] * qq.size + jq.images[x] for x in range(r.size)
                )
                h = RingMorphism(r, prod, images)
                if (h.kernel_members, h.unit_preimage_members) != (m.ideal, m.mset):
                    return (
                        f"product morphism over {ring_label(r)} realizes a different meet"
                    )


def _claim_functor_laws(ctx):
    # one pullback per morphism; a composite's is built fresh each time,
    # since it is what the composite law tests
    pullbacks = {}

    def pullback(f):
        if f not in pullbacks:
            pullbacks[f] = hom_functor(f)
        return pullbacks[f]

    for r in ctx.small_rings:
        fm = pullback(identity_morphism(r))
        for p in fm.domain.elements:
            yield
            if fm.apply(p) != p:
                return f"identity functor moves a pair over {ring_label(r)}"
    for r in ctx.small_rings:
        for s in ctx.small_rings:
            for f in ctx.morphisms(r, s):
                fmap = pullback(f)
                dom = fmap.domain
                for a in dom.elements:
                    # hom_functor pulls back only the ideal
                    pre_mset = {i for i, y in enumerate(f.images) if y in a.mset}
                    if fmap.apply(a).mset != pre_mset:
                        return f"pullback along {f!r} of {a!r} is not the preimage of its M"
                    for b in dom.elements:
                        if leq(a, b):
                            yield
                            if not leq(fmap.apply(a), fmap.apply(b)):
                                return f"pullback along {f!r} breaks order"
            for t in ctx.small_rings:
                for f in ctx.morphisms(r, s):
                    for g in ctx.morphisms(s, t):
                        gf = compose(g, f)
                        m1 = hom_functor(gf)
                        m2f, m2g = pullback(f), pullback(g)
                        for p in m1.domain.elements:
                            yield
                            if m1.apply(p) != m2f.apply(m2g.apply(p)):
                                return (
                                    "pullback along a composite differs from "
                                    f"composed pullbacks at {p!r}"
                                )


def _claim_corner_split(ctx):
    for prod in ctx.product_rings:
        for s in ctx.rings:
            for f in ctx.morphisms(prod, s):
                yield
                dec = decompose_product_morphism(f)
                if rebuild_product_morphism(dec) != f:
                    return f"corner rebuild differs from {f!r}"
                e = dec.idempotent
                if s.mul_table[e][e] != e:
                    return f"split element of {f!r} is not idempotent"


def _claim_product_poset(ctx):
    """A product's ideals and M come from its factors' (I1 x I2, see
    rings._ideal_lattice), so this compares a product-derived lattice with
    its factors: the split and its order.  That the lattice is the
    product's own is poset-search's check, by morphism search."""
    for prod in ctx.product_rings:
        yield
        iso = product_decompose_poset(prod)
        n2 = iso.factor2.size
        for p, (x1, x2) in iso.forward.items():
            # TOP on a side stands for the whole factor
            i1 = range(iso.factor1.size) if x1 is TOP else x1.ideal
            i2 = range(n2) if x2 is TOP else x2.ideal
            if p is not TOP and p.ideal != {a * n2 + b for a in i1 for b in i2}:
                return f"{ring_label(prod)}: product ideal does not split"
        if len(iso.backward) != len(iso.forward):
            return f"{ring_label(prod)}: factor split is not injective"
        bar1 = hom_poset(iso.factor1, adjoin_top=True)
        bar2 = hom_poset(iso.factor2, adjoin_top=True)
        if len(iso.forward) != len(bar1) * len(bar2):
            return f"{ring_label(prod)}: factor split is not onto"
        for x, (x1, x2) in iso.forward.items():
            for y, (y1, y2) in iso.forward.items():
                if leq(x, y) != (leq(x1, y1) and leq(x2, y2)):
                    return f"{ring_label(prod)}: order not preserved at {x}, {y}"


def _claim_prime_pairs_maximal(ctx):
    for r in ctx.rings:
        mx = set(max_elements(hom_poset(r)))
        for ideal in proper_ideals(r):
            if is_completely_prime(r, ideal):
                yield
                pair = least_of_fiber(r, ideal)
                if pair not in mx:
                    return (
                        f"complete prime {sorted(ideal.members)} of {ring_label(r)} "
                        "gives a non-maximal pair"
                    )


def _claim_max_spec(ctx):
    # the catalog has a field of every prime-power order up to the bound, and
    # a morphism into a division ring (a finite field, by Wedderburn) has the
    # pair of its corestriction to the image, a field no larger than r
    fields = tuple(r for r in ctx.rings if is_field(r))
    for r in ctx.rings:
        yield
        report = maximality_chain(r)
        for p in report.completely_prime_pairs:
            if p.mset != r.index_set - p.ideal:
                return (
                    f"{ring_label(r)}: M over the complete prime {sorted(p.ideal)} "
                    "is not its complement"
                )
        if not report.chain_holds:
            return f"{ring_label(r)}: containment chain fails"
        if r.is_commutative and (
            {p for _, p in spec_correspondence(r)} != set(report.maximal_pairs)
        ):
            return f"{ring_label(r)}: primes and maximal pairs disagree"
        searched = {
            pair_of_morphism(f)
            for t in fields if t.size <= r.size
            for f in ctx.morphisms(r, t)
        }
        if report.division_pairs != tuple(sorted(searched, key=HomPair.sort_key)):
            return (
                f"{ring_label(r)}: division pairs differ from the pairs of "
                "morphisms into fields"
            )


def _claim_greatest_unique_prime(ctx):
    for r in ctx.commutative_rings:
        yield
        primes = [i for i in proper_ideals(r) if is_completely_prime(r, i)]
        greatest = has_greatest(hom_poset(r))
        if (greatest is not None) != (len(primes) == 1):
            return (
                f"{ring_label(r)}: greatest pair vs unique prime disagree "
                f"({len(primes)} primes)"
            )


def _claim_max_nonempty(ctx):
    for r in ctx.rings:
        yield
        if not max_elements(hom_poset(r)):
            return f"{ring_label(r)}: no maximal pair"


def _position_table(op, els):
    """op over els by position: read(x, y) is the position in els of
    op(els[x], els[y]), or None when the result lies outside els.  Each
    cell is evaluated on its first read and kept in cells, keyed (x, y)."""
    position = {e: x for x, e in enumerate(els)}
    cells = {}

    def read(x, y):
        if (x, y) not in cells:
            cells[x, y] = position.get(op(els[x], els[y]))
        return cells[x, y]

    return read, cells


def _claim_bar_lattice(ctx):
    # meet and join_ext are deterministic, so each is evaluated once per
    # ordered pair, when a check first reads it, and the laws are checked on
    # tables of element positions; a failure, or a raise, comes at the same
    # pair as with a call per check
    for r in ctx.rings:
        bar = hom_poset(r, adjoin_top=True)
        els = list(bar)
        meet_at, meets = _position_table(meet, els)
        join_at, joins = _position_table(lambda p, q: join_ext(p, q, bar), els)
        idx = range(len(els))
        for x in idx:
            for y in idx:
                yield
                mxy, jxy = meet_at(x, y), join_at(x, y)
                if mxy is None or jxy is None:
                    return (
                        f"lattice operation over {ring_label(r)} leaves the completed poset"
                    )
                if meet_at(y, x) != mxy or join_at(y, x) != jxy:
                    return f"lattice operations not commutative over {ring_label(r)}"
                # absorption
                if meet_at(x, jxy) != x or join_at(x, mxy) != x:
                    return f"absorption fails over {ring_label(r)}"
        if len(els) <= 12:
            # every ordered pair has been read above, inside the poset
            mt = [[meets[x, y] for y in idx] for x in idx]
            jt = [[joins[x, y] for y in idx] for x in idx]
            for x in idx:
                for y in idx:
                    mxy, jxy, my, jy = mt[x][y], jt[x][y], mt[y], jt[y]
                    for z in idx:
                        yield
                        if mt[mxy][z] != mt[x][my[z]]:
                            return f"meet not associative over {ring_label(r)}"
                        if jt[jxy][z] != jt[x][jy[z]]:
                            return f"join not associative over {ring_label(r)}"


def _claim_join_quotient(ctx):
    for r in ctx.rings:
        poset = hom_poset(r)
        bar = hom_poset(r, adjoin_top=True)
        # p | q is q | p, and distinct pairs can share a union: close each
        # union once, with the pair of the sum when the sum is proper
        sums = {}
        for p in poset.elements:
            for q in poset.elements:
                yield
                union = p.ideal | q.ideal
                if union not in sums:
                    summed = _closed_ideal(r, union)
                    sums[union] = least_of_fiber(r, summed) if summed.is_proper else None
                expected = sums[union]
                j = join_ext(p, q, bar)
                if expected is not None:
                    if j is TOP or j != expected:
                        return (
                            f"join over {ring_label(r)} differs from the pair of "
                            "the summed ideal"
                        )
                elif j is not TOP:
                    return (
                        f"join over {ring_label(r)} should be absent: summed ideal "
                        "is improper"
                    )


def _claim_universal_contract(ctx):
    for r in ctx.rings:
        for p in hom_poset(r).elements:
            yield
            loc = universal_inverting_finite(r, p)
            if pair_of_morphism(loc.canonical) != p:
                return (
                    f"universal morphism for a pair over {ring_label(r)} has the "
                    "wrong pair"
                )
            if not loc.canonical.is_surjective:
                return f"universal morphism over {ring_label(r)} not onto"


def _claim_universal_factor(ctx):
    for r in ctx.small_rings:
        locs = [(p, universal_inverting_finite(r, p)) for p in hom_poset(r).elements]
        for s in ctx.small_rings:
            for f in ctx.morphisms(r, s):
                fp = pair_of_morphism(f)
                for p, loc in locs:
                    if leq(p, fp):
                        yield
                        try:
                            g = factor_through(loc.canonical, f)
                        except NoFactorization:
                            return (
                                f"no factorization of {f!r} through the universal "
                                f"morphism of a pair below it"
                            )
                        if compose(g, loc.canonical) != f:
                            return f"factorization of {f!r} does not compose back"
                        found = sum(compose(h, loc.canonical) == f
                                    for h in ctx.morphisms(loc.ring, s))
                        if found != 1:
                            return (
                                f"{found} morphisms factor {f!r} through the "
                                "universal morphism of a pair below it"
                            )
                    else:
                        yield
                        try:
                            factor_through(loc.canonical, f)
                            return (
                                f"factorization of {f!r} through an unrelated pair "
                                "should not exist"
                            )
                        except NoFactorization:
                            pass


def _morphism_problem(g):
    """Why g fails the checked RingMorphism constructor, or None.  The
    localization module builds its maps unchecked; this is their check."""
    try:
        RingMorphism(g.source, g.target, g.images)
    except ValueError as e:
        return str(e)
    return None


def _claim_corestriction_epi(ctx):
    for r in ctx.small_rings:
        for s in ctx.small_rings:
            for f in ctx.morphisms(r, s):
                yield
                co = epimorphic_corestriction(f)
                g = co.corestriction
                problem = _morphism_problem(g)
                if problem:
                    return f"corestriction of {f!r} is not a morphism: {problem}"
                if g.kernel_members != f.kernel_members:
                    return f"corestriction of {f!r} changes the kernel"
                if g.unit_preimage_members != f.unit_preimage_members:
                    return f"corestriction of {f!r} changes the unit preimage"
                if not is_ring_epimorphism(g):
                    return f"corestriction of {f!r} is not epi"


def _claim_factor_stages(ctx):
    for r in ctx.small_rings:
        for s in ctx.small_rings:
            for f in ctx.morphisms(r, s):
                yield
                fact = canonical_factorization(f)
                for stage, g in (("collapse", fact.collapse), ("embedding", fact.embed)):
                    problem = _morphism_problem(g)
                    if problem:
                        return f"{stage} stage of {f!r} is not a morphism: {problem}"
                if fact.composite() != f:
                    return f"stages of {f!r} do not compose back"
                collapse = fact.collapse
                if not (collapse.is_surjective and is_ring_epimorphism(collapse)):
                    return f"collapse stage of {f!r} is not epi"
                if not fact.embed.is_injective:
                    return f"embedding stage of {f!r} is not injective"


def _claim_fiber_least(ctx):
    for r in ctx.rings:
        by_ideal = {}
        for ideal, mset in realized_pairs(r, ctx.catalog, ctx.caps):
            by_ideal.setdefault(ideal, set()).add(mset)
        for ideal in proper_ideals(r):
            yield
            fiber = by_ideal.get(ideal.members, set())
            if len(fiber) != 1:
                return (
                    f"fiber over {sorted(ideal.members)} in {ring_label(r)} has "
                    f"{len(fiber)} members"
                )
            expected = least_of_fiber(r, ideal)
            if fiber != {expected.mset}:
                return (
                    f"fiber over {sorted(ideal.members)} in {ring_label(r)} is not "
                    "the projection pair"
                )


def _claim_local_criterion(ctx):
    # jacobson_radical builds its ideal unchecked, so each source's is
    # checked here, once
    radicals = {}
    for f in ctx.all_morphisms():
        yield
        src = f.source
        if src not in radicals:
            jac = radicals[src] = jacobson_radical(src).members
            if not _is_ideal(src, jac):
                return f"{ring_label(src)}: radical {sorted(jac)} is not an ideal"
        radical = f.kernel_members <= radicals[src]
        if is_local_morphism(f) != radical:
            return f"{f!r}: unit reflection and the radical criterion disagree"


def _claim_limit_exchange(ctx):
    try:
        f2 = make_finite_field(2, 1, ctx.caps)
        f4 = make_finite_field(2, 2, ctx.caps)
        f16 = make_finite_field(2, 4, ctx.caps)
        z4, z2 = make_zmod(4, ctx.caps), make_zmod(2, ctx.caps)
    except CapExceeded:
        return
    chains = [
        ([f2, f4, f16], [ctx.morphisms(f2, f4)[0], ctx.morphisms(f4, f16)[0]]),
        ([z4, z2], [ctx.morphisms(z4, z2)[0]]),
    ]
    for rings, maps in chains:
        yield
        report = limit_exchange_check(rings, maps)
        if not report.ok:
            labels = " -> ".join(ring_label(r) for r in rings)
            return f"poset of the last stage is not the limit along {labels}"


def _claim_fraction_pairs(ctx):
    for r in ctx.commutative_rings:
        if r.size > 10:
            continue
        others = [x for x in range(r.size) if x != r.one]
        for mask in itertools.product((False, True), repeat=len(others)):
            members = frozenset(
                [r.one] + [x for x, keep in zip(others, mask) if keep]
            )
            if any(
                r.mul_table[a][b] not in members for a in members for b in members
            ):
                continue
            rep = denominator_analysis(r, members)
            if not rep.is_left_denominator or rep.fraction_ring is None:
                continue
            yield
            # denominator_analysis builds ass(T) unchecked
            if not _is_ideal(r, rep.ass_ideal.members):
                return (
                    f"ass(T) of T={sorted(members)} over {ring_label(r)} is not an ideal: "
                    f"{sorted(rep.ass_ideal.members)}"
                )
            realized = hom_poset(r).index
            frac_pair = pair_of_morphism(rep.fraction_map)
            if frac_pair not in realized:
                return (
                    f"fraction pair of T={sorted(members)} over {ring_label(r)} "
                    "is not realized"
                )
            if not members <= frac_pair.mset:
                return (
                    f"T={sorted(members)} escapes the unit preimage of its own "
                    f"fraction ring over {ring_label(r)}"
                )


CLAIMS = (
    ("ring-axioms", "catalog tables satisfy the ring axioms", _claim_ring_axioms),
    ("regular-units", "regular elements coincide with units", _claim_regular_units),
    ("directly-finite", "one-sided inverses are two-sided", _claim_directly_finite),
    ("units-saturated", "the unit group is a saturated set", _claim_units_saturated),
    ("pair-invariants", "kernel/unit-preimage pairs satisfy the membership criterion",
     _claim_pair_invariants),
    ("poset-search", "constructed posets equal exhaustive morphism search",
     _claim_poset_search),
    ("compose-order", "post-composition never lowers a pair", _claim_compose_order),
    ("meet-product", "componentwise meets are realized by product morphisms",
     _claim_meet_product),
    ("functor-laws", "pullback respects identities, composites and order",
     _claim_functor_laws),
    ("corner-split", "morphisms out of products split through corner rings",
     _claim_corner_split),
    ("product-poset", "the completed poset of a product splits by factor",
     _claim_product_poset),
    ("prime-pairs-maximal", "completely prime ideals give maximal pairs",
     _claim_prime_pairs_maximal),
    ("max-spec", "division, complete-prime and maximal pairs chain up; "
     "commutative maximal pairs are the primes", _claim_max_spec),
    ("greatest-unique-prime", "a greatest pair exists iff the prime is unique",
     _claim_greatest_unique_prime),
    ("max-nonempty", "every catalog ring has a maximal pair", _claim_max_nonempty),
    ("bar-lattice", "the completed poset is a lattice", _claim_bar_lattice),
    ("join-quotient", "joins agree with the pair of the summed ideal",
     _claim_join_quotient),
    ("universal-contract", "universal inverting morphisms realize their pair",
     _claim_universal_contract),
    ("universal-factor", "morphisms factor uniquely through dominated pairs",
     _claim_universal_factor),
    ("corestriction-epi", "corestriction to the image is an epimorphism",
     _claim_corestriction_epi),
    ("factor-stages", "the stage factorization composes back and is epi-then-mono",
     _claim_factor_stages),
    ("fiber-least", "each ideal carries exactly one realized pair",
     _claim_fiber_least),
    ("local-criterion", "unit reflection matches the radical criterion",
     _claim_local_criterion),
    ("limit-exchange", "the poset of a chain's last stage is the limit of the stages",
     _claim_limit_exchange),
    ("fraction-pairs", "denominator sets give realized fraction pairs",
     _claim_fraction_pairs),
)


@dataclass(frozen=True)
class ClaimResult:
    key: str
    title: str
    ok: bool
    checked: int
    witness: str | None = None


@dataclass(frozen=True)
class OracleReport:
    bound: int
    ring_count: int
    degenerate: bool
    claims: tuple

    @property
    def ok(self) -> bool:
        return not self.degenerate and all(c.ok for c in self.claims)

    def render_text(self) -> str:
        if self.degenerate:
            return f"oracle: degenerate catalog (bound {self.bound}), nothing to check"
        lines = [f"oracle battery over {self.ring_count} rings (bound {self.bound})"]
        for c in self.claims:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"{mark} {c.key}: {c.title} [{c.checked} checked]")
            if c.witness:
                lines.append(f"     witness: {c.witness}")
        good = sum(1 for c in self.claims if c.ok)
        lines.append(f"{good}/{len(self.claims)} claims hold")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "rings": self.ring_count,
            "degenerate": self.degenerate,
            "ok": self.ok,
            "claims": [
                {
                    "key": c.key,
                    "title": c.title,
                    "ok": c.ok,
                    "checked": c.checked,
                    "witness": c.witness,
                }
                for c in self.claims
            ],
        }


def check_only(only: str | None) -> None:
    """Refuse an only filter that no claim key contains: it would run no
    claim, and an empty report holds."""
    if only is not None and not any(only in key for key, _, _ in CLAIMS):
        raise ValueError(f"no claim key contains {only!r}")


def verify_theorems(catalog: Catalog, only: str | None = None,
                    caps: Caps = DEFAULT_CAPS) -> OracleReport:
    """Run the battery; only restricts to claims whose key contains it."""
    if not catalog.rings:
        return OracleReport(catalog.bound, 0, True, ())
    ctx = _Ctx(catalog, caps)
    results = []
    for key, title, fn in CLAIMS:
        if only is not None and only not in key:
            continue
        checked = 0
        try:
            claim = fn(ctx)
            while True:
                try:
                    next(claim)
                except StopIteration as done:
                    witness = done.value
                    break
                checked += 1
        except CapExceeded:
            raise
        except Exception as e:
            # a claim that crashes has failed; the exception is its witness,
            # named with the function that raised it, and the rest still run
            tb = e.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            where = tb.tb_frame.f_code.co_name
            checked, witness = 0, f"{type(e).__name__} in {where}: {e}"
        results.append(ClaimResult(key, title, witness is None, checked, witness))
    return OracleReport(catalog.bound, len(catalog.rings), False, tuple(results))
