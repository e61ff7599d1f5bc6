"""Kernel/unit-preimage pairs and their componentwise order.

A morphism f: R -> S induces the pair (ker f, f^{-1}(U(S))).  Pairs over a
fixed R are ordered by componentwise inclusion; the meet of two realized
pairs is again realized (by the morphism into the product of the targets),
so it is computed componentwise.  Joins need the ambient poset and live in
poset.py.

TOP is the adjoined greatest element for the bounded-lattice completion;
it is a sentinel, not a pair.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPair, RingMismatch
from .rings import (
    FiniteRing,
    RingMorphism,
    _is_ideal,
    _is_submonoid,
    _unchecked,
    element_label,
    jacobson_radical,
    ring_label,
)


class _Top:
    """Greatest element adjoined to a pair poset; compares by identity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = _Top()


@dataclass(frozen=True)
class HomPair:
    """A pair (ideal, multiplicative set) over a ring, stored as frozensets.

    The public constructor checks the cheap structural facts: the first
    component is a two-sided ideal, the second a multiplicative submonoid
    containing all units and disjoint from the first.  Whether the pair is
    realized by an actual morphism is a separate question (see
    poset.hom_poset and validate_pair for the full criterion).  Pairs that a
    theorem already guarantees, such as those hom_poset, meet and
    pair_of_morphism build, come from _trusted and skip the checks.
    Equality and hashing are the dataclass's, on ring, ideal and mset.
    """

    ring: FiniteRing
    ideal: frozenset
    mset: frozenset

    def __post_init__(self):
        if not isinstance(self.ideal, frozenset):
            object.__setattr__(self, "ideal", frozenset(self.ideal))
        if not isinstance(self.mset, frozenset):
            object.__setattr__(self, "mset", frozenset(self.mset))
        r = self.ring
        if not _is_ideal(r, self.ideal):
            raise InvalidPair(f"first component is not an ideal: {sorted(self.ideal)}")
        if not _is_submonoid(r, self.mset):
            raise InvalidPair(f"second component is not a submonoid: {sorted(self.mset)}")
        if not r.unit_indices <= self.mset:
            raise InvalidPair("second component must contain every unit")
        if self.ideal & self.mset:
            raise InvalidPair("components must be disjoint")

    @classmethod
    def _trusted(cls, ring, ideal, mset):
        """A pair whose structural facts a theorem guarantees, built
        without __post_init__'s checks."""
        return _unchecked(cls, ring=ring, ideal=frozenset(ideal), mset=frozenset(mset))

    def __repr__(self):
        return (
            f"HomPair({ring_label(self.ring)}: "
            f"{sorted(self.ideal)}, {sorted(self.mset)})"
        )

    def sort_key(self):
        return (len(self.ideal), sorted(self.ideal), sorted(self.mset))


def pair_of_morphism(f: RingMorphism) -> HomPair:
    """(ker f, f^{-1}(units of target)) as a pair over the source."""
    # a kernel is an ideal, and the unit preimage a submonoid holding every
    # unit; they are disjoint because 1 != 0 in the target
    return HomPair._trusted(f.source, f.kernel_members, f.unit_preimage_members)


def leq(p, q) -> bool:
    """Componentwise inclusion; TOP is greatest."""
    if q is TOP:
        return True
    if p is TOP:
        return False
    # identity first: != runs FiniteRing.__eq__ in Python even on one object
    if p.ring is not q.ring and p.ring != q.ring:
        raise RingMismatch("pairs over different rings are incomparable")
    return p.ideal <= q.ideal and p.mset <= q.mset


def meet(p, q):
    """Componentwise intersection; realized whenever both inputs are.

    The morphism into the product of the two targets realizes it, which is
    why no search is needed here.  For comparable inputs the meet is the
    smaller one, returned as it is; only an incomparable meet is built.
    """
    if p is TOP:
        return q
    if q is TOP:
        return p
    if p.ring is not q.ring and p.ring != q.ring:
        raise RingMismatch("pairs over different rings have no meet")
    if p.ideal <= q.ideal and p.mset <= q.mset:
        return p
    if q.ideal <= p.ideal and q.mset <= p.mset:
        return q
    # intersections of ideals, and of submonoids holding every unit, are
    # again such; disjointness carries over from either input
    return HomPair._trusted(p.ring, p.ideal & q.ideal, p.mset & q.mset)


# ---------------------------------------------------------------------------
# full realizability criterion, clause by clause


@dataclass(frozen=True)
class ClauseResult:
    key: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class PairReport:
    ring: FiniteRing
    ideal: frozenset
    mset: frozenset
    clauses: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def failed(self) -> tuple:
        return tuple(c for c in self.clauses if not c.ok)

    def render_text(self) -> str:
        lines = [f"pair over {ring_label(self.ring)}: "
                 f"ideal={sorted(self.ideal)} mset={sorted(self.mset)}"]
        for c in self.clauses:
            mark = "ok " if c.ok else "FAIL"
            extra = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"  {mark} {c.key}{extra}")
        lines.append("realizable" if self.ok else "not realizable")
        return "\n".join(lines)


def validate_pair(ring: FiniteRing, ideal, mset) -> PairReport:
    """Decide whether (ideal, mset) arises from some morphism out of ring.

    Four clauses, each reported with a witness on failure:
      submonoid            M is multiplicatively closed and contains 1
      units_included       U(R) is a subset of M
      translation_stable   M + ideal = M and M meets the ideal trivially
      regular_in_quotient  classes of M are regular in R/ideal

    Over a finite ring these four together are exactly realizability: the
    quotient projection then has unit preimage M, because regular elements
    of a finite ring are units.
    """
    imembers = frozenset(getattr(ideal, "members", ideal))
    mmembers = frozenset(mset)
    lab = lambda x: element_label(ring, x)
    clauses = []
    # members outside the carrier fail the submonoid clause; the later
    # clauses scan only the members that index an element
    outside = mmembers - ring.index_set
    inside = mmembers - outside

    ok, wit = True, None
    if ring.one not in mmembers:
        ok, wit = False, "1 is missing"
    elif outside:
        ok, wit = False, f"{min(outside)} is not an element index"
    elif not _is_submonoid(ring, mmembers):
        # the first product escaping M, scanned in member order
        for a in mmembers:
            if not ok:
                break
            for b in mmembers:
                c = ring.mul_table[a][b]
                if c not in mmembers:
                    ok, wit = False, f"{lab(a)}*{lab(b)}={lab(c)} not in M"
                    break
    clauses.append(ClauseResult("submonoid", ok, wit))

    missing = sorted(ring.unit_indices - mmembers)
    clauses.append(ClauseResult(
        "units_included", not missing,
        f"unit {lab(missing[0])} not in M" if missing else None))

    is_ideal = _is_ideal(ring, imembers)
    ok, wit = True, None
    if not is_ideal:
        ok, wit = False, "first component is not an ideal"
    else:
        inter = sorted(imembers & mmembers)
        if inter:
            ok, wit = False, f"{lab(inter[0])} lies in both components"
        else:
            for m in sorted(inside):
                if not ok:
                    break
                for a in sorted(imembers):
                    s = ring.add_table[m][a]
                    if s not in mmembers:
                        ok, wit = False, f"{lab(m)}+{lab(a)}={lab(s)} not in M"
                        break
    clauses.append(ClauseResult("translation_stable", ok, wit))

    ok, wit = True, None
    if ring.one in imembers:
        ok, wit = False, "ideal is improper"
    elif is_ideal:
        # m is a zero divisor mod I when m*x or x*m lies in I for some x
        # outside I; the condition holds for a whole coset x + I, so the
        # least such x is the least element of its coset
        mul = ring.mul_table
        for m in sorted(inside):
            row = mul[m]
            against = next((x for x in range(ring.size) if x not in imembers
                            and (row[x] in imembers or mul[x][m] in imembers)), None)
            if against is not None:
                ok, wit = False, (
                    f"{lab(m)} is a zero divisor mod the ideal (against {lab(against)})"
                )
                break
    clauses.append(ClauseResult("regular_in_quotient", ok, wit))

    return PairReport(ring, imembers, mmembers, tuple(clauses))


def radical_translation_holds(ring: FiniteRing, pair: HomPair) -> bool:
    """M + ideal + J(R) = M, the sharpened translation stability."""
    jac = jacobson_radical(ring).members
    add = ring.add_table
    for m in pair.mset:
        for a in pair.ideal:
            ma = add[m][a]
            for j in jac:
                if add[ma][j] not in pair.mset:
                    return False
    return True
