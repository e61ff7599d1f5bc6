"""Finite rings as explicit operation tables.

A FiniteRing stores full addition and multiplication tables over carrier
indices 0..size-1 and is immutable, so values can be shared and hashed
freely.  Equality and hashing look only at the tables (and the designated
zero/one), never at provenance: two constructions that produce identical
tables are the same ring for every purpose downstream.  FiniteRing alone
writes its own equality: it reads (so builds) tables only once size, zero
and one agree, and hashes its n^2 cells once; Ideal, RingMorphism and
HomPair take the dataclass's.  Values a theorem guarantees skip their
constructors' checks through one builder, _unchecked.

Elements are plain ints.  All rings here have 1 != 0.  The one-element ring is
rejected by every public constructor; only corner_ring builds it, for a
product morphism that kills a factor (morphisms.decompose_product_morphism).

A ring's provenance is one record per construction family (ZMod, Field,
Product, Matrix, Quotient, ConstructedQuotient, Subring, Corner; Tables for
raw tables), which answers what the family knows: tables, units, ideals
with U(R) + I, the ideal a set generates, quotients, labels and
description.  Z/n, GF(q), products, matrix rings over a field and their
quotients are Constructed: they build their tables only when something
reads add_table or mul_table, and GL_k(F) is built from F's tables alone.
A quotient of a constructed ring is the equivalent construction (Z/n by
dZ/nZ is Z/d, (R1 x R2)/(I1 x I2) is R1/I1 x R2/I2, a ring by {0} is
itself), with the element indices the table path gives.  Subrings,
corners and quotients of table rings gather their rows from the parent's
tables through one routine, _gather.  Only this module builds rings and
reads a record's fields.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial, wraps
from operator import getitem, itemgetter

from .config import Caps, DEFAULT_CAPS
from .errors import (
    BaseNotField,
    CapExceeded,
    ImproperIdeal,
    NotAnIdeal,
    NotAProduct,
    NotComposable,
    NotPrime,
    RingMismatch,
    ZeroRingExcluded,
)


def _unchecked(cls, **fields):
    """A cls value with these fields, built without its checks: for values
    a theorem or a construction already guarantees."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def per_ring(fn):
    """Memoize fn(ring, *args) in the ring's own __dict__, keyed by args, as
    cached_property does, so what is derived from a ring dies with it."""
    slot = f"_{fn.__name__}_memo"

    @wraps(fn)
    def memoized(ring, *args):
        memo = ring.__dict__.get(slot)
        if memo is None:
            memo = ring.__dict__[slot] = {}
        try:
            return memo[args]
        except KeyError:
            value = memo[args] = fn(ring, *args)
            return value

    return memoized


@dataclass(frozen=True, eq=False)
class Tables:
    """How a ring was built: here, from tables alone, so units by a scan,
    ideals by closure, quotients gathered from the tables and no
    description.  Each family's subclass answers
    what its construction knows, with tables() if built lazily.  eq=False:
    a record never compares or hashes its rings' tables."""

    def units(self, ring) -> frozenset:
        # in an associative ring a unit's right inverse is unique, so the
        # first 1 in its row is its two-sided inverse, and a non-unit fails
        # the second test.  The oracle claim regular-units re-derives the
        # set from the tables for every ring.
        one = ring.one
        mul = ring.mul_table
        return frozenset(a for a, row in enumerate(mul)
                         if one in row and mul[row.index(one)][a] == one)

    def lattice(self, ring) -> list:
        """(I, U(R) + I) for every ideal: closed ideals, translated units."""
        add, pairs = ring.add_table, []
        for members in _closed_ideals(ring):
            mset = set()
            for u in ring.unit_indices:
                if u not in mset:
                    row = add[u]
                    mset.update([row[i] for i in members])
            pairs.append((members, frozenset(mset)))
        return pairs

    def ideal(self, ring, gens) -> Ideal:
        return _closed_ideal(ring, gens)

    def quotient(self, ring, members) -> tuple:
        """(R/I, projection images), with rows gathered from the tables."""
        rep, reps = coset_reps(ring, members)
        # proj[x] is the quotient index of x's coset
        proj = itemgetter(*rep)({r: i for i, r in enumerate(reps)})
        record = Quotient(ring, tuple(sorted(members)), reps)
        return _gather(ring, reps, proj, ring.one, record), proj

    def label(self, ring) -> str:
        return f"ring{ring.size}"

    def element(self, ring, index: int) -> str:
        return str(index)

    def spec(self, ring) -> str:
        raise ValueError(f"ring {ring_label(ring)} has no description grammar")


@dataclass(frozen=True, eq=False)
class FiniteRing:
    size: int
    add_table: tuple
    mul_table: tuple
    zero: int
    one: int
    provenance: Tables = Tables()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (
            self.size == other.size
            and self.zero == other.zero
            and self.one == other.one
            and self.add_table == other.add_table
            and self.mul_table == other.mul_table
        )

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.size, self.zero, self.one, self.add_table, self.mul_table))
            self.__dict__["_hash"] = h
        return h

    def __repr__(self):
        return f"FiniteRing({ring_label(self)}, size={self.size})"

    @classmethod
    def _constructed(cls, size, zero, one, provenance):
        """A ring whose provenance builds its tables on first read."""
        return _unchecked(cls, size=size, zero=zero, one=one, provenance=provenance)

    # elementwise operations on carrier indices
    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    @cached_property
    def index_set(self) -> frozenset:
        """Every carrier index, to range-check member sets against."""
        return frozenset(range(self.size))

    @cached_property
    def neg_table(self) -> tuple:
        zero = self.zero
        return tuple(row.index(zero) for row in self.add_table)

    @cached_property
    def unit_indices(self) -> frozenset:
        """U(R), as the provenance record knows it."""
        return self.provenance.units(self)

    @cached_property
    def additive_orders(self) -> tuple:
        add = self.add_table
        zero = self.zero
        orders = []
        for a in range(self.size):
            k, x = 1, a
            while x != zero:
                x = add[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def generators(self) -> tuple:
        """Greedy generator list: each element enlarges the closed subring.

        Together with 1 these generate the ring, so a subset is closed under
        multiplication by every element once it is closed under
        multiplication by each generator.  Each generator is the least
        element outside the span so far.  The span is the least additive
        subgroup holding 1 and closed under right multiplication by the
        generators, so a new generator x adds x and S*x for the old span S,
        and then right multiples of each new basis element only.
        """
        gens = []
        mul = self.mul_table
        sub = _Subgroup(self)
        sub.extend(self.one)
        for x in range(self.size):
            if not sub.inside[x]:
                gens.append(x)
                sub.close([x] + [mul[b][x] for b in sub.basis], right=gens)
        return tuple(gens)

    @cached_property
    def additive_basis(self) -> tuple:
        """Elements whose cyclic additive groups sum to the whole ring."""
        sub = _Subgroup(self)
        for x in range(self.size):
            sub.extend(x)
        return tuple(sub.basis)

    @cached_property
    def is_commutative(self) -> bool:
        mul = self.mul_table
        return all(
            mul[a][b] == mul[b][a]
            for a in range(self.size)
            for b in range(a + 1, self.size)
        )


class _Table:
    """add_table or mul_table of a ring made by _constructed: the first read
    builds both from the provenance and stores them on the ring, and those
    plain attributes then shadow this non-data descriptor."""

    def __init__(self, name):
        self.name = name

    def __get__(self, ring, owner=None):
        if ring is None:
            return self
        add, mul = ring.provenance.tables()
        ring.__dict__.update(add_table=_freeze(add), mul_table=_freeze(mul))
        return ring.__dict__[self.name]


# set after @dataclass has made the fields, whose __init__ puts the tables
# in the instance __dict__; a __getattr__ would slow every attribute read
FiniteRing.add_table, FiniteRing.mul_table = _Table("add_table"), _Table("mul_table")


@dataclass(frozen=True, eq=False)
class Constructed(Tables):
    """A family that knows its ideals and quotients: tables() builds the
    tables on first read, the ideal a set generates is read off the
    lattice, and a quotient is again a constructed ring, with the indices
    the table path would give it.  A subclass with proper nonzero ideals
    answers divide(ring, members) with (R/I as a constructed ring,
    projection images, least member of each coset)."""

    def ideal(self, ring, gens) -> Ideal:
        # the lattice is sorted by size, so the first entry holding gens
        # is the least ideal holding them: it lies in every other one
        return Ideal._trusted(ring, next(m for m in _ideal_lattice(ring) if m.issuperset(gens)))

    def quotient(self, ring, members) -> tuple:
        if len(members) == 1:  # R/{0} is R
            model = ring
            proj = reps = tuple(range(ring.size))
        else:
            model, proj, reps = self.divide(ring, members)
        record = ConstructedQuotient(ring, tuple(sorted(members)), reps, model)
        return FiniteRing._constructed(model.size, model.zero, model.one, record), proj


# ---------------------------------------------------------------------------
# ideals and submonoids


def _is_ideal(ring: FiniteRing, members: frozenset) -> bool:
    """Whether members is a two-sided ideal: the least ideal holding them,
    the closure that enumerate_ideals and ideal_generated_by use, is no
    larger, so the closure stops as soon as it outgrows members.  A set
    without 0, or with a member outside the carrier indices, is not one.
    """
    if ring.zero not in members or not members <= ring.index_set:
        return False
    sub = _Subgroup(ring)
    sub.bound = len(members)
    try:
        sub.close(members, ring.generators, ring.generators)
    except _Outgrown:
        return False
    return True


def _is_submonoid(ring: FiniteRing, members: frozenset) -> bool:
    """Whether members is closed under multiplication and holds 1.

    The monoid generated so far is grown by each member it lacks: the old
    words are multiplied by the new generator, and each new word by every
    generator, so each word meets each generator once.  Every word must lie
    in members; once every member is reached the two sets agree.  A member
    outside the carrier indices makes it False.
    """
    one = ring.one
    if one not in members or not members <= ring.index_set:
        return False
    mul = ring.mul_table
    reached = bytearray(ring.size)
    reached[one] = 1
    words, gens = [one], []
    for g in members:
        if reached[g]:
            continue
        gens.append(g)
        fresh = [mul[w][g] for w in words]
        i = len(words)
        while True:
            for y in fresh:
                if not reached[y]:
                    if y not in members:
                        return False
                    reached[y] = 1
                    words.append(y)
            if i == len(words):
                break
            row = mul[words[i]]
            fresh = [row[h] for h in gens]
            i += 1
    return True


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as a frozenset of member indices.

    The public constructor checks the members with _is_ideal and raises
    NotAnIdeal.  Ideals that a closure already guarantees, such as every
    member of enumerate_ideals, come from _trusted and skip the check.
    """

    ring: FiniteRing
    members: frozenset

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if not _is_ideal(self.ring, self.members):
            raise NotAnIdeal(sorted(self.members))

    @classmethod
    def _trusted(cls, ring, members):
        """An ideal a closure guarantees, built without the check."""
        return _unchecked(cls, ring=ring, members=frozenset(members))

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self):
        return len(self.members)

    @property
    def is_proper(self) -> bool:
        return self.ring.one not in self.members

    def __repr__(self):
        return f"Ideal({sorted(self.members)} of {ring_label(self.ring)})"


# ---------------------------------------------------------------------------
# morphisms (data type; enumeration and heavier machinery live in morphisms.py)


def _preserves(src: FiniteRing, tgt: FiniteRing, f, elems, basis, gens):
    """The first failure of f to preserve x or + on a subring, or None.

    elems lists the subring, basis is an additive basis of it, and gens
    together with 1 generate it as a ring; f must be defined on elems and
    send 1 to 1.  Once f is additive on the subring, the b with
    f(a*b) = f(a)*f(b) for every a form a subring; and the b with
    f(a+b) = f(a)+f(b) for every a form a subgroup.  So checking x against
    gens and + against basis decides whether f is a morphism there.
    Multiplication is checked first: it refutes a wrong map sooner.
    """
    smul, tmul = src.mul_table, tgt.mul_table
    for b in gens:
        fb = f[b]
        for a in elems:
            if f[smul[a][b]] != tmul[f[a]][fb]:
                return f"multiplication not preserved at ({a},{b})"
    sadd, tadd = src.add_table, tgt.add_table
    for b in basis:
        fb = f[b]
        for a in elems:
            if f[sadd[a][b]] != tadd[f[a]][fb]:
                return f"addition not preserved at ({a},{b})"
    return None


@dataclass(frozen=True)
class RingMorphism:
    """Unit-preserving ring morphism stored as an image tuple.

    images[i] is the target index of source element i.  The public
    constructor checks preservation of 0, 1, + and x.  + is checked against
    the source's additive basis and x against its generators, which decides
    preservation exactly because both rings satisfy the ring axioms.  Maps a
    theorem already guarantees, such as composites of morphisms, come from
    _trusted and skip the check.  Equality and hashing are the dataclass's,
    on source, target and images.
    """

    source: FiniteRing
    target: FiniteRing
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        self._validate()

    @classmethod
    def _trusted(cls, source, target, images):
        """A morphism a theorem guarantees, built without the check."""
        return _unchecked(cls, source=source, target=target, images=tuple(images))

    def _validate(self):
        src, tgt, f = self.source, self.target, self.images
        if len(f) != src.size:
            raise ValueError("image tuple length disagrees with source size")
        if any(not 0 <= y < tgt.size for y in f):
            raise ValueError("image index out of range")
        if f[src.zero] != tgt.zero or f[src.one] != tgt.one:
            raise ValueError("morphism must preserve 0 and 1")
        problem = _preserves(src, tgt, f, range(src.size), src.additive_basis,
                             src.generators)
        if problem:
            raise ValueError(problem)

    @cached_property
    def kernel_members(self) -> frozenset:
        z = self.target.zero
        return frozenset(i for i, y in enumerate(self.images) if y == z)

    @cached_property
    def unit_preimage_members(self) -> frozenset:
        units = self.target.unit_indices
        return frozenset(i for i, y in enumerate(self.images) if y in units)

    @cached_property
    def image_members(self) -> frozenset:
        return frozenset(self.images)

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.size

    @property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.size

    def __repr__(self):
        return f"RingMorphism({ring_label(self.source)} -> {ring_label(self.target)}, {list(self.images)})"


def identity_morphism(ring: FiniteRing) -> RingMorphism:
    return RingMorphism._trusted(ring, ring, range(ring.size))


def compose(outer: RingMorphism, inner: RingMorphism) -> RingMorphism:
    """outer after inner.  Targets and sources must chain up to table equality."""
    if inner.target != outer.source:
        raise NotComposable("inner target differs from outer source")
    images = tuple(outer.images[y] for y in inner.images)
    # composite of valid morphisms needs no re-validation
    return RingMorphism._trusted(inner.source, outer.target, images)


# ---------------------------------------------------------------------------
# constructors


def _freeze(table) -> tuple:
    return tuple(map(tuple, table))


def ring_from_tables(add, mul, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Build a ring from raw tables, deriving zero and one.

    Axioms are decided exactly by check_table_axioms: raw inputs are the
    one place where tables are untrusted, and the ideal, submonoid and
    morphism checks rely on the axioms.
    """
    size = len(add)
    if size > caps.table_size:
        raise CapExceeded(f"{size} > table cap {caps.table_size}")
    add_t, mul_t = _freeze(add), _freeze(mul)
    zero = _find_identity(add_t, size)
    one = _find_identity(mul_t, size)
    if zero is None or one is None:
        raise ValueError("tables have no additive or multiplicative identity")
    if size < 2:
        raise ZeroRingExcluded("rings here have 1 != 0")
    ring = FiniteRing(size, add_t, mul_t, zero, one)
    problems = check_table_axioms(ring)
    if problems:
        raise ValueError("; ".join(problems[:3]))
    return ring


def _find_identity(table, size):
    for e in range(size):
        if all(table[e][b] == b and table[b][e] == b for b in range(size)):
            return e
    return None


def check_table_axioms(ring: FiniteRing) -> list:
    """Decide the ring axioms on the tables; returns human-readable violations.

    Exact but not exhaustive.  After the O(n^2) range, identity, inverse and
    commutativity scans, each law in three variables is checked only for c
    in a generating set, by Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups, section 1.2): the c with
    (x.y).c = x.(y.c) for every x, y are closed under the operation.  So
      - (x+y)+c = x+(y+c) is checked for c in an additive generating set A;
      - given that, the c for which either distributive law holds for every
        x, y are closed under +, so both laws are checked for c in A;
      - given those, the c with (xy)c = x(yc) are closed under + and x, so
        that law is checked for c in a set G generating the ring under both.
    A and G are read off the tables alone (_table_generators), so no step
    leans on a law it has not checked yet.  An empty list means every axiom
    holds; otherwise each entry names a violation and its elements.
    """
    n, zero, one = ring.size, ring.zero, ring.one
    # the axioms concern the n x n tables; every entry must name an element
    add = [tuple(row[:n]) for row in ring.add_table[:n]]
    mul = [tuple(row[:n]) for row in ring.mul_table[:n]]
    for name, table in (("addition", add), ("multiplication", mul)):
        for a, row in enumerate(table):
            if min(row) < 0 or max(row) >= n:
                b = next(b for b, v in enumerate(row) if not 0 <= v < n)
                return [f"{name} table entry at ({a},{b}) is out of range"]
    add_cols, mul_cols = list(zip(*add)), list(zip(*mul))
    elems = tuple(range(n))
    bad = []
    if add[zero] != elems:
        bad.append("0 is not an additive identity")
    if mul[one] != elems or mul_cols[one] != elems:
        bad.append("1 is not a multiplicative identity")
    for a, row in enumerate(add):
        if zero not in row:
            bad.append(f"{a} has no additive inverse")
            break
    for a, row in enumerate(add):
        # the first row to differ from its column differs only right of a
        if row != add_cols[a]:
            b = _first_difference(row, add_cols[a])
            bad.append(f"addition not commutative at ({a},{b})")
            break
    if bad:
        return bad
    # each law is compared row by row: x fixed, y running over the carrier;
    # with + commutative, s + t is read as add[t][s] to take whole rows
    add_gens = _table_generators(n, zero, (add,))
    for c in add_gens:
        col = add_cols[c]  # z -> z+c
        for x, row in enumerate(add):
            y = _first_difference([col[v] for v in row], [row[v] for v in col])
            if y is not None:
                return [f"addition not associative at ({x},{y},{c})"]
    for c in add_gens:
        col = add_cols[c]
        for x, row in enumerate(mul):
            # x(y+c) against xc + xy
            plus_xc = add[row[c]]
            y = _first_difference([row[v] for v in col], [plus_xc[v] for v in row])
            if y is not None:
                return [f"left distributivity fails at ({x},{y},{c})"]
            # (y+c)x against cx + yx
            xcol, plus_cx = mul_cols[x], add[mul[c][x]]
            y = _first_difference([xcol[v] for v in col], [plus_cx[v] for v in xcol])
            if y is not None:
                return [f"right distributivity fails at ({y},{c},{x})"]
    for c in _table_generators(n, zero, (add, mul)):
        col = mul_cols[c]  # z -> zc
        for x, row in enumerate(mul):
            y = _first_difference([col[v] for v in row], [row[v] for v in col])
            if y is not None:
                return [f"multiplication not associative at ({x},{y},{c})"]
    return []


def _first_difference(left, right):
    """The first index where the two sequences differ, or None."""
    if left == right:
        return None
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def _table_generators(n: int, zero: int, tables) -> list:
    """Greedy generators of 0..n-1 under the operations given as tables.

    Each element not yet reached, in index order with zero last, becomes a
    generator; reached grows by the steps z -> t[z][g] for every table t
    and generator g.  Every element reached this way lies in whatever
    closed set holds the generators, and no axiom is assumed.
    """
    gens, reached, seen = [], [], bytearray(n)
    for x in [y for y in range(n) if y != zero] + [zero]:
        if seen[x]:
            continue
        gens.append(x)
        pending = [x] + [t[z][x] for z in reached for t in tables]
        while pending:
            y = pending.pop()
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
                pending.extend([t[y][g] for t in tables for g in gens])
    return gens


def make_zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Integers modulo n, carrier 0..n-1."""
    if n <= 1:
        raise ZeroRingExcluded(f"zmod needs n >= 2, got {n}")
    if n > caps.table_size:
        raise CapExceeded(f"{n} > table cap {caps.table_size}")
    return FiniteRing._constructed(n, 0, 1, ZMod(n))


@dataclass(frozen=True, eq=False)
class ZMod(Constructed):
    """Z/n: units prime to n, ideals dZ/nZ (d | n), U + dZ/nZ prime to d."""

    n: int

    def tables(self):
        """Addition row a is 0..n-1 rotated left by a, built by slicing;
        multiplication row a is a*y mod n."""
        n = self.n
        elems = tuple(range(n))
        add = [elems[a:] + elems[:a] for a in range(n)]
        return add, [[a * y % n for y in elems] for a in range(n)]

    def units(self, ring):
        return _coprime_to(self.n, self.n)

    def divide(self, ring, members):
        """Z/n by dZ/nZ is Z/d, x going to x mod d."""
        n = self.n
        d = n // len(members)
        reps = tuple(range(d))
        return FiniteRing._constructed(d, 0, 1, ZMod(d)), reps * (n // d), reps

    def lattice(self, ring):
        n = self.n
        return [(frozenset(range(0, n, d)), _coprime_to(d, n))
                for d in range(1, n + 1) if n % d == 0]

    def label(self, ring):
        return f"Z/{self.n}"

    def spec(self, ring):
        return f"zmod:{self.n}"


def _least_factor(n: int, d: int = 2) -> int:
    """The least divisor of n that is at least d, or n.  Trial division
    from d, which is 2 or odd, for an n with no divisor in [2, d)."""
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


def _poly_mul_mod(f, g, modulus, p):
    """Product of coefficient tuples (low degree first) reduced mod (modulus, p)."""
    k = len(modulus) - 1
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    # reduce by the monic modulus
    for d in range(len(out) - 1, k - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i in range(k):
                out[d - k + i] = (out[d - k + i] - c * modulus[i]) % p
    return tuple(out[:k]) + (0,) * max(0, k - len(out))


def _poly_divides(d, f, p):
    """Whether monic d divides f over Z/p (coefficients low degree first)."""
    f = list(f)
    dd = len(d) - 1
    while len(f) - 1 >= dd:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dd
            for i, c in enumerate(d):
                f[shift + i] = (f[shift + i] - lead * c) % p
        f.pop()
    return all(c == 0 for c in f)


def _smallest_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible of degree k over Z/p, minimal in low-degree-first lex order.

    For k >= 2 x divides every candidate with constant term 0, so only
    those with a nonzero one are tried, and their divisors have one too.
    """
    if k == 1:
        return (0, 1)
    divisors = [g for d in range(1, k // 2 + 1) for g in _monics(p, d)]
    for cand in _monics(p, k):
        if not any(_poly_divides(g, cand, p) for g in divisors):
            return cand
    raise AssertionError("no irreducible found")  # cannot happen


def _monics(p: int, d: int):
    """The monic polynomials of degree d over Z/p with a nonzero constant
    term, in low-degree-first lex order."""
    lows = itertools.product(range(1, p), *[range(p)] * (d - 1))
    return (low + (1,) for low in lows)


def _digits(i: int, base: int, width: int) -> tuple:
    """The first width digits of i in base `base`, least significant first."""
    out = []
    for _ in range(width):
        i, d = divmod(i, base)
        out.append(d)
    return tuple(out)


def _undigits(digits, base: int) -> int:
    """Inverse of _digits: the index whose digits, least first, are given."""
    v = 0
    for d in reversed(digits):
        v = v * base + d
    return v


def _digit_rows(q: int, width: int, zero: int, first, single, then) -> list:
    """Rows of a table on the words of `width` base-q digits, digit t worth q**t.

    The word of all `zero`s gets the row `first`; the word with digit d at
    place t and `zero` elsewhere gets single(t, d).  Every other word is
    the word of its leading digit plus the rest, which has `zero` from that
    place up, so its row is then(lead)(rest), made from the rows of the
    lead and the rest, which exist already.
    """
    size = q**width
    zw = zero * (size - 1) // (q - 1)  # the word of all zeros
    rows = [None] * size
    rows[zw] = first
    done = [zw]  # the words with `zero` from place t up
    for t in range(width):
        grown = []
        for d in range(q):
            if d != zero:
                shift = (d - zero) * q**t
                lead = rows[zw + shift] = single(t, d)
                step = then(lead)
                for w in done[1:]:
                    rows[w + shift] = step(rows[w])
                grown += [w + shift for w in done]
        done += grown
    return rows


def _digit_add_rows(badd, zero: int, width: int) -> list:
    """Addition rows of words added place by place through the table badd.

    Only the rows of one-digit words are filled entry by entry.  Any other
    row is a composition, a + b = rest + (lead + b): the row of the rest
    read at the entries of the row of lead.
    """
    q = len(badd)
    size = q**width

    def single(t, d):
        # adding d at place t moves the digit e there to badd[d][e]
        unit = q**t
        moved = [(badd[d][e] - e) * unit for e in range(q)]
        return tuple([b + moved[b // unit % q] for b in range(size)])

    same = tuple(range(size))
    return _digit_rows(q, width, zero, same, single, lambda lead: itemgetter(*lead))


def _plus_row(add, x):
    """Entrywise sum with a row: y -> the row b -> add[x[b]][y[b]]."""
    plus = itemgetter(*x)(add)  # plus[b] is the addition row of x[b]
    return lambda y: tuple(map(getitem, plus, y))


def _capped_power(p: int, k: int, caps: Caps) -> int:
    """p**k for k >= 1, or CapExceeded past the table cap.  p > cap, or
    p >= 2 with 2**k > 2*cap, is refused before the power is taken."""
    cap = caps.table_size
    if p > cap or (p >= 2 and k > cap.bit_length()):
        raise CapExceeded(f"{p}**{k} > table cap {cap}")
    q = p**k
    if q > cap:
        raise CapExceeded(f"{q} > table cap {cap}")
    return q


def make_finite_field(p: int, k: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Field of order p**k as Z/p[x] modulo its least monic irreducible.

    Elements are encoded base p, low coefficient in the least significant
    digit, so index i is the polynomial sum(digit_j * x^j).  For k = 1 the
    tables coincide with make_zmod(p).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = _capped_power(p, k, caps)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return FiniteRing._constructed(q, 0, 1, Field(p, k, _smallest_irreducible(p, k)))


@dataclass(frozen=True, eq=False)
class Field(Constructed):
    """GF(p**k) as Z/p[x] modulo `modulus`: units all but 0, two ideals."""

    p: int
    k: int
    modulus: tuple

    def tables(self):
        """Addition rows are composed from the rows of one-term polynomials
        (_digit_add_rows); multiplication row a is the exp table rotated by
        log a, read at the logs."""
        p, k, modulus = self.p, self.k, self.modulus
        q = p**k
        polys = [_digits(i, p, k) for i in range(q)]
        add = _digit_add_rows([[(a + b) % p for b in range(p)] for a in range(p)], 0, k)
        # the multiplicative group is cyclic: with exp listing the powers of
        # a primitive element and log inverting it, a*b = exp[log a + log b]
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
        # row a is [0] + exp rotated by log a, read at 0 for b = 0 and at 1 + log b
        at_logs = itemgetter(0, *[1 + log[b] for b in range(1, q)])
        mul = [(0,) * q] + [at_logs([0] + exp2[log[a]:log[a] + order]) for a in range(1, q)]
        return add, mul

    def units(self, ring):
        return frozenset(range(1, ring.size))

    def lattice(self, ring):
        # also M_k(F)'s, simple by Wedderburn-Artin
        return [(frozenset({ring.zero}), ring.unit_indices),
                (ring.index_set, ring.index_set)]

    def label(self, ring):
        return f"GF({self.p ** self.k})"

    def element(self, ring, index):
        terms = []
        for d, c in enumerate(_digits(index, self.p, self.k)):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{d}" if c == 1 else f"{c}x^{d}")
        return "+".join(terms) if terms else "0"

    def spec(self, ring):
        return f"gf:{self.p}:{self.k}"


def make_product(r1: FiniteRing, r2: FiniteRing, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Componentwise ring on the cartesian carrier; index (a, b) = a*|R2| + b."""
    if r1.size < 2 or r2.size < 2:
        raise ZeroRingExcluded("product factors must have 1 != 0")
    size = r1.size * r2.size
    if size > caps.table_size:
        raise CapExceeded(f"{size} > table cap {caps.table_size}")
    return _product(r1, r2)


def _product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    n2 = r2.size
    return FiniteRing._constructed(r1.size * n2, r1.zero * n2 + r2.zero,
                                   r1.one * n2 + r2.one, Product(r1, r2))


@dataclass(frozen=True, eq=False)
class Product(Constructed):
    """R1 x R2 from its factors: units U1 x U2, ideals I1 x I2, with
    U + I1 x I2 = (U1 + I1) x (U2 + I2)."""

    r1: FiniteRing
    r2: FiniteRing

    def tables(self):
        """Rows are gathered from grid, the index blocks
        grid[v] = (v*n2, ..., v*n2 + n2-1).  lift2[a2] reads every block at
        factor row a2, so entry (v, x) is (v, row2[x]); lift1[a1] picks the
        entries (row1[v], x) of such a tuple.  So row (a1, a2) is
        lift1[a1](lift2[a2]), built in C, and every entry of both tables is
        one of the size ints in grid."""
        r1, r2 = self.r1, self.r2
        n2 = r2.size
        grid = [tuple(range(v, v + n2)) for v in range(0, r1.size * n2, n2)]
        flat = itertools.chain.from_iterable

        def rows(t1, t2):
            lift2 = [tuple(flat(map(itemgetter(*row2), grid))) for row2 in t2]
            lift1 = [itemgetter(*flat(itemgetter(*row1)(grid))) for row1 in t1]
            return [pick(row) for pick in lift1 for row in lift2]

        return rows(r1.add_table, r2.add_table), rows(r1.mul_table, r2.mul_table)

    def units(self, ring):
        return _product_set(self.r1.unit_indices, self.r2.unit_indices, self.r2.size)

    def lattice(self, ring):
        n2, lattice2 = self.r2.size, _ideal_lattice(self.r2).items()
        return [(_product_set(i1, i2, n2), _product_set(m1, m2, n2))
                for i1, m1 in _ideal_lattice(self.r1).items() for i2, m2 in lattice2]

    def divide(self, ring, members):
        """(R1 x R2)/(I1 x I2) is R1/I1 x R2/I2, or one factor's quotient
        alone when the other Ij is its whole factor.  The least member of a
        coset (a, b) + I is the pair of the least members of a + I1 and
        b + I2, so the quotient's indices are pairs of the factors'."""
        n2 = self.r2.size
        (q1, p1, reps1), (q2, p2, reps2) = (
            _divided(self.r1, {x // n2 for x in members}),
            _divided(self.r2, {x % n2 for x in members}))
        model = q1 if q2 is None else q2 if q1 is None else _product(q1, q2)
        m2 = 1 if q2 is None else q2.size
        return (model, tuple(_pair_indices(p1, p2, m2)),
                tuple(_pair_indices(reps1, reps2, n2)))

    def label(self, ring):
        return f"{ring_label(self.r1)} x {ring_label(self.r2)}"

    def element(self, ring, index):
        n2 = self.r2.size
        return f"({element_label(self.r1, index // n2)},{element_label(self.r2, index % n2)})"

    def spec(self, ring):
        return f"product:{format_ring(self.r1)}:{format_ring(self.r2)}"


def _pair_indices(s1, s2, n2: int) -> list:
    """The indices a*n2 + b of the pairs (a, b) in s1 x s2, a first."""
    return [a + b for a in [a * n2 for a in s1] for b in s2]


def _product_set(s1, s2, n2: int) -> frozenset:
    return frozenset(_pair_indices(s1, s2, n2))


def _divided(r: FiniteRing, members) -> tuple:
    """(R/I, projection images, least member of each coset).  I = R, which
    drops a product factor, gives no ring, every x sent to 0, and 0 the
    least member of the one coset."""
    if len(members) == r.size:
        return None, (0,) * r.size, (0,)
    q, proj = r.provenance.quotient(r, members)
    return q, proj, q.provenance.reps


def _coprime_to(d: int, n: int) -> frozenset:
    """The x in 0..n-1 prime to d: U(Z/n) + dZ/nZ for d | n.  A sieve
    strikes the multiples of each prime divisor of d."""
    keep = bytearray(b"\x01") * n
    p, rest = 2, d
    while rest > 1:
        p = _least_factor(rest, p)
        keep[::p] = bytes(len(range(0, n, p)))
        while rest % p == 0:
            rest //= p
    return frozenset(itertools.compress(range(n), keep))


def product_factors(ring: FiniteRing):
    if not isinstance(ring.provenance, Product):
        raise NotAProduct(ring_label(ring))
    return ring.provenance.r1, ring.provenance.r2


def coset_reps(ring: FiniteRing, members) -> tuple:
    """(rep_of, reps) for the additive cosets of a subgroup given by members.

    rep_of[x] is the least index in x + members and reps lists those least
    indices in increasing order.  Scanning x upward, the first index not yet
    covered is the least of its coset, so no sorting is needed.
    """
    add = ring.add_table
    rep_of = [None] * ring.size
    reps = []
    for x in range(ring.size):
        if rep_of[x] is None:
            reps.append(x)
            row = add[x]
            for m in members:
                rep_of[row[m]] = x
    return tuple(rep_of), tuple(reps)


def make_quotient(ring: FiniteRing, ideal: Ideal):
    """Quotient by a proper two-sided ideal, plus the projection morphism.

    Coset representatives are the least member indices; quotient elements
    are those representatives sorted, so the construction is deterministic.
    A constructed ring's quotient comes from its construction, with those
    indices (Constructed.quotient); any other ring's from its tables.
    """
    if ideal.ring != ring:
        raise RingMismatch("ideal lives over a different ring")
    if not ideal.is_proper:
        raise ImproperIdeal("cannot quotient by the whole ring")
    quotient, proj = ring.provenance.quotient(ring, ideal.members)
    return quotient, RingMorphism._trusted(ring, quotient, proj)


@dataclass(frozen=True, eq=False)
class Quotient(Tables):
    """R/I: members lists I; element i is the coset of its least member reps[i]."""

    parent: FiniteRing
    members: tuple
    reps: tuple

    def label(self, ring):
        return f"{ring_label(self.parent)}/({','.join(map(str, self.members))})"

    def element(self, ring, index):
        return element_label(self.parent, self.reps[index])

    def spec(self, ring):
        return f"quot:{format_ring(self.parent)}:gens={','.join(map(str, self.members))}"


@dataclass(frozen=True, eq=False)
class ConstructedQuotient(Quotient, Constructed):
    """R/I for a constructed R: labels as any quotient's, while model, a
    ring with the same tables and indices, answers the rest."""

    model: FiniteRing

    def tables(self):
        return self.model.add_table, self.model.mul_table

    def units(self, ring):
        return self.model.unit_indices

    def lattice(self, ring):
        return _ideal_lattice(self.model).items()

    def divide(self, ring, members):
        return _divided(self.model, members)


def is_field(ring: FiniteRing) -> bool:
    return ring.is_commutative and len(ring.unit_indices) == ring.size - 1


def make_matrix_ring(base: FiniteRing, k: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """k x k matrices over a finite field, row-major base-q digit encoding."""
    if not is_field(base):
        raise BaseNotField(f"matrix rings need a field base, got {ring_label(base)}")
    if k < 1:
        raise ValueError("k must be >= 1")
    q, nn = base.size, k * k
    size = _capped_power(q, nn, caps)
    bzero = base.zero
    zero = _undigits((bzero,) * nn, q)
    one = _undigits([base.one if r == c else bzero for r in range(k) for c in range(k)], q)
    return FiniteRing._constructed(size, zero, one, Matrix(k, base))


@dataclass(frozen=True, eq=False)
class Matrix(Constructed):
    """M_k(F) over a field, row-major base-q digits: GL_k(F), two ideals."""

    k: int
    base: FiniteRing

    def tables(self):
        """Addition is digitwise through the base table (_digit_add_rows).
        Right multiplication by B is additive, so row A of the
        multiplication table is the entrywise sum of the rows of A's
        leading entry and of the rest; only the rows of matrices with one
        entry off zero are multiplied out."""
        k, base = self.k, self.base
        q, nn = base.size, k * k
        size = q**nn
        bzero, bmul = base.zero, base.mul_table
        zero = _undigits((bzero,) * nn, q)
        add = _digit_add_rows(base.add_table, bzero, nn)
        mats = [_digits(i, q, nn) for i in range(size)]

        def single(t, d):
            # d at (r, c) times B is d times row c of B, moved to row r
            r, c = divmod(t, k)
            dm, units = bmul[d], [q ** (r * k + j) for j in range(k)]
            return tuple([
                zero + sum((dm[B[c * k + j]] - bzero) * units[j] for j in range(k))
                for B in mats
            ])

        mul = _digit_rows(q, nn, bzero, (zero,) * size, single, partial(_plus_row, add))
        return add, mul

    def units(self, ring):
        return _general_linear(self.k, self.base)

    lattice = Field.lattice

    def label(self, ring):
        return f"M{self.k}({ring_label(self.base)})"

    def element(self, ring, index):
        k, base = self.k, self.base
        digits = _digits(index, base.size, k * k)
        rows = [
            "[" + ",".join(element_label(base, digits[r * k + c]) for c in range(k)) + "]"
            for r in range(k)
        ]
        return "[" + ",".join(rows) + "]"

    def spec(self, ring):
        return f"matrix:{self.k}:{format_ring(self.base)}"


def _general_linear(k: int, base: FiniteRing) -> frozenset:
    """GL_k(F) as indices of M_k(F), from F's tables alone.

    A matrix is invertible exactly when its rows are linearly independent,
    so row r is any word of F^k outside the span of rows 0..r-1.  Row r is
    a k-digit base-q word worth (q^k)^r in the index.  Adding a row v
    grows the span S to {s + c*v : s in S, c in F}, read off the word
    addition table and scale[c][v], the word c*v.
    """
    q, width = base.size, base.size**k
    add = _digit_add_rows(base.add_table, base.zero, k)
    words = [_digits(v, q, k) for v in range(width)]
    scale = [[_undigits([row[d] for d in w], q) for w in words]
             for row in base.mul_table]
    zw = _undigits((base.zero,) * k, q)  # the word of all zeros
    # (index of the rows so far, span of all but the last, the last row)
    level = [(0, {zw}, zw)]
    for r in range(k):
        weight, grown = width**r, []
        for index, span, last in level:
            line = [row[last] for row in scale]  # c*last for each c in F
            span = {add[s][x] for s in span for x in line}
            grown += [(index + v * weight, span, v)
                      for v in range(width) if v not in span]
        level = grown
    return frozenset([index for index, _, _ in level])


def _gather(parent: FiniteRing, carrier, relabel, one: int, provenance) -> FiniteRing:
    """The ring on carrier, two or more parent indices (so that each
    itemgetter returns a tuple), with the parent's tables there read back
    through relabel, as are its zero and `one`: an index's position in
    carrier (a subring or corner; KeyError when not closed) or its coset."""
    at = itemgetter(*carrier)

    def rows(table):
        return tuple([itemgetter(*at(table[a]))(relabel) for a in carrier])

    return FiniteRing(len(carrier), rows(parent.add_table), rows(parent.mul_table),
                      relabel[parent.zero], relabel[one], provenance)


def subring(parent: FiniteRing, members):
    """Materialize a subset closed under the operations as its own ring.

    Returns (ring, carrier) where carrier[i] is the parent index of local
    element i.  Raises ValueError for a member outside the parent's indices,
    a set without the parent's 0 and 1, or one not closed under + and x.
    """
    carrier = tuple(sorted(set(members)))
    if not parent.index_set.issuperset(carrier):
        raise ValueError("subring member out of range")
    local = {x: i for i, x in enumerate(carrier)}
    if parent.zero not in local or parent.one not in local:
        raise ValueError("subring must contain its zero and identity")
    if len(carrier) < 2:
        raise ZeroRingExcluded("rings here have 1 != 0")
    try:
        ring = _gather(parent, carrier, local, parent.one, Subring(parent, carrier))
    except KeyError:
        raise ValueError("subring is not closed under + and x") from None
    return ring, carrier


@dataclass(frozen=True, eq=False)
class Subring(Tables):
    """A subring: element i is carrier[i] of the parent."""

    parent: FiniteRing
    carrier: tuple

    def label(self, ring):
        return f"sub[{len(self.carrier)}]({ring_label(self.parent)})"

    def element(self, ring, index):
        return element_label(self.parent, self.carrier[index])


@per_ring
def corner_ring(parent: FiniteRing, e: int) -> tuple:
    """The corner ring e.S.e of S = parent for an idempotent e, with
    identity e, as (ring, carrier) like subring, built once per e: S on its
    own tables when e = 1, and the one-element ring, the only ring here
    with 1 = 0, when e = 0, as when a product's split kills a factor."""
    mul = parent.mul_table
    carrier = tuple(sorted({mul[mul[e][x]][e] for x in range(parent.size)}))
    record = Corner(parent, carrier)
    if e == parent.one:
        ring = FiniteRing(parent.size, parent.add_table, mul, parent.zero, e, record)
    elif e == parent.zero:
        ring = FiniteRing(1, ((0,),), ((0,),), 0, 0, record)
    else:
        ring = _gather(parent, carrier, {x: i for i, x in enumerate(carrier)}, e, record)
    return ring, carrier


@dataclass(frozen=True, eq=False)
class Corner(Tables):
    """A corner ring eSe of the parent S, on carrier (see corner_ring)."""

    parent: FiniteRing
    carrier: tuple

    def label(self, ring):
        return f"corner[{ring.size}]({ring_label(self.parent)})"


# ---------------------------------------------------------------------------
# structural sets and predicates


def regular_elements(ring: FiniteRing) -> frozenset:
    """Elements that are neither left nor right zero divisors."""
    n, mul, zero = ring.size, ring.mul_table, ring.zero
    out = []
    for x in range(n):
        row = mul[x]
        ok = True
        for r in range(n):
            if r != zero and (row[r] == zero or mul[r][x] == zero):
                ok = False
                break
        if ok:
            out.append(x)
    return frozenset(out)


@per_ring
def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Largest ideal of quasi-regular elements.

    x belongs iff 1 + r*x is a unit for every r (Lam, A First Course in
    Noncommutative Rings, Lemma 4.1, with the one-sided inverse it asks
    for two-sided because the ring is finite).  That set is an ideal by
    the same lemma, so it is built unchecked; the oracle claim
    local-criterion checks it.
    """
    mul, one_row = ring.mul_table, ring.add_table[ring.one]
    units = ring.unit_indices
    members = [
        x for x in range(ring.size)
        if all(one_row[row[x]] in units for row in mul)
    ]
    return Ideal._trusted(ring, members)


class _Outgrown(ValueError):
    """A _Subgroup grew past its bound."""


class _Subgroup:
    """Additive subgroup of a ring, grown one coset at a time.

    elems lists the members, inside flags them by index, and basis holds
    the elements whose cyclic groups were added, so the subgroup is the sum
    of those cyclic groups.  bound is the most members it may reach: the
    ring's size unless a caller sets it lower.
    """

    __slots__ = ("ring", "elems", "inside", "basis", "bound")

    def __init__(self, ring: FiniteRing, members=None, basis=()):
        self.ring = ring
        self.elems = [ring.zero] if members is None else list(members)
        self.inside = bytearray(ring.size)
        for x in self.elems:
            self.inside[x] = 1
        self.basis = list(basis)
        self.bound = ring.size

    def extend(self, c: int) -> bool:
        """Grow H to H + <c> by adjoining the cosets c + H, 2c + H, ...

        Returns False when c already lies in H.  Raises _Outgrown, a
        ValueError, as soon as H has more than bound members.  Only a table
        that is not a group can outgrow the ring: there the cosets need
        never close.
        """
        inside, elems, add = self.inside, self.elems, self.ring.add_table
        if inside[c]:
            return False
        old = tuple(elems)
        bound = self.bound
        t = c
        while not inside[t]:
            row = add[t]
            for h in old:
                y = row[h]
                inside[y] = 1
                elems.append(y)
            if len(elems) > bound:
                raise _Outgrown("addition table is not a group" if bound == self.ring.size
                                else f"subgroup outgrew {bound} members")
            t = row[c]
        self.basis.append(c)
        return True

    def close(self, pending, left=(), right=()) -> None:
        """Grow H to the least subgroup that also holds pending and is
        closed under h -> x*h for x in left and h -> h*x for x in right.

        Multiplication by x is additive, so each new basis element c queues
        only x*c and c*x.  With the ring generators on both sides this is
        the least two-sided ideal: the elements r with rH and Hr inside H
        form a subring, so holding the generators and 1 it is the whole ring.
        """
        mul = self.ring.mul_table
        pending = list(pending)
        while pending:
            c = pending.pop()
            if self.extend(c):
                row = mul[c]
                pending.extend([mul[x][c] for x in left])
                pending.extend([row[x] for x in right])


def ideal_generated_by(ring: FiniteRing, gens) -> Ideal:
    """Least two-sided ideal containing gens: read off the lattice of a
    constructed ring, closed over the tables of any other."""
    gens = tuple(gens)
    if any(not 0 <= g < ring.size for g in gens):
        raise ValueError("generator index out of range")
    return ring.provenance.ideal(ring, gens)


def _closed_ideal(ring: FiniteRing, gens) -> Ideal:
    """Least two-sided ideal containing gens, by coset-extension closure
    over the tables, whatever the ring's construction."""
    sub = _Subgroup(ring)
    sub.close(gens, ring.generators, ring.generators)
    return Ideal._trusted(ring, sub.elems)


@per_ring
def enumerate_ideals(ring: FiniteRing) -> tuple:
    """All two-sided ideals, sorted by size then member order."""
    return tuple(Ideal._trusted(ring, m) for m in _ideal_lattice(ring))


@per_ring
def _ideal_lattice(ring: FiniteRing) -> dict:
    """Each two-sided ideal's members, the whole ring's included, mapped to
    U(R) + I, in enumerate_ideals order.  The provenance record gives them:
    Z/n, a field, a matrix ring over one, R1 x R2 and quotients of these
    from the construction, which poset-search checks by search; other rings
    by closure."""
    pairs = ring.provenance.lattice(ring)
    return dict(sorted(pairs, key=lambda im: (len(im[0]), sorted(im[0]))))


def _closed_ideals(ring: FiniteRing) -> dict:
    """Every ideal of a table ring, keyed by member set.

    Every ideal is a finite sum of principal ones.  Starting from {0}, each
    distinct principal ideal P, smallest first, is added to every ideal
    found so far; a P already found is a sum of earlier principal ideals
    and adds nothing.  A sum of ideals is an ideal, so it needs only the
    additive step: grow one summand by the other's additive basis.

    For units u and v, (uxv) = (x): x = u^-1 (uxv) v^-1 lies in (uxv), and
    uxv lies in (x).  So only the first x of each orbit UxU, in index
    order, is closed, and every principal ideal still keeps the basis of
    the first x that generates it.  The orbit is the union of the cosets
    (ux)U, each read off row ux at the units.  Orbits partition the ring,
    so a ux already marked lies in a coset already read.
    """
    gens = ring.generators
    mul = ring.mul_table
    units = ring.unit_indices
    # 1 listed twice, so the getter returns a tuple even when U = {1}
    right_units = itemgetter(ring.one, *units)
    principal = {}
    done = set()
    for x in range(ring.size):
        if x in done:
            continue
        sub = _Subgroup(ring)
        sub.close((x,), gens, gens)
        principal.setdefault(frozenset(sub.elems), tuple(sub.basis))
        for u in units:
            y = mul[u][x]
            if y not in done:
                done.update(right_units(mul[y]))
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
    return lattice


def proper_ideals(ring: FiniteRing) -> tuple:
    return tuple(i for i in enumerate_ideals(ring) if i.is_proper)


def is_saturated(ring: FiniteRing, members) -> bool:
    """Whether xy in M forces both x and y into M, scanned over all of R.
    Raises ValueError for a member of M outside the ring's indices."""
    mset = frozenset(members)
    if not mset <= ring.index_set:
        raise ValueError("saturated set member out of range")
    mul = ring.mul_table
    for x in range(ring.size):
        row = mul[x]
        for y in range(ring.size):
            if row[y] in mset and (x not in mset or y not in mset):
                return False
    return True


def is_directly_finite(ring: FiniteRing) -> bool:
    """Whether every one-sided inverse is two-sided: xy = 1 forces yx = 1."""
    mul, one = ring.mul_table, ring.one
    for x in range(ring.size):
        row = mul[x]
        for y in range(ring.size):
            if row[y] == one and mul[y][x] != one:
                return False
    return True


def is_completely_prime(ring: FiniteRing, ideal: Ideal) -> bool:
    """Proper, with multiplicatively closed complement."""
    if not ideal.is_proper:
        return False
    members = ideal.members
    mul = ring.mul_table
    for x in range(ring.size):
        if x in members:
            continue
        row = mul[x]
        for y in range(ring.size):
            if y not in members and row[y] in members:
                return False
    return True


# ---------------------------------------------------------------------------
# display labels


def ring_label(ring: FiniteRing) -> str:
    return ring.provenance.label(ring)


def element_label(ring: FiniteRing, index: int) -> str:
    return ring.provenance.element(ring, index)


def format_ring(ring: FiniteRing) -> str:
    """Canonical description; parse_ring(format_ring(r)) rebuilds equal tables."""
    return ring.provenance.spec(ring)
