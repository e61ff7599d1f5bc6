"""Pairs over the integers, in closed form.

Every kernel/unit-preimage pair over Z is either

  modular      (nZ, {x : gcd(x, n) = 1})          for n >= 2, or
  zero-kernel  (0, {x != 0 : no p in P divides x}) for a set of primes P.

The representable zero-kernel elements here are those with P finite or
cofinite, which is closed under all the order operations below.  Order,
meet, join and the exponent-vector embedding are implemented by case
analysis instead of any materialized search, so moduli can be arbitrarily
large integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPrime
from .pairs import TOP
from .rings import _least_factor, is_prime


def factorization(n: int) -> tuple:
    """((p, e), ...) with p ascending: the prime factorization of |n|."""
    n, p, out = abs(n), 2, []
    while n > 1:
        p = _least_factor(n, p)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def prime_divisors(n: int) -> frozenset:
    return frozenset(p for p, _ in factorization(n))


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of primes.

    members is the set itself when cofinite is False, and the finite set of
    excluded primes when cofinite is True.
    """

    cofinite: bool
    members: frozenset

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        bad = [p for p in self.members if not is_prime(p)]
        if bad:
            raise NotPrime(f"{min(bad)} is not prime")

    def __contains__(self, p: int) -> bool:
        return (p not in self.members) if self.cofinite else (p in self.members)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        if not self.cofinite and not other.cofinite:
            return PrimeSet(False, self.members | other.members)
        if self.cofinite and other.cofinite:
            return PrimeSet(True, self.members & other.members)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return PrimeSet(True, cof.members - fin.members)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        if not self.cofinite and not other.cofinite:
            return PrimeSet(False, self.members & other.members)
        if self.cofinite and other.cofinite:
            return PrimeSet(True, self.members | other.members)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return PrimeSet(False, fin.members - cof.members)

    def is_subset(self, other: "PrimeSet") -> bool:
        if not self.cofinite and not other.cofinite:
            return self.members <= other.members
        if not self.cofinite and other.cofinite:
            return not (self.members & other.members)
        if self.cofinite and not other.cofinite:
            return False  # a cofinite set is infinite
        return other.members <= self.members

    def __repr__(self):
        inner = ",".join(map(str, sorted(self.members)))
        return f"coP={{{inner}}}" if self.cofinite else f"P={{{inner}}}"


@dataclass(frozen=True)
class ZHomElement:
    """One pair over Z: modular when modulus is set, zero-kernel otherwise."""

    modulus: int | None
    primes: PrimeSet | None

    def __post_init__(self):
        if (self.modulus is None) == (self.primes is None):
            raise ValueError("exactly one of modulus and primes must be set")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modular elements need modulus >= 2")

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    def __repr__(self):
        return f"ZHom({format_z_element(self)})"


def z_modular(n: int) -> ZHomElement:
    return ZHomElement(n, None)


def z_zero_kernel(primes: PrimeSet) -> ZHomElement:
    return ZHomElement(None, primes)


def z_leq(x, y) -> bool:
    """Componentwise inclusion of pairs over Z, in closed form."""
    if y is TOP:
        return True
    if x is TOP:
        return False
    if x.is_modular and y.is_modular:
        return x.modulus % y.modulus == 0
    if not x.is_modular and not y.is_modular:
        return y.primes.is_subset(x.primes)
    if not x.is_modular and y.is_modular:
        return all(p in x.primes for p in prime_divisors(y.modulus))
    return False  # modular never lies below zero-kernel: nZ is not inside 0


def z_meet(x, y):
    """Meet is componentwise and always a representable element."""
    if x is TOP:
        return y
    if y is TOP:
        return x
    if x.is_modular and y.is_modular:
        return z_modular(math.lcm(x.modulus, y.modulus))
    if not x.is_modular and not y.is_modular:
        return z_zero_kernel(x.primes.union(y.primes))
    zk, md = (x, y) if not x.is_modular else (y, x)
    return z_zero_kernel(zk.primes.union(PrimeSet(False, prime_divisors(md.modulus))))


def z_join(x, y):
    """Least upper bound, or TOP when no pair dominates both arguments."""
    if x is TOP or y is TOP:
        return TOP
    if x.is_modular and y.is_modular:
        g = math.gcd(x.modulus, y.modulus)
        return z_modular(g) if g >= 2 else TOP
    if not x.is_modular and not y.is_modular:
        return z_zero_kernel(x.primes.intersection(y.primes))
    zk, md = (x, y) if not x.is_modular else (y, x)
    k = 1
    for p, e in factorization(md.modulus):
        if p in zk.primes:
            k *= p ** e
    return z_modular(k) if k >= 2 else TOP


# ---------------------------------------------------------------------------
# exponent vectors: an order-reversing embedding into a product of chains


@dataclass(frozen=True)
class ExponentVector:
    """Profile (value at each prime, extra slot) of a pair over Z.

    Modular n maps to its prime exponents with slot 0; zero-kernel at P
    maps to infinity on P, zero off P, slot 1.  default carries the value
    at every prime outside overrides (math.inf for cofinite P).
    The map reverses order: x <= y over Z iff vector(y) <= vector(x)
    pointwise, slot included.
    """

    default: float
    overrides: tuple  # sorted (prime, value)
    slot: int

    def __repr__(self):
        body = ", ".join(f"{p}:{_fmt_val(v)}" for p, v in self.overrides)
        return f"ExpVec(default={_fmt_val(self.default)}, {{{body}}}, slot={self.slot})"


def _fmt_val(v) -> str:
    return "inf" if v == math.inf else str(int(v))


def exponent_vector(x: ZHomElement) -> ExponentVector:
    if x.is_modular:
        return ExponentVector(0, factorization(x.modulus), 0)
    ps = x.primes
    if ps.cofinite:
        return ExponentVector(math.inf, tuple((p, 0) for p in sorted(ps.members)), 1)
    return ExponentVector(0, tuple((p, math.inf) for p in sorted(ps.members)), 1)


# ---------------------------------------------------------------------------
# parsing and printing


def format_z_element(x) -> str:
    if x is TOP:
        return "TOP"
    if x.is_modular:
        return f"n:{x.modulus}"
    ps = x.primes
    inner = ",".join(map(str, sorted(ps.members)))
    return f"0:coP={inner}" if ps.cofinite else f"0:P={inner}"


def parse_z_element(text: str) -> ZHomElement:
    """Inverse of format_z_element; raises ValueError on malformed input."""
    text = text.strip()
    if text.startswith("n:"):
        n = int(text[2:])
        if n < 2:
            raise ValueError("modulus must be >= 2")
        return z_modular(n)
    if text.startswith("0:"):
        body = text[2:]
        if body.startswith("coP="):
            cofinite, items = True, body[4:]
        elif body.startswith("P="):
            cofinite, items = False, body[2:]
        else:
            raise ValueError(f"expected P= or coP= after 0:, got {body!r}")
        members = frozenset(int(t) for t in items.split(",") if t.strip())
        return z_zero_kernel(PrimeSet(cofinite, members))
    raise ValueError(f"cannot parse {text!r} as an element over Z")
