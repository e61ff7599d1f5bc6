"""Inputs of the three workloads, made from the seed without homposet code.

hom-ladder   a fixed ladder of ring descriptions, shuffled by the seed
oracle-32    one fixed oracle call; the seed changes nothing
zhom-bigint  a seeded stream of queries over Z, in the CLI's text syntax

The same (seed, batch) always gives the same inputs: every draw comes from
random.Random seeded with integers, whose stream Python keeps stable.
"""
from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from itertools import compress

WORKLOADS = ("hom-ladder", "oracle-32", "zhom-bigint")

# --- hom-ladder -------------------------------------------------------------

F2_7 = ":".join(["product:zmod:2"] * 6 + ["zmod:2"])

LADDER = (
    "zmod:64",
    "zmod:128",
    "gf:2:6",
    "gf:2:7",
    "product:zmod:8:zmod:16",
    "product:zmod:4:product:zmod:4:zmod:4",
    F2_7,
    "matrix:2:zmod:3",
    "quot:zmod:256:gens=64",
)

HOM_TABLE_CAP = "256"

ORACLE_BOUND = 32


def hom_ladder(seed: int, batch: int) -> list:
    """The ladder in an order drawn from (seed, batch)."""
    order = list(LADDER)
    random.Random(seed * 1_000_003 + batch).shuffle(order)
    return order


def _divisor_count(n: int) -> int:
    count, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= e + 1
        p += 1
    return count * (2 if n > 1 else 1)


def ideal_count(description: str) -> int:
    """Two-sided ideals (the ring itself included) of a ladder ring.

    Z/n has one ideal per divisor of n, a field has two, a product has
    the product of its factors' counts, M_k(R) has those of R, and the
    quotient of Z/n by the ideal generated by g is Z/gcd(n, g).
    """
    count, rest = _ideal_count_at(description.split(":"))
    if rest:
        raise ValueError(f"trailing tokens in {description!r}")
    return count


def _ideal_count_at(tokens):
    head, rest = tokens[0], tokens[1:]
    if head == "zmod":
        return _divisor_count(int(rest[0])), rest[1:]
    if head == "gf":
        return 2, rest[2:]
    if head == "product":
        left, rest = _ideal_count_at(rest)
        right, rest = _ideal_count_at(rest)
        return left * right, rest
    if head == "matrix":
        return _ideal_count_at(rest[1:])
    if head == "quot" and rest[0] == "zmod":
        n = int(rest[1])
        gens = [int(g) for g in rest[2][len("gens="):].split(",")]
        return _divisor_count(math.gcd(n, *gens)), rest[3:]
    raise ValueError(f"no ideal count for constructor {head!r}")


def expected_pairs(description: str) -> int:
    """Realized pairs are indexed by the proper ideals."""
    return ideal_count(description) - 1


# --- zhom-bigint ------------------------------------------------------------

ZHOM_BATCH = 3000
GCD_SHARE = 1 / 3          # modular against modular: gcd or lcm only
FACTOR_LO, FACTOR_HI = 1e2, 1e6
SIEVE_LIMIT = 1_000_003
SMALL_PRIMES = (2, 3, 5, 7)
GCD_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
GCD_VERBS = ("z_leq", "z_meet", "z_join")
FACTOR_VERBS = ("z_leq", "z_meet", "z_join", "exponent_vector")


def primes_below(limit: int) -> list:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return list(compress(range(limit), sieve))


def _log_uniform_prime(rng, primes):
    x = 10 ** rng.uniform(math.log10(FACTOR_LO), math.log10(FACTOR_HI))
    return primes[min(bisect_left(primes, x), len(primes) - 1)]


def _mod(n: int) -> str:
    return f"n:{n}"


def _zero_kernel(rng, candidates) -> str:
    members = sorted({p for p in candidates if rng.random() < 0.5})
    kind = "coP" if rng.random() < 1 / 3 else "P"
    return f"0:{kind}={','.join(map(str, members))}"


def _prime_power_product(rng, terms: int) -> int:
    """A big integer built from high powers of primes below 1000."""
    out = 1
    for _ in range(terms):
        out *= rng.choice(GCD_PRIMES) ** rng.randint(1, 12)
    return out


def zhom_queries(seed: int, batch: int, primes: list, size: int = ZHOM_BATCH) -> list:
    """(verb, x, y, cls) tuples; y is None for exponent_vector.

    cls is "gcd_only" for modular-against-modular queries with big moduli,
    and "factoring" for queries that need the prime divisors of
    p * q * 2^i * 3^j, with p and q drawn log-uniform from [1e2, 1e6].
    """
    rng = random.Random(seed * 1_000_003 + batch)
    out = []
    for _ in range(size):
        if rng.random() < GCD_SHARE:
            verb = rng.choice(GCD_VERBS)
            shared = 1 if rng.random() < 0.25 else _prime_power_product(rng, rng.randint(1, 3))
            x = shared * _prime_power_product(rng, rng.randint(1, 3))
            y = shared if rng.random() < 0.5 and shared > 1 else (
                shared * _prime_power_product(rng, rng.randint(1, 3)))
            out.append((verb, _mod(x), _mod(y), "gcd_only"))
            continue
        verb = rng.choice(FACTOR_VERBS)
        p = _log_uniform_prime(rng, primes)
        q = _log_uniform_prime(rng, primes)
        while q == p:
            q = _log_uniform_prime(rng, primes)
        n = p * q * 2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
        if verb == "exponent_vector":
            out.append((verb, _mod(n), None, "factoring"))
            continue
        zk = _zero_kernel(rng, SMALL_PRIMES + (p, q))
        if verb == "z_leq" or rng.random() < 0.5:
            out.append((verb, zk, _mod(n), "factoring"))
        else:
            out.append((verb, _mod(n), zk, "factoring"))
    return out


# --- oracle-32 --------------------------------------------------------------

# The oracle's claim keys in CLAIMS order; `oracle --only <key>` selects
# exactly the one claim.
CLAIM_KEYS = (
    "ring-axioms", "regular-units", "directly-finite", "units-saturated",
    "pair-invariants", "poset-search", "compose-order", "meet-product",
    "functor-laws", "corner-split", "product-poset", "prime-pairs-maximal",
    "max-spec", "greatest-unique-prime", "max-nonempty", "bar-lattice",
    "join-quotient", "universal-contract", "universal-factor",
    "corestriction-epi", "factor-stages", "fiber-least", "local-criterion",
    "limit-exchange", "fraction-pairs",
)

_CLAIM_LINE = re.compile(r"^(ok  |FAIL) (\S+): .* \[(\d+) checked\]$")
_HEADER = re.compile(r"^oracle battery over (\d+) rings \(bound \d+\)$")
_FOOTER = re.compile(r"^(\d+)/(\d+) claims hold$")


def parse_oracle_text(text: str):
    """(ring count, {key: (mark, checked)}, (held, total)) of an oracle report."""
    rings, claims, held = None, {}, None
    for line in text.splitlines():
        if m := _HEADER.match(line):
            rings = int(m[1])
        elif m := _CLAIM_LINE.match(line):
            claims[m[2]] = (m[1].strip().lower(), int(m[3]))
        elif m := _FOOTER.match(line):
            held = (int(m[1]), int(m[2]))
    return rings, claims, held
