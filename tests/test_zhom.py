"""Closed-form pairs over Z, cross-checked three independent ways.

Route 1: a reference order relation built from prime membership probes
         (sympy supplies the number theory, none of the library's own
         case analysis is reused).
Route 2: the exponent-vector embedding must reverse the order exactly.
Route 3: for each n the modular elements at divisors of n must be order
         isomorphic to the materialized poset of Z/n.
"""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime, primefactors, primerange

from homposet.errors import NotPrime
from homposet.pairs import TOP, leq as pair_leq, meet as pair_meet
from homposet.poset import hom_poset, join_ext, least_of_fiber
from homposet.rings import (
    ideal_generated_by,
    make_finite_field,
    make_product,
    make_zmod,
)
from homposet.zhom import (
    ExponentVector,
    PrimeSet,
    ZHomElement,
    exponent_vector,
    format_z_element,
    parse_z_element,
    prime_divisors,
    z_join,
    z_leq,
    z_meet,
    z_modular,
    z_zero_kernel,
)

ALL_PRIMES = PrimeSet(True, frozenset())
NO_PRIMES = PrimeSet(False, frozenset())
# (0, {1, -1}), the pair of the identity: it avoids every prime
LEAST = z_zero_kernel(ALL_PRIMES)


def is_maximal_over_z(x) -> bool:
    """Max(Z): the pairs (pZ, .) for p prime, and the zero kernel at no primes."""
    if x.is_modular:
        return isprime(x.modulus)
    return x.primes == NO_PRIMES


def z_pair_of_finite_ring(ring) -> ZHomElement:
    """The pair of the unique morphism Z -> R: the modular element at char R.

    k.1 is a unit exactly when gcd(k, char) = 1: a common factor d > 1
    makes k.1 a zero divisor against (char/d).1, and coprimality lifts an
    inverse mod char.
    """
    return z_modular(ring.additive_orders[ring.one])


BASE_PROBES = tuple(primerange(2, 100)) + (101, 997, 99991)


def value_at(v, p: int):
    """The exponent vector v at the prime p."""
    return dict(v.overrides).get(p, v.default)


def support(v) -> frozenset:
    """The primes where v overrides its default."""
    return frozenset(p for p, _ in v.overrides)


def pointwise_leq(v, w) -> bool:
    """Whether exponent vector v lies below w at every prime and in slot."""
    if v.slot > w.slot:
        return False
    primes = support(v) | support(w)
    if not all(value_at(v, p) <= value_at(w, p) for p in primes):
        return False
    return v.default <= w.default


def z_sort_key(x):
    """Modular elements by modulus, then zero kernels by prime set."""
    if x.is_modular:
        return (0, x.modulus, ())
    return (1, int(x.primes.cofinite), tuple(sorted(x.primes.members)))


def probe_set(x, y):
    """Primes that decide multiplicative-set inclusion for this pair."""
    extra = set()
    for e in (x, y):
        if e is not TOP and e.is_modular:
            extra.update(primefactors(e.modulus))
    return sorted(set(BASE_PROBES) | extra)


def prime_allowed(e, p):
    """Whether the prime p lies in the multiplicative component of e."""
    if e.is_modular:
        return e.modulus % p != 0
    return p not in e.primes


def ref_leq(x, y):
    """Order via generator membership and prime probes only."""
    if y is TOP:
        return True
    if x is TOP:
        return False
    gen_x = x.modulus if x.is_modular else 0
    if y.is_modular:
        if gen_x % y.modulus != 0:
            return False
    elif gen_x != 0:
        return False
    return all(
        prime_allowed(y, p) for p in probe_set(x, y) if prime_allowed(x, p)
    )


def element_pool(seed, size):
    rng = random.Random(seed)
    small_primes = list(primerange(2, 100))
    pool = []
    for _ in range(size):
        kind = rng.randrange(3)
        if kind == 0:
            pool.append(z_modular(rng.randrange(2, 10001)))
        else:
            members = frozenset(rng.sample(small_primes, rng.randrange(0, 5)))
            pool.append(z_zero_kernel(PrimeSet(kind == 2, members)))
    pool.append(LEAST)
    pool.append(z_zero_kernel(NO_PRIMES))
    pool.append(z_modular(2))
    return pool


def test_leq_grid_against_probe_reference():
    pool = element_pool(20260818, 60)
    checked = 0
    for x in pool:
        for y in pool:
            assert z_leq(x, y) == ref_leq(x, y), (x, y)
            checked += 1
    assert checked >= 1000


def test_leq_grid_against_exponent_vectors():
    pool = element_pool(977, 60)
    for x in pool:
        for y in pool:
            want = pointwise_leq(exponent_vector(y), exponent_vector(x))
            assert z_leq(x, y) == want, (x, y)


def test_meet_is_greatest_lower_bound():
    pool = element_pool(4242, 24) + [TOP]
    for x in pool:
        for y in pool:
            m = z_meet(x, y)
            assert z_leq(m, x) and z_leq(m, y)
            for c in pool:
                if z_leq(c, x) and z_leq(c, y):
                    assert z_leq(c, m), (x, y, c)


def test_join_is_least_upper_bound():
    pool = element_pool(555, 24) + [TOP]
    for x in pool:
        for y in pool:
            j = z_join(x, y)
            assert z_leq(x, j) and z_leq(y, j)
            for c in pool:
                if z_leq(x, c) and z_leq(y, c):
                    assert z_leq(j, c), (x, y, c)


def test_order_rule_examples():
    assert z_leq(z_modular(12), z_modular(3))
    assert not z_leq(z_modular(3), z_modular(12))
    assert z_leq(z_zero_kernel(PrimeSet(False, {2, 3})), z_modular(12))
    assert not z_leq(z_zero_kernel(PrimeSet(False, {2})), z_modular(12))
    assert not z_leq(z_modular(2), z_zero_kernel(PrimeSet(False, {2})))
    assert z_leq(LEAST, z_modular(97))
    assert z_leq(LEAST, z_zero_kernel(NO_PRIMES))


def test_meet_rule_examples():
    assert z_meet(z_modular(4), z_modular(6)) == z_modular(12)
    got = z_meet(
        z_zero_kernel(PrimeSet(False, {2})),
        z_zero_kernel(PrimeSet(True, {2, 5})),
    )
    assert got.primes == PrimeSet(True, frozenset({5}))
    assert z_meet(LEAST, z_modular(12)) == LEAST
    mixed = z_meet(z_zero_kernel(PrimeSet(False, {5})), z_modular(12))
    assert mixed.primes == PrimeSet(False, frozenset({2, 3, 5}))


def test_join_rule_examples():
    assert z_join(z_modular(4), z_modular(6)) == z_modular(2)
    assert z_join(z_modular(4), z_modular(9)) is TOP
    got = z_join(
        z_zero_kernel(PrimeSet(False, {2, 3})),
        z_zero_kernel(PrimeSet(False, {3, 5})),
    )
    assert got.primes == PrimeSet(False, frozenset({3}))
    assert z_join(z_zero_kernel(PrimeSet(False, {2})), z_modular(12)) == z_modular(4)
    assert z_join(z_zero_kernel(PrimeSet(False, {2, 3})), z_modular(12)) == z_modular(12)
    assert z_join(z_zero_kernel(PrimeSet(False, {7})), z_modular(12)) is TOP
    assert z_join(z_zero_kernel(PrimeSet(True, {2})), z_modular(12)) == z_modular(3)


@settings(deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_modular_rules_random(a, b):
    assert z_leq(z_modular(a), z_modular(b)) == (a % b == 0)
    assert z_meet(z_modular(a), z_modular(b)) == z_modular(math.lcm(a, b))
    g = math.gcd(a, b)
    expected = z_modular(g) if g >= 2 else TOP
    assert z_join(z_modular(a), z_modular(b)) == expected


def test_maximal_elements():
    assert is_maximal_over_z(z_modular(7))
    assert not is_maximal_over_z(z_modular(12))
    assert is_maximal_over_z(z_zero_kernel(NO_PRIMES))
    assert not is_maximal_over_z(z_zero_kernel(PrimeSet(False, {3})))
    assert not is_maximal_over_z(LEAST)
    # pool-relative confirmation: nothing but TOP strictly above a maximal
    # one, and something above every other, once the pool holds pZ for a
    # prime factor p of each modulus
    pool = element_pool(33, 40)
    pool += [z_modular(min(primefactors(x.modulus))) for x in pool if x.is_modular]
    for x in pool:
        strictly_above = [
            y for y in pool if y != x and z_leq(x, y)
        ]
        assert is_maximal_over_z(x) == (not strictly_above), (x, strictly_above)


def test_least_is_below_everything():
    bot = LEAST
    for y in element_pool(7, 50) + [TOP]:
        assert z_leq(bot, y)


def test_prime_set_algebra_against_probes():
    rng = random.Random(99)
    small = list(primerange(2, 50))
    sets = [
        PrimeSet(rng.random() < 0.5, frozenset(rng.sample(small, rng.randrange(0, 4))))
        for _ in range(40)
    ]
    probes = list(primerange(2, 60)) + [61, 9973]
    for a in sets:
        for b in sets:
            u, i = a.union(b), a.intersection(b)
            for p in probes:
                assert (p in u) == ((p in a) or (p in b))
                assert (p in i) == ((p in a) and (p in b))
            assert a.is_subset(b) == all((p not in a) or (p in b) for p in probes)


def test_prime_set_rejects_composites():
    with pytest.raises(NotPrime):
        PrimeSet(False, frozenset({4}))
    with pytest.raises(NotPrime):
        z_zero_kernel(PrimeSet(True, frozenset({2, 9})))


def test_element_validation():
    with pytest.raises(ValueError):
        ZHomElement(None, None)
    with pytest.raises(ValueError):
        ZHomElement(6, ALL_PRIMES)
    with pytest.raises(ValueError):
        z_modular(1)


def test_exponent_vector_shapes():
    v = exponent_vector(z_modular(12))
    assert v.slot == 0 and v.default == 0
    assert v.overrides == ((2, 2), (3, 1))
    assert value_at(v, 2) == 2 and value_at(v, 7) == 0
    w = exponent_vector(z_zero_kernel(PrimeSet(False, {3})))
    assert w.slot == 1 and value_at(w, 3) == math.inf and value_at(w, 2) == 0
    u = exponent_vector(LEAST)
    assert u.default == math.inf and u.overrides == () and u.slot == 1
    c = exponent_vector(z_zero_kernel(PrimeSet(True, {5})))
    assert value_at(c, 5) == 0 and value_at(c, 11) == math.inf


def test_format_parse_round_trip():
    samples = [
        z_modular(12),
        z_modular(2),
        z_zero_kernel(PrimeSet(False, {2, 3})),
        z_zero_kernel(PrimeSet(True, {5})),
        z_zero_kernel(NO_PRIMES),
        LEAST,
    ]
    for x in samples:
        assert parse_z_element(format_z_element(x)) == x
    assert format_z_element(z_modular(12)) == "n:12"
    assert format_z_element(z_zero_kernel(PrimeSet(False, {3, 2}))) == "0:P=2,3"
    assert format_z_element(LEAST) == "0:coP="
    assert format_z_element(TOP) == "TOP"


def test_parse_errors():
    for bad in ("n:1", "n:x", "0:Q=2", "12", "0:P=4", ""):
        with pytest.raises((ValueError, NotPrime)):
            parse_z_element(bad)


def test_sort_key_orders_modular_then_kernel():
    xs = [LEAST, z_modular(6), z_zero_kernel(NO_PRIMES), z_modular(2)]
    xs.sort(key=z_sort_key)
    assert [format_z_element(x) for x in xs] == ["n:2", "n:6", "0:P=", "0:coP="]


def test_number_helpers():
    assert prime_divisors(360) == frozenset({2, 3, 5})
    assert prime_divisors(1) == frozenset()
    assert prime_divisors(-18) == frozenset({2, 3})
    for n in range(2, 400):
        assert prime_divisors(n) == frozenset(primefactors(n))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 60))
def test_divisor_subposet_matches_finite_quotient(n):
    """Route 3: modular elements at divisors of n mirror the poset of Z/n."""
    ring = make_zmod(n)
    poset = hom_poset(ring)
    bar = hom_poset(ring, adjoin_top=True)
    divisors = [m for m in range(2, n + 1) if n % m == 0]

    def finite_pair(m):
        return least_of_fiber(ring, ideal_generated_by(ring, (m % n,)))

    image = {m: finite_pair(m) for m in divisors}
    assert len(set(image.values())) == len(poset.elements) == len(divisors)
    for m1 in divisors:
        for m2 in divisors:
            assert z_leq(z_modular(m1), z_modular(m2)) == pair_leq(
                image[m1], image[m2]
            )
            lcm = math.lcm(m1, m2)
            assert image[lcm] == pair_meet(image[m1], image[m2])
            g = math.gcd(m1, m2)
            finite_join = join_ext(image[m1], image[m2], bar)
            if g >= 2:
                assert z_join(z_modular(m1), z_modular(m2)) == z_modular(g)
                assert finite_join == image[g]
            else:
                assert z_join(z_modular(m1), z_modular(m2)) is TOP
                assert finite_join is TOP


def test_pair_of_finite_ring_by_unit_scan():
    rings = [
        make_zmod(6),
        make_zmod(8),
        make_finite_field(2, 2),
        make_product(make_zmod(4), make_zmod(9)),
    ]
    for ring in rings:
        char = z_pair_of_finite_ring(ring).modulus
        for k in range(char):
            idx = ring.zero
            for _ in range(k):
                idx = ring.add_table[idx][ring.one]
            is_unit = idx in ring.unit_indices
            assert is_unit == (math.gcd(k, char) == 1), (ring, k)


def test_modular_element_of_quotient_respects_order():
    # Z -> Z/12 -> Z/6 composes to Z -> Z/6: the modular pairs must compare
    assert z_leq(z_pair_of_finite_ring(make_zmod(12)), z_pair_of_finite_ring(make_zmod(6)))


def test_primality_helper_agreement():
    from homposet.rings import is_prime as ours

    for n in range(2, 2000):
        assert ours(n) == isprime(n)
