"""Acceptance gate: ten end-to-end criteria, one visible verdict line each.

Run as part of the plain suite, or on its own:

    pytest tests/test_acceptance.py -v

Each criterion prints `ACCEPTANCE nn name: PASS` (or FAIL) directly to the
terminal, bypassing capture, then asserts the detailed facts.
"""
import time
from contextlib import contextmanager

import pytest

from homposet.errors import NoFactorization
from homposet.localization import (
    canonical_factorization,
    epimorphic_corestriction,
    factor_through,
    universal_inverting_finite,
)
from homposet.morphisms import (
    enumerate_morphisms,
    epi_obstruction_invariants,
    is_ring_epimorphism,
)
from homposet.oracle import build_catalog, verify_theorems
from homposet.pairs import TOP, leq, pair_of_morphism, validate_pair
from homposet.poset import (
    has_greatest,
    hom_poset,
    join_ext,
    limit_exchange_check,
    spec_correspondence,
)
from homposet.rings import (
    compose,
    is_prime,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_zmod,
)
from homposet.zhom import (
    PrimeSet,
    exponent_vector,
    z_leq,
    z_modular,
    z_zero_kernel,
)

NO_PRIMES = PrimeSet(False, frozenset())


def is_maximal_over_z(x) -> bool:
    """Max(Z): the pairs (pZ, .) for p prime, and the zero kernel at no primes."""
    if x.is_modular:
        return is_prime(x.modulus)
    return x.primes == NO_PRIMES


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


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    report = verify_theorems(build_catalog(16))
    elapsed = time.perf_counter() - t0
    return report, elapsed


def claim(report, key):
    (hit,) = [c for c in report.claims if c.key == key]
    return hit


@contextmanager
def criterion(capsys, num, name):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_01_matrix_singleton(capsys):
    with criterion(capsys, 1, "matrix-singleton"):
        t0 = time.perf_counter()
        m2 = make_matrix_ring(make_zmod(2), 2)
        poset = hom_poset(m2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"materialization took {elapsed:.3f}s"
        assert len(poset.elements) == 1
        only = poset.elements[0]
        assert only.ideal == frozenset({0})
        assert only.mset == m2.unit_indices and len(only.mset) == 6


def test_02_search_agreement(capsys, battery):
    report, elapsed = battery
    with criterion(capsys, 2, "search-agreement"):
        assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
        hit = claim(report, "poset-search")
        assert hit.ok and hit.checked == report.ring_count == 38
        assert report.ok, [c.key for c in report.claims if not c.ok]


def test_03_pair_criterion(capsys, battery):
    report, _ = battery
    with criterion(capsys, 3, "pair-criterion"):
        assert claim(report, "pair-invariants").ok
        z6 = make_zmod(6)
        assert validate_pair(z6, {0, 2, 4}, {1, 3, 5}).ok
        r1 = validate_pair(z6, {0, 2, 4}, {1, 5})
        assert [c.key for c in r1.failed()] == ["translation_stable"]
        assert r1.failed()[0].witness == "1+2=3 not in M"
        r2 = validate_pair(z6, {0}, {1, 2, 4, 5})
        assert [c.key for c in r2.failed()] == ["regular_in_quotient"]
        realized = {(p.ideal, p.mset) for p in hom_poset(z6).elements}
        assert (frozenset({0}), frozenset({1, 2, 4, 5})) not in realized


def test_04_spectrum(capsys, battery):
    report, _ = battery
    with criterion(capsys, 4, "spectrum"):
        assert claim(report, "max-spec").ok
        assert claim(report, "greatest-unique-prime").ok
        table = spec_correspondence(make_zmod(12))
        assert [sorted(i.members) for i, _ in table] == [
            [0, 3, 6, 9], [0, 2, 4, 6, 8, 10],
        ]
        assert has_greatest(hom_poset(make_zmod(4))) is not None
        assert has_greatest(hom_poset(make_zmod(6))) is None


def test_05_completion_lattice(capsys, battery):
    report, _ = battery
    with criterion(capsys, 5, "completion-lattice"):
        assert claim(report, "bar-lattice").ok
        assert claim(report, "join-quotient").ok
        prod = make_product(make_zmod(4), make_zmod(9))
        assert len(hom_poset(prod, adjoin_top=True)) == 9
        bar12 = hom_poset(make_zmod(12), adjoin_top=True)
        els = hom_poset(make_zmod(12)).elements
        assert join_ext(els[2], els[3], bar12) is TOP  # ideals (4) and (3)
        assert join_ext(els[1], els[2], bar12) == els[4]  # (6) v (4) = (2)


def test_06_universal_property(capsys, battery):
    report, _ = battery
    with criterion(capsys, 6, "universal-property"):
        assert claim(report, "universal-contract").ok
        assert claim(report, "universal-factor").ok
        z12 = make_zmod(12)
        pair = hom_poset(z12).elements[1]  # ideal {0,6}
        loc = universal_inverting_finite(z12, pair)
        seen = 0
        for tgt in (make_zmod(2), make_zmod(3), make_zmod(4), make_zmod(6)):
            for f in enumerate_morphisms(z12, tgt):
                if leq(pair, pair_of_morphism(f)):
                    g = factor_through(loc.canonical, f)
                    assert compose(g, loc.canonical) == f
                    seen += 1
                else:
                    with pytest.raises(NoFactorization):
                        factor_through(loc.canonical, f)
        assert seen > 0


def test_07_stage_factorization(capsys, battery):
    report, _ = battery
    with criterion(capsys, 7, "stage-factorization"):
        assert claim(report, "factor-stages").ok
        assert claim(report, "corestriction-epi").ok
        f2, f4 = make_finite_field(2, 1), make_finite_field(2, 2)
        (emb,) = enumerate_morphisms(f2, f4)
        invariants = epi_obstruction_invariants(emb)
        assert invariants == (2, 2)  # obstruction group of order 4
        assert not is_ring_epimorphism(emb)
        fact = canonical_factorization(emb)
        assert fact.composite() == emb
        assert is_ring_epimorphism(fact.collapse)
        co = epimorphic_corestriction(emb)
        assert is_ring_epimorphism(co.corestriction)
        assert pair_of_morphism(co.corestriction) == pair_of_morphism(emb)


def test_08_integer_closed_forms(capsys):
    import random

    with criterion(capsys, 8, "integer-closed-forms"):
        rng = random.Random(20260818)
        primes = [p for p in range(2, 100) if is_prime(p)]
        pool = []
        for _ in range(60):
            kind = rng.randrange(3)
            if kind == 0:
                pool.append(z_modular(rng.randrange(2, 10001)))
            else:
                members = frozenset(rng.sample(primes, rng.randrange(0, 5)))
                pool.append(z_zero_kernel(PrimeSet(kind == 2, members)))
        checked = 0
        for x in pool:
            for y in pool:
                want = pointwise_leq(exponent_vector(y), exponent_vector(x))
                assert z_leq(x, y) == want, (x, y)
                checked += 1
        assert checked >= 1000
        assert is_maximal_over_z(z_modular(97)) and not is_maximal_over_z(z_modular(12))
        assert is_maximal_over_z(z_zero_kernel(NO_PRIMES))
        for x in pool:
            if is_maximal_over_z(x):
                assert not any(y != x and z_leq(x, y) for y in pool), x
        bot = z_zero_kernel(PrimeSet(True, frozenset()))  # avoids every prime
        assert all(z_leq(bot, y) for y in pool)


def test_09_limit_exchange(capsys, battery):
    report, _ = battery
    with criterion(capsys, 9, "limit-exchange"):
        assert claim(report, "limit-exchange").ok
        f2 = make_finite_field(2, 1)
        f4 = make_finite_field(2, 2)
        f16 = make_finite_field(2, 4)
        (e1,) = enumerate_morphisms(f2, f4)
        e2 = enumerate_morphisms(f4, f16)[0]
        assert limit_exchange_check([f2, f4, f16], [e1, e2]).ok
        (p1,) = enumerate_morphisms(make_zmod(12), make_zmod(6))
        (p2,) = enumerate_morphisms(make_zmod(6), make_zmod(2))
        assert limit_exchange_check(
            [make_zmod(12), make_zmod(6), make_zmod(2)], [p1, p2]
        ).ok


def test_10_composition_monotone(capsys, battery):
    report, _ = battery
    with criterion(capsys, 10, "composition-monotone"):
        assert claim(report, "compose-order").ok
        (f,) = enumerate_morphisms(make_zmod(12), make_zmod(6))
        (g,) = enumerate_morphisms(make_zmod(6), make_zmod(2))
        assert leq(pair_of_morphism(f), pair_of_morphism(compose(g, f)))
        f4, f16 = make_finite_field(2, 2), make_finite_field(2, 4)
        for e in enumerate_morphisms(f4, f16):
            for h in enumerate_morphisms(f16, f16):
                assert leq(pair_of_morphism(e), pair_of_morphism(compose(h, e)))
