"""Tests of the benchmark's own arithmetic and input generator.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchmath  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


# --- percentile rule --------------------------------------------------------

def test_p99_needs_ten_samples_beyond():
    assert benchmath.percentile(range(999), 0.99) is None
    assert benchmath.percentile(range(1000), 0.99) == 989  # ranks 991..1000 lie beyond


def test_p50_needs_ten_samples_beyond():
    assert benchmath.percentile(range(19), 0.5) is None
    assert benchmath.percentile(range(20), 0.5) == 9


def test_percentile_is_nearest_rank_of_sorted_samples():
    samples = list(range(2000, 0, -1))
    assert benchmath.percentile(samples, 0.99) == 1980
    assert benchmath.percentile(samples, 0.5) == 1000


def test_tail_latency_labels_the_fallback():
    assert benchmath.tail_latency(range(1000)) == (989, "p99")
    value, label = benchmath.tail_latency([3.0, 1.0, 2.0])
    assert value == 2.0 and label.startswith("median")


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        benchmath.percentile(range(100), 1.0)


# --- self time ----------------------------------------------------------------

def span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name}


def test_self_time_subtracts_children_only_one_level():
    spans = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 4.0, "a"),
        span(2, 1, 2.0, 3.0, "b"),
        span(3, 0, 5.0, 9.0, "a"),
    ]
    own = benchmath.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0
    assert benchmath.self_time_by_name(spans) == {"root": 3.0, "a": 6.0, "b": 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 6.0),
        span(2, 0, 4.0, 8.0),
        span(3, 0, 9.0, 12.0),
    ]
    assert benchmath.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_self_times_add_up():
    ticks = iter(range(100))
    tracer = Tracer("run-1", clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner") as s:
            s["counts"]["n"] = 3
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (first["parent"], second["parent"], outer["parent"]) == (0, 0, None)
    assert {s["run"] for s in tracer.spans} == {"run-1"}
    assert first["counts"] == {"n": 3}
    own = benchmath.self_times(tracer.spans)
    assert sum(own.values()) == outer["end"] - outer["start"]
    assert own[0] == (outer["end"] - outer["start"]) - 2


def test_tracer_closes_span_on_exception():
    tracer = Tracer("r")
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError
    assert tracer.spans[0]["end"] is not None
    with tracer.span("next"):
        pass
    assert tracer.spans[1]["parent"] is None


# --- failed ratio -------------------------------------------------------------

def test_failed_ratio_counts_every_false_outcome():
    assert benchmath.failed_ratio([True, False, True, False]) == (4, 2, 0.5)
    assert benchmath.failed_ratio([True] * 3) == (3, 0, 0.0)


def test_failed_ratio_needs_an_attempt():
    with pytest.raises(ValueError):
        benchmath.failed_ratio([])


def test_quartile_spread_matches_statistics_quantiles():
    med, q1, q3, spread = benchmath.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert spread == pytest.approx(5.5 / 5.5)


# --- inputs -------------------------------------------------------------------

@pytest.fixture(scope="module")
def primes():
    return workloads.primes_below(workloads.SIEVE_LIMIT)


def test_sieve_matches_trial_division():
    small = workloads.primes_below(2000)
    assert small == [n for n in range(2, 2000)
                     if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_zhom_generator_is_deterministic_per_seed(primes):
    a = workloads.zhom_queries(7, 0, primes, size=500)
    assert a == workloads.zhom_queries(7, 0, primes, size=500)
    assert a != workloads.zhom_queries(8, 0, primes, size=500)
    assert a != workloads.zhom_queries(7, 1, primes, size=500)


def test_zhom_mix_and_factor_range(primes):
    from sympy import factorint

    queries = workloads.zhom_queries(3, 0, primes, size=3000)
    gcd = [q for q in queries if q[3] == "gcd_only"]
    assert 0.28 < len(gcd) / len(queries) < 0.39  # away from 50/50
    for verb, x, y, cls in queries[:600]:
        if cls == "gcd_only":
            assert x.startswith("n:") and y.startswith("n:")
            continue
        modulus = int((x if x.startswith("n:") else y)[2:])
        big = {p: e for p, e in factorint(modulus).items() if p > 3}
        assert len(big) == 2 and set(big.values()) == {1}
        assert all(100 < p < 10**6 for p in big)


def test_hom_ladder_order_is_a_seeded_permutation():
    assert workloads.hom_ladder(5, 0) == workloads.hom_ladder(5, 0)
    assert sorted(workloads.hom_ladder(5, 0)) == sorted(workloads.LADDER)
    assert {tuple(workloads.hom_ladder(s, 0)) for s in range(5)} != {tuple(workloads.LADDER)}


def test_pair_counts_of_the_ladder():
    expected = {"zmod:64": 6, "zmod:256": 8, "product:zmod:8:zmod:16": 19,
                "product:zmod:4:product:zmod:4:zmod:4": 26, workloads.F2_7: 127,
                "gf:2:7": 1, "matrix:2:zmod:3": 1, "quot:zmod:256:gens=64": 6}
    for description, pairs in expected.items():
        assert workloads.expected_pairs(description) == pairs


def test_oracle_text_parser():
    text = ("oracle battery over 3 rings (bound 4)\n"
            "ok   ring-axioms: tables are rings [3 checked]\n"
            "FAIL max-spec: chains [2 checked]\n"
            "     witness: something\n"
            "1/2 claims hold\n")
    rings, claims, held = workloads.parse_oracle_text(text)
    assert rings == 3
    assert claims == {"ring-axioms": ("ok", 3), "max-spec": ("fail", 2)}
    assert held == (1, 2)


# --- end-to-end timings ---------------------------------------------------------

def test_timings_come_from_each_operations_median_over_batches():
    r = run.Run("hom-ladder", 1)
    r.setups = [0.2, 0.1, 0.3]
    r.batches = [{"cpu_s": a + b, "wall_s": a + b, "rss_kb": 1024,
                  "ops": [{"op": "small", "s": a}, {"op": "big", "s": b}]}
                 for a, b in ((0.001, 0.1), (0.002, 0.3), (0.009, 0.2))]
    assert sorted(r.op_medians_ms()) == pytest.approx([2.0, 200.0])
    values = r.end_to_end()
    assert values["setup_s"][0] == 0.2
    assert values["batch_cpu_s"][0] == pytest.approx(0.209)
    assert values["op_cpu_p50_ms"][0] == pytest.approx(101.0)
    assert values["op_cpu_p99_ms"][0] == pytest.approx(101.0)  # too few for a p99
    assert values["peak_rss_mb"][0] == 1.0


# --- traced-run checks ----------------------------------------------------------

def traced_batch(root_end, child_end):
    """A traced zhom batch: one root span from 0 to root_end, one module span from 0."""
    return {"ops": [], "spans": [span(0, None, 0.0, root_end, "run"),
                                 span(1, 0, 0.0, child_end, "zhom.z_leq")]}


def fake_run(traced, untraced_cpus):
    r = run.Run("zhom-bigint", 1)
    r.batches = [{"cpu_s": c, "wall_s": 2 * c, "ops": [], "rss_kb": 0} for c in untraced_cpus]
    r.traced = traced
    return r


def test_trace_cost_is_median_traced_minus_median_untraced():
    r = fake_run([traced_batch(t, t) for t in (4.0, 2.0, 3.0)], [1.0, 2.5, 2.0])
    values = r.traced_layers()
    assert values["trace.traced_cpu_s"][0] == 3.0
    assert values["trace.untraced_cpu_s"][0] == 2.0
    assert values["batch.wall_s"][0] == 4.0  # median wall time, twice the CPU time here
    assert values["trace.overhead_s"][0] == 1.0
    assert values["trace.unspanned_s"][0] == 0.0
    assert r.outcomes == [] and r.notes == []


def test_time_outside_module_spans_fails_the_batch():
    r = fake_run([traced_batch(10.0, 9.0), traced_batch(10.0, 9.9)], [10.0])
    values = r.traced_layers()
    assert values["trace.unspanned_s"][0] == pytest.approx(0.55)
    assert r.outcomes == [False]  # 1.0 s of 10 s is over the 5% limit; 0.1 s is not


def test_negative_overhead_beyond_the_untraced_range_is_flagged():
    r = fake_run([traced_batch(5.0, 5.0)], [8.0, 8.5, 9.0])
    r.traced_layers()
    assert any("negative" in note for note in r.notes)
    r = fake_run([traced_batch(7.8, 7.8)], [7.5, 8.5, 9.0])
    r.traced_layers()
    assert r.notes == []


# --- metric names ---------------------------------------------------------------

def test_trajectory_maps_only_metrics_that_benchmark_json_lists():
    trajectory = json.loads((run.HERE / "trajectory.json").read_text())
    mapped = {name for w in trajectory["workloads"].values() for name in w["layers"]}
    listed = set(run.PER_LAYER)
    assert mapped <= listed
    assert {n for n in listed if not n.startswith(("trace.", "batch."))} <= mapped
    for point in trajectory["trajectory"]:
        assert {n for w in point["per_layer"].values() for n in w} <= listed
        assert {n for w in point["end_to_end"].values() for n in w} == set(run.END_TO_END)
