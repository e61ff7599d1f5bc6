"""Statistics the benchmark reports: percentiles, span self time, failures.

Stdlib only, and free of homposet imports, so the tests in
perfbench/tests can check these rules on hand-made data.
"""
from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so p99 needs 1000 samples and p50 needs 20.
MIN_BEYOND = 10


def percentile(samples, q: float):
    """Nearest-rank q-quantile (0 < q < 1), or None when too few samples.

    The value at rank ceil(q * n) of the sorted samples is returned only
    when at least MIN_BEYOND samples rank above it.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def tail_latency(samples, q: float = 0.99):
    """(value, label): the q-quantile, or the median when it is not reportable.

    The label says which statistic the value is, so a summary never calls a
    median a p99.  The median, unlike the maximum, stays steady when a run
    has only a few samples.
    """
    value = percentile(samples, q)
    if value is not None:
        return value, f"p{round(q * 100)}"
    return statistics.median(samples), f"median; p{round(q * 100)} needs more samples"


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover.

    spans are mappings with id, parent, start and end.  Children are
    clipped to their parent and overlapping children are counted once.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans) -> dict:
    """Total self time per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def failed_ratio(outcomes) -> tuple:
    """(attempted, failed, ratio) over per-operation outcomes.

    An outcome is True for a correct result and False for an exception,
    a nonzero exit, a wrong output or a timeout.
    """
    outcomes = list(outcomes)
    attempted = len(outcomes)
    failed = sum(1 for ok in outcomes if not ok)
    if attempted == 0:
        raise ValueError("no operation was attempted")
    return attempted, failed, failed / attempted


def quartile_spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med
