"""The homposet benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload hom-ladder --seed 1 --seconds 30 --trace 0

Run it from the repository root; homposet is imported from src/.
Workloads (see workloads.py and trajectory.json):

  hom-ladder   `homposet hom <ring> --format json` over a ladder of rings
  oracle-32    `homposet oracle --bound 32`
  zhom-bigint  a seeded stream of closed-form queries over Z
  all          the three in turn, with one summary line per metric

Each batch runs in a fresh interpreter (worker.py), one at a time, so the
library's caches start cold as they do for every CLI call.  Batches start
until --seconds have passed; a batch that outlives WORKER_TIMEOUT_S is
killed and all its operations count as failed.  Set-up is timed in every
batch and in a set-up-only worker before each batch, so its samples spread
over the run as the batches do, and it is reported as their median.

Times are CPU seconds of the worker process (see worker.py).  On a shared
host, wall time also counts the slices in which other tenants ran: over
six hom-ladder runs, the spread of the batches' median wall time was 0.14
of its median, that of their CPU time 0.02.  The batches' wall time is
reported with the per-layer metrics, as batch.wall_s.

--trace 0 prints the end-to-end metrics, from untraced batches only.
--trace 1 follows each untraced batch with a traced batch on the same
inputs, for at least TRACED_BATCHES pairs, and prints the per-layer
metrics: span self times and counts as medians over the traced batches,
per-query percentiles and wall time from the untraced batches, and the
tracing cost.
A traced batch fails its check when more than UNSPANNED_SHARE of it lies
outside every module span.  The spans are written to perfbench/out/.
Metric names and units are those of BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  failed / attempted is the failed ratio:
an operation fails on an exception, a nonzero exit, a wrong output or a
timeout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchmath
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"  # written by record_expected.py

WORKER_TIMEOUT_S = 60
TRACED_BATCHES = 3      # at least this many traced batches in a --trace 1 run
UNSPANNED_SHARE = 0.05  # most of a traced batch that may lie outside module spans

# Metric names and units come from BENCHMARK.json, next to perfbench/;
# end_to_end() and per_layer() must produce exactly those names.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """State of one benchmark run: batches, set-up samples and failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setups = []
        self.batches = []       # untraced worker results
        self.traced = []        # traced worker results, one per untraced batch
        self.outcomes = []      # one bool per attempted operation
        self.notes = []
        self._primes = None

    # -- workers -------------------------------------------------------------

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("HOMPOSET_TABLE_CAP", None)
        if self.workload == "hom-ladder":
            env["HOMPOSET_TABLE_CAP"] = workloads.HOM_TABLE_CAP
        return env

    def spawn(self, mode: str, batch: int):
        """Run one worker; returns (result or None, seconds it took)."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--batch", str(batch), "--mode", mode]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self._env(), capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.notes.append(f"batch {batch} ({mode}) timed out after {WORKER_TIMEOUT_S} s")
            return None, time.monotonic() - start
        took = time.monotonic() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.notes.append(f"batch {batch} ({mode}) exited {proc.returncode}: {tail[0]}")
            return None, took
        result = json.loads(proc.stdout.splitlines()[-1])
        src = Path("src").resolve()
        if Path(result["homposet"]).resolve().parent.parent != src:
            raise SystemExit(f"worker imported homposet from {result['homposet']}, not {src}")
        self.setups.append(result["ready_cpu_s"])
        return result, took

    def batch_size(self) -> int:
        return {"hom-ladder": len(workloads.LADDER), "oracle-32": 1,
                "zhom-bigint": workloads.ZHOM_BATCH}[self.workload]

    # -- checks ------------------------------------------------------------------

    def check(self, batch: int, result):
        """Record the per-operation outcomes of one batch."""
        if result is None:
            self.outcomes += [False] * self.batch_size()
            return
        checker = {"hom-ladder": self._check_hom, "oracle-32": self._check_oracle,
                   "zhom-bigint": self._check_zhom}[self.workload]
        self.outcomes += checker(batch, result["ops"])

    def _check_hom(self, batch, ops):
        expected = json.loads(EXPECTED.read_text())["hom-ladder"]
        outcomes = []
        for op in ops:
            d = op["op"]
            ok = (op["rc"] == 0 and op["sha256"] == expected[d]
                  and op["pairs"] == workloads.expected_pairs(d))
            if not ok:
                self.notes.append(f"batch {batch}: hom {d} rc={op['rc']} pairs={op['pairs']}")
            outcomes.append(ok)
        if sorted(op["op"] for op in ops) != sorted(workloads.LADDER):
            self.notes.append(f"batch {batch}: ladder incomplete")
            outcomes.append(False)
        return outcomes

    def _check_oracle(self, batch, ops):
        expected = json.loads(EXPECTED.read_text())["oracle-32"]
        outcomes = []
        for op in ops:
            rings, claims, held = workloads.parse_oracle_text(op["text"])
            ok = (op["rc"] == 0 and rings == expected["rings"]
                  and claims == {k: ("ok", n) for k, n in expected["checked"].items()}
                  and held == (len(workloads.CLAIM_KEYS), len(workloads.CLAIM_KEYS)))
            if not ok:
                self.notes.append(f"batch {batch}: oracle rc={op['rc']} rings={rings} held={held}")
            outcomes.append(ok)
        return outcomes

    def _check_zhom(self, batch, ops):
        import reference  # sympy loads only in runs that need it

        queries = self.zhom_queries(batch)
        if len(ops) != len(queries):
            self.notes.append(f"batch {batch}: {len(ops)} zhom answers for {len(queries)} queries")
            return [False] * len(queries)
        outcomes = [op["out"] == reference.answer(verb, x, y)
                    for (verb, x, y, _), op in zip(queries, ops)]
        if not all(outcomes):
            self.notes.append(f"batch {batch}: {outcomes.count(False)} wrong zhom answers")
        return outcomes

    def zhom_queries(self, batch: int) -> list:
        if self._primes is None:
            self._primes = workloads.primes_below(workloads.SIEVE_LIMIT)
        return workloads.zhom_queries(self.seed, batch, self._primes)

    # -- the run -------------------------------------------------------------------

    def execute(self, seconds: float, trace: bool):
        warm, _ = self.spawn("setup", -1)  # compiles bytecode; not measured
        if warm is None:
            raise SystemExit(f"cannot start a worker: {self.notes[-1]}")
        self.setups.clear()
        start = time.monotonic()
        batch = 0
        while batch < (TRACED_BATCHES if trace else 1) or time.monotonic() - start < seconds:
            if self.spawn("setup", -1)[0] is None:
                raise SystemExit(f"set-up failed: {self.notes[-1]}")
            result, took = self.spawn("run", batch)
            self.check(batch, result)
            if result is None:
                result = {"cpu_s": took, "wall_s": took, "ops": [], "rss_kb": 0}
            self.batches.append(result)
            if trace:  # the same inputs again, so the overhead compares like with like
                result, _ = self.spawn("trace", batch)
                self.check(batch, result)
                if result is not None:
                    self.traced.append(result)
            batch += 1

    # -- metrics -------------------------------------------------------------------

    def op_medians_ms(self) -> list:
        """Each operation's median CPU time over the run's untraced batches.

        Every batch repeats hom-ladder's rings and the oracle call, so each
        is timed once per batch.  Taking each one's own median first keeps a
        run's figures off the gaps between operations of very different
        cost: hom-ladder's rings differ by up to 500x.  zhom-bigint's
        queries differ in every batch, so each has a single time.
        """
        times = {}
        for batch, b in enumerate(self.batches):
            for i, op in enumerate(b["ops"]):
                key = op.get("op", (batch, i))  # a ring, the oracle call, or a zhom query
                times.setdefault(key, []).append(op["s"] * 1e3)
        return [statistics.median(t) for t in times.values()]

    def pooled_op_ms(self, cls=None, verb=None) -> list:
        """Every untraced zhom latency of one query class or verb."""
        return [op["s"] * 1e3 for batch, b in enumerate(self.batches)
                for q, op in zip(self.zhom_queries(batch), b["ops"])
                if q[3] == cls or q[0] == verb]

    def end_to_end(self) -> dict:
        ops = self.op_medians_ms()
        tail, label = benchmath.tail_latency(ops) if ops else (0.0, "none")
        n = len(self.batches)
        return named_as_in_spec({
            "setup_s": (statistics.median(self.setups), len(self.setups), "median CPU time"),
            "batch_cpu_s": (statistics.median(b["cpu_s"] for b in self.batches), n,
                            "median of batches"),
            "op_cpu_p50_ms": (statistics.median(ops) if ops else 0.0, len(ops),
                              f"median of the operations' medians over {n} batches"),
            "op_cpu_p99_ms": (tail, len(ops), f"{label} of the operations' medians"),
            "peak_rss_mb": (statistics.median(b["rss_kb"] for b in self.batches) / 1024,
                            len(self.batches), "median of batches"),
        }, END_TO_END)

    def per_layer(self) -> dict:
        values = {name: (0.0, 0, "not exercised") for name in PER_LAYER}
        if self.workload == "zhom-bigint":
            groups = [("verb", v) for v in workloads.FACTOR_VERBS]
            groups += [("cls", c) for c in ("factoring", "gcd_only")]
            for kind, name in groups:
                samples = self.pooled_op_ms(**{kind: name})
                for q, label in ((0.5, "p50"), (0.99, "p99")):
                    v = benchmath.percentile(samples, q)
                    values[f"zhom.{name}.{label}_ms"] = (
                        0.0 if v is None else v, len(samples), "untraced, pooled"
                        if v is not None else "too few samples")
                if kind == "cls":
                    values[f"zhom.{name}.count"] = (len(samples), len(samples), "untraced")
        if self.traced:
            values.update(self.traced_layers())
        return named_as_in_spec(values, PER_LAYER)

    def traced_layers(self) -> dict:
        """Span metrics as medians over the traced batches, plus the tracing cost."""
        per_batch = [self.span_layers(t["spans"]) for t in self.traced]
        values = {name: (statistics.median(b[name][0] for b in per_batch), n,
                         f"median of {len(per_batch)} traced batches; {how}")
                  for name, (_, n, how) in per_batch[0].items()}
        traced_cpus, unspanned = [], []
        for t in self.traced:
            spans = t["spans"]
            root = next(s for s in spans if s["parent"] is None)
            cpu = root["end"] - root["start"]
            own = benchmath.self_times(spans)[root["id"]]
            if own > UNSPANNED_SHARE * cpu:  # time that no module span accounts for
                self.notes.append(f"{own:.3f} s of a {cpu:.3f} s traced batch lies "
                                  f"outside every module span (limit {UNSPANNED_SHARE:.0%})")
                self.outcomes.append(False)
            traced_cpus.append(cpu)
            unspanned.append(own)
        untraced = [b["cpu_s"] for b in self.batches]
        traced_cpu = statistics.median(traced_cpus)
        untraced_cpu = statistics.median(untraced)
        overhead = traced_cpu - untraced_cpu
        if overhead < -(max(untraced) - min(untraced)):
            self.notes.append(f"tracing overhead {overhead:.3f} s is negative beyond the "
                              "untraced batches' range: the traced calls outran the CLI "
                              "path, or the host's speed changed")
        n = len(traced_cpus)
        values["batch.wall_s"] = (statistics.median(b["wall_s"] for b in self.batches),
                                  len(self.batches), "median wall time of untraced batches")
        values["trace.untraced_cpu_s"] = (untraced_cpu, len(untraced), "median, same inputs")
        values["trace.traced_cpu_s"] = (traced_cpu, n, "median of root spans")
        values["trace.overhead_s"] = (overhead, n, "traced - untraced medians")
        values["trace.unspanned_s"] = (statistics.median(unspanned), n,
                                       "median root self time: inside no module span")
        return values

    def span_layers(self, spans) -> dict:
        """Per-layer self times and counts of one traced batch."""
        selfs = benchmath.self_time_by_name(spans)
        values = {}

        def total(name, count=None):
            chosen = [s for s in spans if s["name"] == name]
            if count is None:
                return selfs.get(name, 0.0), len(chosen)
            return sum(s["counts"].get(count, 0) for s in chosen), len(chosen)

        for name in ("cli.parse_ring", "rings.enumerate_ideals", "poset.hom_poset",
                     "poset.hasse", "cli.render", "oracle.build_catalog",
                     "morphisms.enumerate_morphisms"):
            values[f"{name}.s"] = (*total(name), "self time")
        values["rings.enumerate_ideals.count"] = (*total("rings.enumerate_ideals", "count"), "sum")
        values["poset.pairs.count"] = (*total("poset.hom_poset", "pairs"), "sum")
        values["poset.hasse.edges"] = (*total("poset.hasse", "edges"), "sum")
        values["oracle.catalog.rings"] = (*total("oracle.build_catalog", "rings"), "sum")
        searches = [s for s in spans if s["name"] == "morphisms.enumerate_morphisms"]
        found = sum(s["counts"]["found"] for s in searches)
        hits = sum(1 for s in searches if s["counts"]["found"])
        values["morphisms.enumerate_morphisms.searches"] = (len(searches), len(searches), "spans")
        values["morphisms.enumerate_morphisms.found"] = (found, len(searches), "sum")
        values["morphisms.enumerate_morphisms.hit_ratio"] = (
            hits / len(searches) if searches else 0.0, len(searches), "searches finding >= 1")
        for key in workloads.CLAIM_KEYS:
            name = f"oracle.claim.{key}"
            values[f"{name}.s"] = (*total(name), "self time")
            values[f"{name}.checked"] = (*total(name, "checked"), "sum")
            if any(s["counts"].get("selected", 1) != 1 for s in spans if s["name"] == name):
                self.notes.append(f"--only {key} did not select exactly one claim")
                self.outcomes.append(False)
        if self.workload == "oracle-32" and sorted(
                s["name"] for s in spans if s["name"].startswith("oracle.claim.")) != sorted(
                f"oracle.claim.{k}" for k in workloads.CLAIM_KEYS):
            self.notes.append("traced claims differ from the expected keys")
            self.outcomes.append(False)
        return values

    def write_spans(self):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps([s for t in self.traced for s in t["spans"]]))
        return path


def named_as_in_spec(values: dict, spec: dict) -> dict:
    """values, once its metric names are exactly those BENCHMARK.json lists."""
    if set(values) != set(spec):
        raise SystemExit("metric names differ from BENCHMARK.json: "
                         + ", ".join(sorted(set(values) ^ set(spec))))
    return values


def summarize(workload: str, values: dict, units: dict) -> list:
    """One line per metric; layers the workload never entered share one line."""
    lines = [f"{workload:12s} {name:44s} {value:>14.6g} {units[name]:6s} n={n:<6d} {how}"
             for name, (value, n, how) in values.items() if n]
    idle = [name for name, (_, n, _) in values.items() if not n]
    if idle:
        lines.append(f"{workload:12s} {len(idle)} metrics of layers this workload does not "
                     "enter are reported as 0")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed)
    run.execute(seconds, trace)
    if trace:
        values, units = run.per_layer(), PER_LAYER
        print(f"{workload:12s} spans written to {run.write_spans().relative_to(Path.cwd())}")
    else:
        values, units = run.end_to_end(), END_TO_END
    for line in summarize(workload, values, units):
        print(line)
    for note in run.notes:
        print(f"{workload:12s} note: {note}")
    attempted, failed, ratio = benchmath.failed_ratio(run.outcomes)
    print(f"{workload:12s} {'failed_ratio':44s} {ratio:>14.6g} {'ratio':6s} "
          f"n={attempted:<6d} {failed} failed of {attempted} attempted")
    metrics = {name: {"value": v, "unit": units[name]} for name, (v, _, _) in values.items()}
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/homposet/__init__.py").is_file():
        print("error: run from the repository root; src/homposet is missing", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        ok, a, f, m = run_one(workload, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        if args.workload == "all":
            m = {f"{workload}.{k}": v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
