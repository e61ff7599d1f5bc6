"""Steadiness check: two sets of benchmark runs of the same code must agree.

    python3 perfbench/steady.py --workload hom-ladder --first-seed 1000

Run it from the repository root.  It makes two sets of ten runs, each run
with its own seed.  For each end-to-end metric in BENCHMARK.json the
script prints, per set, the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, then whether the sets agree:
both spreads within the metric's bound, and the second median within the
bound of the first, in either direction.  The target for a steady benchmark is
a spread below a third of the bound.  The raw values go to
perfbench/out/steady-<workload>.json.  Exit status 1 means disagreement
or a run that failed its checks.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchmath

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets, healthy = [], True
    for s in range(SETS):
        runs = []
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            out = one_run(args.workload, seed, spec["run_seconds"])
            healthy &= out["correct"] and out["failed"] == 0
            runs.append({"seed": seed, **out})
            print(f"set {s} seed {seed}: " + " ".join(
                f"{m['name']}={out['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)
        sets.append(runs)
    agree = healthy
    summary = {}
    for m in metrics:
        name, rows = m["name"], []
        for runs in sets:
            med, q1, q3, spread = benchmath.quartile_spread(
                [r["metrics"][name]["value"] for r in runs])
            rows.append({"median": med, "q1": q1, "q3": q3, "spread": spread})
        drift = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
        ok = all(r["spread"] <= m["bound"] for r in rows) and abs(drift) <= m["bound"]
        agree &= ok
        summary[name] = {"sets": rows, "bound": m["bound"], "drift": drift, "agree": ok}
        spreads = " ".join(f"{r['spread']:.3f}" for r in rows)
        print(f"{args.workload:12s} {name:12s} medians "
              + " ".join(f"{r['median']:.6g}" for r in rows)
              + f"  spreads {spreads} (bound {m['bound']}, target < {m['bound'] / 3:.3f})"
              + f"  drift {drift:+.3f}  {'agree' if ok else 'DISAGREE'}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{args.workload}.json").write_text(
        json.dumps({"summary": summary, "runs": sets}, indent=2))
    print(f"{args.workload}: {'steady' if agree else 'NOT steady'}"
          + ("" if healthy else " (a run failed its checks)"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
