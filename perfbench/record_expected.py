"""Write expected.json: the outputs that every benchmark run must reproduce.

    python3 perfbench/record_expected.py

Run it from the repository root, on the commit whose outputs are the
reference.  It records the sha256 of each hom-ladder ring's JSON output
and the oracle-32 ring count and per-claim checked counts.  The CLI output
is meant to stay byte-stable, so the file changes only when an output
change is intended.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    hom = run.Run("hom-ladder", 0)
    result, _ = hom.spawn("run", 0)
    orc = run.Run("oracle-32", 0)
    report, _ = orc.spawn("run", 0)
    if result is None or report is None:
        print("\n".join(hom.notes + orc.notes), file=sys.stderr)
        return 1
    rings, claims, held = workloads.parse_oracle_text(report["ops"][0]["text"])
    if held != (len(workloads.CLAIM_KEYS),) * 2 or list(claims) != list(workloads.CLAIM_KEYS):
        print(f"oracle did not hold every claim: {held}", file=sys.stderr)
        return 1
    expected = {
        "hom-ladder": {op["op"]: op["sha256"] for op in sorted(result["ops"], key=lambda o: o["op"])},
        "oracle-32": {"rings": rings, "checked": {k: n for k, (_, n) in claims.items()}},
    }
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
