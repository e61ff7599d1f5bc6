#!/usr/bin/env python3
"""Sweep the verification battery over increasing catalog bounds.

Prints one summary row per bound and the full report for any bound where
a claim fails.  Exit code 1 on any failure, 2 when --only names no claim,
0 otherwise.

    python3 scripts/run_oracle.py
    python3 scripts/run_oracle.py --bounds 8,16,24 --only lattice
"""
import argparse
import sys
import time

from homposet.oracle import build_catalog, check_only, verify_theorems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bounds", default="4,8,12,16",
                    help="comma separated catalog size bounds")
    ap.add_argument("--only", default=None,
                    help="restrict to claims whose key contains this substring")
    args = ap.parse_args()
    try:
        check_only(args.only)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failed = False
    for bound in (int(b) for b in args.bounds.split(",")):
        t0 = time.perf_counter()
        catalog = build_catalog(bound)
        report = verify_theorems(catalog, only=args.only)
        dt = time.perf_counter() - t0
        good = sum(1 for c in report.claims if c.ok)
        print(f"bound {bound:3d}: {len(catalog.rings):3d} rings, "
              f"{good}/{len(report.claims)} claims hold, {dt:7.2f}s")
        if not report.ok:
            failed = True
            print(report.render_text())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
