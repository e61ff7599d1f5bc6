"""One batch of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --batch B --mode M

Modes: "setup" imports homposet and makes the inputs, then stops; "run"
times the batch untraced; "trace" runs it with spans around each call into
a homposet module.  The worker prints one JSON object on stdout: the CPU
time its process had used when set-up ended, the batch's CPU and wall
time, per-operation CPU times and outputs, its peak RSS, and the spans
when traced.  The parent (run.py) checks the outputs.  homposet must be
importable from src/.

Every time but the batch's wall time is CPU time of this process
(time.process_time).  The worker is single-threaded and does no I/O
beyond reading its own modules, so on an idle machine its CPU time is its
wall time; on a shared host the wall time also counts the slices in which
the host ran other tenants.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import workloads
from spans import Tracer

from homposet import cli, morphisms, oracle, poset, rings, zhom

clock = time.process_time


# --- hom-ladder -------------------------------------------------------------

def _hom_op(description, seconds, rc, text):
    op = {"op": description, "s": seconds, "rc": rc,
          "sha256": hashlib.sha256(text.encode()).hexdigest(), "pairs": None}
    try:
        op["pairs"] = len(json.loads(text)["elements"])
    except (ValueError, KeyError, TypeError):
        pass
    return op


def hom_run(ladder):
    outputs = []
    for description in ladder:
        buf = io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["hom", description, "--format", "json"])
        except (Exception, SystemExit) as e:
            rc = f"raised {e!r}"
        outputs.append((description, clock() - t, rc, buf.getvalue()))
    return [_hom_op(*o) for o in outputs]


def hom_trace(ladder, tracer):
    caps = cli.caps_from_env()
    outputs = []
    with tracer.span("run"):
        for description in ladder:
            t = clock()
            try:
                with tracer.span("cli.hom"):
                    with tracer.span("cli.parse_ring"):
                        ring = cli.parse_ring(description, caps)
                    with tracer.span("rings.enumerate_ideals") as s:
                        s["counts"]["count"] = len(rings.enumerate_ideals(ring))
                    with tracer.span("poset.hom_poset") as s:
                        pst = poset.hom_poset(ring)
                        s["counts"]["pairs"] = len(pst.elements)
                    with tracer.span("poset.hasse") as s:
                        s["counts"]["edges"] = len(poset.hasse(pst))
                    with tracer.span("cli.render"):
                        text = cli.render_hom_json(ring, pst, cli.format_ring(ring)) + "\n"
                rc = 0
            except Exception as e:
                rc, text = f"raised {e!r}", ""
            outputs.append((description, clock() - t, rc, text))
    return [_hom_op(*o) for o in outputs]


# --- oracle-32 --------------------------------------------------------------

def oracle_run(bound):
    buf = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["oracle", "--bound", str(bound)])
    except (Exception, SystemExit) as e:
        rc = f"raised {e!r}"
    return [{"op": f"oracle --bound {bound}", "s": clock() - start, "rc": rc,
             "text": buf.getvalue()}]


def oracle_trace(bound, tracer):
    caps = cli.caps_from_env()
    t = clock()
    with tracer.span("run"):
        with tracer.span("oracle.build_catalog") as s:
            catalog = oracle.build_catalog(bound, caps)
            s["counts"]["rings"] = len(catalog.rings)
        for src in catalog.rings:
            for tgt in catalog.rings:
                with tracer.span("morphisms.enumerate_morphisms") as s:
                    s["counts"]["found"] = len(morphisms.enumerate_morphisms(src, tgt, caps))
        claims = []
        for key, _, _ in oracle.CLAIMS:
            with tracer.span(f"oracle.claim.{key}") as s:
                report = oracle.verify_theorems(catalog, only=key, caps=caps)
                s["counts"]["checked"] = sum(c.checked for c in report.claims)
                s["counts"]["selected"] = len(report.claims)
            claims.extend(report.claims)
        with tracer.span("oracle.render"):
            text = oracle.OracleReport(bound, len(catalog.rings), False,
                                       tuple(claims)).render_text() + "\n"
    return [{"op": f"oracle --bound {bound}", "s": clock() - t, "rc": 0, "text": text}]


# --- zhom-bigint ------------------------------------------------------------

VERBS = {"z_leq": zhom.z_leq, "z_meet": zhom.z_meet, "z_join": zhom.z_join}


def _value(v) -> str:
    return "inf" if v == math.inf else str(int(v))


def format_vector(vec) -> str:
    body = " ".join(f"{p}:{_value(v)}" for p, v in vec.overrides)
    return f"{_value(vec.default)};{body};{vec.slot}"


def zhom_answer(verb, x_text, y_text):
    x = zhom.parse_z_element(x_text)
    if verb == "exponent_vector":
        return format_vector(zhom.exponent_vector(x))
    out = VERBS[verb](x, zhom.parse_z_element(y_text))
    if verb == "z_leq":
        return "true" if out else "false"
    return zhom.format_z_element(out)


def zhom_run(queries):
    ops = []
    for verb, x, y, _ in queries:
        t = clock()
        try:
            out = zhom_answer(verb, x, y)
        except Exception as e:
            out = f"raised {e!r}"
        ops.append((clock() - t, out))
    return [{"s": s, "out": out} for s, out in ops]


def zhom_trace(queries, tracer):
    ops = []
    with tracer.span("run"):
        for verb, x_text, y_text, _ in queries:
            t = clock()
            try:
                with tracer.span("zhom.parse_z_element"):
                    x = zhom.parse_z_element(x_text)
                if verb == "exponent_vector":
                    with tracer.span("zhom.exponent_vector"):
                        vec = zhom.exponent_vector(x)
                    out = format_vector(vec)
                else:
                    with tracer.span("zhom.parse_z_element"):
                        y = zhom.parse_z_element(y_text)
                    with tracer.span(f"zhom.{verb}"):
                        res = VERBS[verb](x, y)
                    if verb == "z_leq":
                        out = "true" if res else "false"
                    else:
                        with tracer.span("zhom.format_z_element"):
                            out = zhom.format_z_element(res)
            except Exception as e:
                out = f"raised {e!r}"
            ops.append({"s": clock() - t, "out": out})
    return ops


# --- entry point ------------------------------------------------------------

def make_inputs(workload, seed, batch):
    if workload == "hom-ladder":
        return workloads.hom_ladder(seed, batch)
    if workload == "oracle-32":
        return workloads.ORACLE_BOUND
    primes = workloads.primes_below(workloads.SIEVE_LIMIT)
    return workloads.zhom_queries(seed, batch, primes)


RUN = {"hom-ladder": hom_run, "oracle-32": oracle_run, "zhom-bigint": zhom_run}
TRACE = {"hom-ladder": hom_trace, "oracle-32": oracle_trace, "zhom-bigint": zhom_trace}


def peak_rss_kb() -> int:
    """This process's peak resident set size, in KiB.

    Linux keeps ru_maxrss across execve, so a worker's ru_maxrss is at
    least the parent's size at spawn time; VmHWM belongs to the worker's
    own address space.  ru_maxrss is the fallback where /proc is absent.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed, args.batch)
    result = {"ready_cpu_s": clock(), "homposet": os.path.abspath(cli.__file__)}
    if args.mode == "run":
        wall, cpu = time.perf_counter(), clock()
        result["ops"] = RUN[args.workload](inputs)
        result["cpu_s"], result["wall_s"] = clock() - cpu, time.perf_counter() - wall
    elif args.mode == "trace":
        tracer = Tracer(f"{args.workload}/{args.seed}/{args.batch}", clock=clock)
        result["ops"] = TRACE[args.workload](inputs, tracer)
        result["spans"] = tracer.spans
    result["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
