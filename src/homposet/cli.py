"""Command line front end.

Three subcommands:

  hom     materialize the pair poset of a described finite ring
  oracle  run the brute-force verification battery
  zhom    closed-form order operations over the integers

Ring descriptions are colon-joined prefix terms:

  zmod:6                          integers mod 6
  gf:2:3                          field with 8 elements
  product:zmod:2:zmod:3           componentwise product
  matrix:2:gf:2:1                 2x2 matrices over the field of order 2
  quot:zmod:12:gens=4             quotient by the ideal generated by 4

Exit codes: 0 success, 1 internal error, failed oracle claims or closed
stdout, 2 bad input, 3 size cap exceeded, 4 degenerate request.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .config import Caps, caps_from_env
from .errors import CapExceeded, HomPosetError
from .oracle import build_catalog, check_only, verify_theorems
from .pairs import TOP
from .poset import hasse, hom_poset
from .rings import (
    FiniteRing,
    format_ring,
    ideal_generated_by,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    ring_label,
)
from .zhom import (
    _fmt_val,
    exponent_vector,
    format_z_element,
    parse_z_element,
    z_join,
    z_leq,
    z_meet,
)


def parse_ring(text: str, caps: Caps) -> FiniteRing:
    """Parse a colon-joined ring description; all tokens must be consumed."""
    tokens = text.strip().split(":")
    ring, pos = _parse_at(tokens, 0, caps)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in ring description: {':'.join(tokens[pos:])}")
    return ring


def _int_token(tokens, pos, what):
    if pos >= len(tokens):
        raise ValueError(f"expected {what}, got end of description")
    try:
        return int(tokens[pos])
    except ValueError:
        raise ValueError(f"expected {what}, got {tokens[pos]!r}") from None


def _parse_at(tokens, pos, caps):
    if pos >= len(tokens):
        raise ValueError("empty ring description")
    head = tokens[pos]
    if head == "zmod":
        n = _int_token(tokens, pos + 1, "a modulus")
        return make_zmod(n, caps), pos + 2
    if head == "gf":
        p = _int_token(tokens, pos + 1, "a prime")
        k = _int_token(tokens, pos + 2, "an exponent")
        return make_finite_field(p, k, caps), pos + 3
    if head == "product":
        r1, nxt = _parse_at(tokens, pos + 1, caps)
        r2, nxt = _parse_at(tokens, nxt, caps)
        return make_product(r1, r2, caps), nxt
    if head == "matrix":
        k = _int_token(tokens, pos + 1, "a matrix size")
        base, nxt = _parse_at(tokens, pos + 2, caps)
        return make_matrix_ring(base, k, caps), nxt
    if head == "quot":
        base, nxt = _parse_at(tokens, pos + 1, caps)
        if nxt >= len(tokens) or not tokens[nxt].startswith("gens="):
            raise ValueError("quot needs a trailing gens=... token")
        body = tokens[nxt][len("gens="):]
        try:
            gens = [int(t) for t in body.split(",") if t.strip()]
        except ValueError:
            raise ValueError(f"bad generator list {body!r}") from None
        ideal = ideal_generated_by(base, gens)
        ring, _ = make_quotient(base, ideal)
        return ring, nxt + 1
    raise ValueError(f"unknown ring constructor {head!r}")


# ---------------------------------------------------------------------------
# hom subcommand


def _element_rows(poset):
    rows = []
    for i, p in enumerate(poset.elements):
        rows.append((i, sorted(p.ideal), sorted(p.mset)))
    return rows


def render_hom_text(ring, poset) -> str:
    lines = [f"pairs over {ring_label(ring)} (size {ring.size}):"]
    for i, ideal, mset in _element_rows(poset):
        flag = "  <- least" if i == 0 else ""
        lines.append(f"  [{i}] ideal={{{','.join(map(str, ideal))}}} "
                     f"mset={{{','.join(map(str, mset))}}}{flag}")
    if poset.top_adjoined:
        lines.append(f"  [{len(poset.elements)}] TOP")
    edges = hasse(poset)
    lines.append("covers: " + (", ".join(f"{i}<{j}" for i, j in edges) or "none"))
    return "\n".join(lines)


def render_hom_dot(ring, poset) -> str:
    lines = [
        "digraph hom {",
        "  rankdir=BT;",
        f'  label="{ring_label(ring)}";',
    ]
    for i, ideal, mset in _element_rows(poset):
        body = f"({{{','.join(map(str, ideal))}}}, {{{','.join(map(str, mset))}}})"
        lines.append(f'  n{i} [label="{body}"];')
    if poset.top_adjoined:
        lines.append(f'  n{len(poset.elements)} [label="TOP"];')
    for i, j in hasse(poset):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def _json_array(items, pad: str) -> str:
    """json.dumps's indent=2 layout of a list of rendered items opened at depth pad."""
    inner = pad + "  "
    body = f",\n{inner}".join(items)
    return f"[\n{inner}{body}\n{pad}]" if body else "[]"


def render_hom_json(ring, poset, description) -> str:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2), written by joins.

    json.dumps with an indent runs the pure-Python encoder (the C encoder
    serves only indent=None), so the layout is written here directly; the
    tests compare it with json.dumps.
    """
    items = [
        f'{{\n      "ideal": {_json_array(map(str, ideal), "      ")},\n'
        f'      "mset": {_json_array(map(str, mset), "      ")}\n    }}'
        for _, ideal, mset in _element_rows(poset)
    ]
    if poset.top_adjoined:
        items.append('{\n      "top": true\n    }')
    edges = [_json_array(map(str, e), "    ") for e in hasse(poset)]
    return (
        "{\n"
        f'  "bar": {"true" if poset.top_adjoined else "false"},\n'
        f'  "elements": {_json_array(items, "  ")},\n'
        f'  "hasse": {_json_array(edges, "  ")},\n'
        f'  "label": {json.dumps(ring_label(ring))},\n'
        f'  "ring": {json.dumps(description)},\n'
        f'  "size": {ring.size}\n'
        "}"
    )


def cmd_hom(args, caps) -> int:
    ring = parse_ring(args.ring, caps)
    poset = hom_poset(ring, adjoin_top=args.bar)
    description = format_ring(ring)
    if args.format == "text":
        print(render_hom_text(ring, poset))
    elif args.format == "dot":
        print(render_hom_dot(ring, poset))
    else:
        print(render_hom_json(ring, poset, description))
    return 0


# ---------------------------------------------------------------------------
# oracle subcommand


def cmd_oracle(args, caps) -> int:
    check_only(args.only)
    catalog = build_catalog(args.bound, caps)
    report = verify_theorems(catalog, only=args.only, caps=caps)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(report.render_text())
    if report.degenerate:
        return 4
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# zhom subcommand


def _render_vector(vec) -> str:
    parts = [f"{p}:{_fmt_val(v)}" for p, v in vec.overrides]
    if vec.default != 0:
        parts.append(f"default:{_fmt_val(vec.default)}")
    parts.append(f"0slot:{vec.slot}")
    return "{" + ", ".join(parts) + "}"


def cmd_zhom(args, caps) -> int:
    del caps
    if args.verb == "rho":
        x = parse_z_element(args.x)
        print(_render_vector(exponent_vector(x)))
        return 0
    x = parse_z_element(args.x)
    y = parse_z_element(args.y)
    if args.verb == "leq":
        print("true" if z_leq(x, y) else "false")
        return 0
    out = z_meet(x, y) if args.verb == "meet" else z_join(x, y)
    print("TOP" if out is TOP else format_z_element(out))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homposet",
        description="pair posets of finite rings and the integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("hom", help="materialize the pair poset of a finite ring")
    hom.add_argument("ring", help="ring description, e.g. zmod:6 or product:zmod:2:zmod:3")
    hom.add_argument("--bar", action="store_true", help="adjoin the greatest element")
    hom.add_argument("--format", choices=("text", "dot", "json"), default="text")
    hom.set_defaults(run=cmd_hom)

    oracle = sub.add_parser("oracle", help="run the verification battery")
    oracle.add_argument("--bound", type=int, default=16,
                        help="catalog size bound (default 16)")
    oracle.add_argument("--only", default=None,
                        help="run only claims whose key contains this substring")
    oracle.add_argument("--json", action="store_true", help="JSON report")
    oracle.set_defaults(run=cmd_oracle)

    zhom = sub.add_parser("zhom", help="closed-form operations over the integers")
    zsub = zhom.add_subparsers(dest="verb", required=True)
    for verb in ("leq", "meet", "join"):
        v = zsub.add_parser(verb)
        v.add_argument("x", help="element, e.g. n:12 or 0:P=2,3 or 0:coP=")
        v.add_argument("y")
    rho = zsub.add_parser("rho")
    rho.add_argument("x")
    zhom.set_defaults(run=cmd_zhom)
    return parser


# built by the first main() call and kept for the process; parse_args leaves
# the parser as it found it, and the parser holds no ring state
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        caps = caps_from_env()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        code = args.run(args, caps)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the flush at exit cannot raise again (see "Note on SIGPIPE" in the
        # signal module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CapExceeded as e:
        print(f"error: size cap exceeded: {e}", file=sys.stderr)
        return 3
    except (HomPosetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
