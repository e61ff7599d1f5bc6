"""Command line behavior: grammar, renderings, exit codes, env override."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homposet import cli
from homposet.cli import format_ring, main, parse_ring, render_hom_json
from homposet.config import DEFAULT_CAPS, Caps
from homposet.oracle import build_catalog
from homposet.poset import hasse, hom_poset
from homposet.rings import make_product, make_zmod, ring_label


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ring description grammar


def test_parse_ring_basic():
    assert parse_ring("zmod:6", DEFAULT_CAPS) == make_zmod(6)
    assert parse_ring("product:zmod:2:zmod:3", DEFAULT_CAPS) == make_product(
        make_zmod(2), make_zmod(3)
    )


@pytest.mark.parametrize(
    "description",
    [
        "zmod:6",
        "gf:2:2",
        "gf:3:1",
        "product:zmod:2:zmod:3",
        "product:zmod:2:product:zmod:3:zmod:5",
        "matrix:2:gf:2:1",
        "quot:zmod:12:gens=0,4,8",
    ],
)
def test_description_round_trip(description):
    ring = parse_ring(description, DEFAULT_CAPS)
    assert format_ring(ring) == description
    assert parse_ring(format_ring(ring), DEFAULT_CAPS) == ring


def test_format_canonicalizes_generators():
    ring = parse_ring("quot:zmod:12:gens=4", DEFAULT_CAPS)
    assert format_ring(ring) == "quot:zmod:12:gens=0,4,8"


@pytest.mark.parametrize(
    "bad",
    [
        "zmod",
        "zmod:x",
        "zmod:6:extra",
        "gf:4:1",
        "gf:2",
        "nonsense:3",
        "product:zmod:2",
        "matrix:2",
        "quot:zmod:12",
        "quot:zmod:12:gens=40",
        "quot:zmod:12:gens=a",
        "",
    ],
)
def test_parse_ring_rejects(bad):
    with pytest.raises(Exception):
        parse_ring(bad, DEFAULT_CAPS)


# ---------------------------------------------------------------------------
# hom subcommand


def test_hom_text_golden(capsys):
    code, out, _ = run(capsys, "hom", "zmod:6")
    assert code == 0
    assert out == (
        "pairs over Z/6 (size 6):\n"
        "  [0] ideal={0} mset={1,5}  <- least\n"
        "  [1] ideal={0,3} mset={1,2,4,5}\n"
        "  [2] ideal={0,2,4} mset={1,3,5}\n"
        "covers: 0<1, 0<2\n"
    )


def test_hom_text_bar_golden(capsys):
    code, out, _ = run(capsys, "hom", "zmod:6", "--bar")
    assert code == 0
    assert out.splitlines()[-2:] == ["  [3] TOP", "covers: 0<1, 0<2, 1<3, 2<3"]


def test_hom_dot_golden(capsys):
    code, out, _ = run(capsys, "hom", "zmod:4", "--format", "dot")
    assert code == 0
    assert out == (
        "digraph hom {\n"
        "  rankdir=BT;\n"
        '  label="Z/4";\n'
        '  n0 [label="({0}, {1,3})"];\n'
        '  n1 [label="({0,2}, {1,3})"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


# json.dumps(payload, sort_keys=True, indent=2) plus print's newline
HOM_JSON_ZMOD6_BAR = """\
{
  "bar": true,
  "elements": [
    {
      "ideal": [
        0
      ],
      "mset": [
        1,
        5
      ]
    },
    {
      "ideal": [
        0,
        3
      ],
      "mset": [
        1,
        2,
        4,
        5
      ]
    },
    {
      "ideal": [
        0,
        2,
        4
      ],
      "mset": [
        1,
        3,
        5
      ]
    },
    {
      "top": true
    }
  ],
  "hasse": [
    [
      0,
      1
    ],
    [
      0,
      2
    ],
    [
      1,
      3
    ],
    [
      2,
      3
    ]
  ],
  "label": "Z/6",
  "ring": "zmod:6",
  "size": 6
}
"""


def test_hom_json_golden(capsys):
    code, out, _ = run(capsys, "hom", "zmod:6", "--bar", "--format", "json")
    assert code == 0
    assert out == HOM_JSON_ZMOD6_BAR


def reference_hom_json(ring, poset, description):
    """The writer's specification: the payload through json.dumps."""
    elements = [{"ideal": sorted(p.ideal), "mset": sorted(p.mset)} for p in poset.elements]
    if poset.top_adjoined:
        elements.append({"top": True})
    payload = {
        "ring": description,
        "label": ring_label(ring),
        "size": ring.size,
        "bar": poset.top_adjoined,
        "elements": elements,
        "hasse": [list(e) for e in hasse(poset)],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


# the benchmark's hom ladder, read at HOMPOSET_TABLE_CAP=256
HOM_LADDER = (
    "zmod:64",
    "zmod:128",
    "gf:2:6",
    "gf:2:7",
    "product:zmod:8:zmod:16",
    "product:zmod:4:product:zmod:4:zmod:4",
    ":".join(["product:zmod:2"] * 6 + ["zmod:2"]),
    "matrix:2:zmod:3",
    "quot:zmod:256:gens=64",
)


def test_hom_json_matches_json_dumps():
    caps = Caps(table_size=256, morphism_search=DEFAULT_CAPS.morphism_search)
    rings = [(format_ring(r), r) for r in build_catalog(32).rings]
    rings += [(d, parse_ring(d, caps)) for d in HOM_LADDER]
    no_covers = 0
    for description, ring in rings:
        for bar in (False, True):
            poset = hom_poset(ring, adjoin_top=bar)
            no_covers += not hasse(poset)
            assert render_hom_json(ring, poset, description) == reference_hom_json(
                ring, poset, description
            ), (description, bar)
    assert no_covers > 0  # singleton posets write "hasse": []


def test_hom_json_bytes_stable(capsys):
    _, first, _ = run(capsys, "hom", "product:zmod:4:zmod:9", "--format", "json")
    _, second, _ = run(capsys, "hom", "product:zmod:4:zmod:9", "--format", "json")
    assert first == second


def test_hom_singleton_poset(capsys):
    code, out, _ = run(capsys, "hom", "matrix:2:gf:2:1")
    assert code == 0
    assert "covers: none" in out
    assert out.count("ideal=") == 1


# ---------------------------------------------------------------------------
# exit codes


def test_exit_semantic_error(capsys):
    code, _, err = run(capsys, "hom", "zmod:1")
    assert code == 2 and "error:" in err


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "hom", "zmod:6:junk")
    assert code == 2 and "trailing tokens" in err


def test_exit_generator_out_of_range(capsys):
    code, _, err = run(capsys, "hom", "quot:zmod:12:gens=-1")
    assert code == 2 and "generator index out of range" in err


def test_exit_matrix_over_non_field_names_the_base(capsys):
    code, out, err = run(capsys, "hom", "matrix:2:zmod:8")
    assert code == 2 and out == ""
    assert err == "error: matrix rings need a field base, got Z/8\n"


def test_exit_cap_exceeded(capsys):
    code, _, err = run(capsys, "hom", "zmod:100")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("description, code, message", [
    ("zmod:65", 3, "size cap exceeded: 65 > table cap 64"),
    ("gf:2:7", 3, "size cap exceeded: 128 > table cap 64"),
    ("product:zmod:16:zmod:16", 3, "size cap exceeded: 256 > table cap 64"),
    ("product:zmod:8:gf:3:2", 3, "size cap exceeded: 72 > table cap 64"),
    ("zmod:1", 2, "zmod needs n >= 2, got 1"),
    ("gf:4:1", 2, "4 is not prime"),
    ("gf:2:0", 2, "k must be >= 1"),
    # refused before a primality test or the order is computed
    ("gf:1000000016000000063:1", 3, "size cap exceeded: 1000000016000000063**1 > table cap 64"),
    ("gf:2:20000", 3, "size cap exceeded: 2**20000 > table cap 64"),
    ("matrix:3000:zmod:2", 3, "size cap exceeded: 2**9000000 > table cap 64"),
])
def test_constructors_refuse_at_their_sizes(capsys, description, code, message):
    # rings that build their tables on first read still refuse at once
    assert run(capsys, "hom", description) == (code, "", f"error: {message}\n")


def test_exit_degenerate_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--bound", "1")
    assert code == 4
    assert "degenerate" in out


def test_exit_bad_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOMPOSET_TABLE_CAP", "abc")
    code, _, err = run(capsys, "hom", "zmod:6")
    assert code == 2
    assert err == "error: HOMPOSET_TABLE_CAP must be a positive integer, got 'abc'\n"


def test_env_override_raises_cap(capsys, monkeypatch):
    monkeypatch.setenv("HOMPOSET_TABLE_CAP", "150")
    code, out, _ = run(capsys, "hom", "zmod:100")
    assert code == 0
    assert "pairs over Z/100 (size 100):" in out


def test_env_override_lowers_cap(capsys, monkeypatch):
    monkeypatch.setenv("HOMPOSET_TABLE_CAP", "10")
    code, _, err = run(capsys, "hom", "zmod:12")
    assert code == 3


def test_main_builds_one_parser_for_many_calls(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)

    with pytest.raises(SystemExit) as usage:
        main(["hom"])
    assert usage.value.code == 2
    assert capsys.readouterr().err.startswith("usage: homposet hom")
    with pytest.raises(SystemExit) as help_:
        main(["hom", "--help"])
    assert help_.value.code == 0
    assert "--bar" in capsys.readouterr().out

    # the environment is read on every call, not when the parser is built
    monkeypatch.setenv("HOMPOSET_TABLE_CAP", "150")
    assert run(capsys, "hom", "zmod:100")[0] == 0
    monkeypatch.delenv("HOMPOSET_TABLE_CAP")
    assert run(capsys, "hom", "zmod:100")[0] == 3

    argv = ["hom", "product:zmod:4:zmod:9", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "homposet.cli", *argv], capture_output=True, text=True
    )
    assert code == fresh.returncode == 0
    assert out == fresh.stdout
    assert len(built) == 1


# ---------------------------------------------------------------------------
# oracle subcommand


def test_oracle_text_output(capsys):
    code, out, _ = run(capsys, "oracle", "--bound", "8")
    assert code == 0
    assert out.startswith("oracle battery over 13 rings (bound 8)\n")
    assert out.rstrip().endswith("25/25 claims hold")


def test_oracle_only_filter(capsys):
    code, out, _ = run(capsys, "oracle", "--bound", "8", "--only", "bar-lattice")
    assert code == 0
    assert "1/1 claims hold" in out
    assert "bar-lattice" in out


def test_oracle_only_matching_no_claim_is_bad_input(capsys):
    # a typo would otherwise run no claim and report 0/0 as holding
    assert run(capsys, "oracle", "--bound", "8", "--only", "nosuchclaim") == (
        2, "", "error: no claim key contains 'nosuchclaim'\n")


def test_run_oracle_script_refuses_an_only_matching_no_claim():
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_oracle.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--bounds", "4", "--only", "nosuchclaim"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: no claim key contains 'nosuchclaim'\n")


def test_oracle_json_output(capsys):
    code, out, _ = run(capsys, "oracle", "--bound", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rings"] == 13
    assert len(payload["claims"]) == 25


# ---------------------------------------------------------------------------
# zhom subcommand


def test_zhom_leq(capsys):
    assert run(capsys, "zhom", "leq", "n:12", "n:3") == (0, "true\n", "")
    assert run(capsys, "zhom", "leq", "n:3", "n:12") == (0, "false\n", "")
    assert run(capsys, "zhom", "leq", "0:coP=", "0:P=") == (0, "true\n", "")


def test_zhom_meet_join(capsys):
    assert run(capsys, "zhom", "meet", "n:4", "n:6") == (0, "n:12\n", "")
    assert run(capsys, "zhom", "join", "n:4", "n:9") == (0, "TOP\n", "")
    assert run(capsys, "zhom", "join", "0:P=2", "n:12") == (0, "n:4\n", "")
    assert run(capsys, "zhom", "meet", "0:P=2", "0:coP=2,5") == (0, "0:coP=5\n", "")


def test_zhom_rho(capsys):
    assert run(capsys, "zhom", "rho", "n:12") == (0, "{2:2, 3:1, 0slot:0}\n", "")
    assert run(capsys, "zhom", "rho", "0:P=2,3") == (
        0, "{2:inf, 3:inf, 0slot:1}\n", "",
    )
    assert run(capsys, "zhom", "rho", "0:coP=") == (0, "{default:inf, 0slot:1}\n", "")


def test_zhom_parse_error(capsys):
    code, _, err = run(capsys, "zhom", "leq", "bogus", "n:2")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# module entry point end to end


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "homposet.cli", "hom", "zmod:6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pairs over Z/6" in proc.stdout

    bad = subprocess.run(
        [sys.executable, "-m", "homposet.cli", "hom", "zmod:200"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 3


def test_closed_stdout_exits_quietly():
    # about 0.2 MB of JSON, more than a pipe holds, so the writer is still
    # writing when the reader closes its end after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "homposet.cli", "hom", "zmod:1020", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "HOMPOSET_TABLE_CAP": "1024"},
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert err == b""
