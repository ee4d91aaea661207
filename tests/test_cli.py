import argparse
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ggindex.cli
import ggindex.extremal
import ggindex.indices
from ggindex.cli import CliError, main, parse_n_values
from ggindex.families import construct, ngg_closed, parse_spec
from ggindex.graphs import canonical_form, from_graph6, to_graph6
from ggindex.indices import ngg_index

from conftest import random_connected_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p4_file(tmp_path):
    f = tmp_path / "p4.g6"
    f.write_text("Ch\n")
    return str(f)


def test_index_text(capsys, p4_file):
    code, out, err = run(capsys, "index", p4_file)
    assert code == 0
    assert out.startswith(f"{p4_file}:1  n=4 m=3")
    assert "ngg 1.6547" in out
    assert "gg 2.3401" in out


def test_index_which_subset_and_splits_text(capsys, p4_file):
    code, out, _ = run(capsys, "index", p4_file, "--which", "ngg", "--splits")
    assert code == 0
    assert "gg" not in out.split("ngg", 1)[0]
    assert "edge 0-1: n_u=1 n_v=3" in out
    assert "edge 1-2: n_u=2 n_v=2" in out


def test_index_json(capsys, tmp_path):
    f = tmp_path / "p4.edges"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "index", str(f), "--format", "json", "--splits")
    assert code == 0
    payload = json.loads(out)
    rec = payload["records"][0]
    assert rec["n"] == 4 and rec["m"] == 3
    assert rec["ngg"] == pytest.approx(ngg_index(from_graph6("Ch")), abs=1e-9)
    assert [1, 3] in [s[2:] for s in rec["splits"]]


def test_dump_json_scalars():
    # floats at 10 significant digits, every other scalar as json.dumps
    # renders it, and nothing else
    payload = {"a": [None, True, False], "b": (3, 0.1 + 0.2, "\u00e9\"")}
    want = '{"a": [null, true, false], "b": [3, 0.3, "\\u00e9\\""]}\n'
    assert ggindex.cli.dump_json(payload) == want
    with pytest.raises(TypeError):
        ggindex.cli.dump_json({"c": {1, 2}})


def test_index_csv(capsys, p4_file):
    code, out, _ = run(capsys, "index", p4_file, "--format", "csv")
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header == "source,line,n,m,gg,ngg,abc"
    assert row.split(",")[2:4] == ["4", "3"]


def test_index_splits_csv_rejected(capsys, p4_file):
    code, _, err = run(capsys, "index", p4_file, "--format", "csv", "--splits")
    assert code == 2
    assert "error:" in err and "csv" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_index_repeated_which_rejected(capsys, p4_file, fmt):
    code, out, err = run(capsys, "index", p4_file, "--which", "gg,gg", "--format", fmt)
    assert (code, out) == (2, "")
    assert "--which takes a comma subset" in err


def test_index_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Ch\nDhc\n"))
    code, out, _ = run(capsys, "index", "-")
    assert code == 0
    assert out.count("<stdin>") == 2


def test_index_bad_graph6_names_line(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("Ch\n!!!!\n")
    code, _, err = run(capsys, "index", str(f))
    assert code == 2
    assert "bad.g6:2" in err


def test_index_disconnected_rejected(capsys, tmp_path):
    f = tmp_path / "pair.edges"
    f.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run(capsys, "index", str(f))
    assert code == 2
    assert "connected" in err


def test_family_text(capsys):
    code, out, _ = run(capsys, "family", "CH:9")
    assert code == 0
    assert "spec CH:9" in out and "n 9" in out and "m 10" in out
    assert "ngg-closed 2.2361" in out


def test_family_json_and_out(capsys, tmp_path):
    dest = tmp_path / "cp9.g6"
    code, out, _ = run(capsys, "family", "CP:9", "--format", "json", "--out", str(dest))
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == "CP:9"
    # json floats are serialized at 10 significant digits
    assert payload["ngg_closed"] == pytest.approx(
        ngg_closed(parse_spec("CP:9")), abs=1e-8
    )
    line = dest.read_text().strip()
    assert canonical_form(from_graph6(line)) == canonical_form(
        construct(parse_spec("CP:9"))
    )


def test_family_no_closed_form_is_null(capsys):
    code, out, _ = run(capsys, "family", "TH:4,2,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["ngg_closed"] is None


def test_family_bad_spec(capsys):
    code, _, err = run(capsys, "family", "CP:4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "family", "Z:4")
    assert code == 2 and "known codes" in err


FAMILY_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "family"

# One spec per family code, the odd cycle too, in every output format, and
# refused specs. A golden file is named after the spec with ':' and ',' as
# '-'. <name>.<fmt> holds the stdout of
# `PYTHONPATH=src python -m ggindex family <spec> --format <fmt>`, exit 0;
# <name>.stderr the stderr of `... family <spec>`, exit 2 with no stdout.
# `--out FILE` changes no byte of either: it adds FILE, holding the graph6
# line of <name>.json, and a refused spec writes no FILE.
FAMILY_GOLDEN_SPECS = (
    "P:7", "C:8", "C:7", "K:5", "KB:3,4", "S:9", "CP:9", "CH:9", "TH:4,2,2", "AD:41,3",
)
FAMILY_GOLDEN_RUNS = [
    *(
        pytest.param(spec, fmt, 0, id=f"{spec}-{fmt}")
        for spec in FAMILY_GOLDEN_SPECS
        for fmt in ("text", "json", "csv")
    ),
    pytest.param("CP:4", "text", 2, id="CP:4-refused"),
    pytest.param("Z:4", "text", 2, id="Z:4-refused"),
    pytest.param("K:0", "text", 2, id="K:0-refused"),
    pytest.param("TH:2,1,1", "text", 2, id="TH:2,1,1-refused"),
    pytest.param("AD:1,3", "text", 2, id="AD:1,3-refused"),
]


@pytest.mark.parametrize("spec, fmt, exit_code", FAMILY_GOLDEN_RUNS)
def test_family_golden_bytes(capsys, tmp_path, spec, fmt, exit_code):
    name = spec.replace(":", "-").replace(",", "-")
    if exit_code == 0:
        want = ((FAMILY_GOLDEN_DIR / f"{name}.{fmt}").read_bytes().decode("ascii"), "")
        graph6 = json.loads((FAMILY_GOLDEN_DIR / f"{name}.json").read_bytes())["graph6"]
    else:
        want = ("", (FAMILY_GOLDEN_DIR / f"{name}.stderr").read_bytes().decode("ascii"))
    dest = tmp_path / "family.g6"
    for out_args in ((), ("--out", str(dest))):
        code, out, err = run(capsys, "family", spec, "--format", fmt, *out_args)
        assert (code, out, err) == (exit_code, *want)
    if exit_code == 0:
        assert dest.read_bytes() == graph6.encode("ascii") + b"\n"
    else:
        assert not dest.exists()


def test_enumerate_text(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 112
    assert lines == sorted(lines)
    assert "count 112" in err


def test_enumerate_trees(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--trees")
    assert code == 0
    assert len(out.splitlines()) == 11


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--bipartite", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["graphs"]) == 5
    assert payload["constraints"]["bipartite"] is True


def test_enumerate_out_file(capsys, tmp_path):
    dest = tmp_path / "t8.g6"
    code, out, _ = run(
        capsys, "enumerate", "--n", "8", "--trees", "--format", "json", "--out", str(dest)
    )
    assert code == 0
    assert json.loads(out)["out"] == str(dest)
    assert len(dest.read_text().splitlines()) == 23


def test_enumerate_bound_refusal(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "11")
    assert code == 2
    assert "--max-n" in err


def test_enumerate_env_bound_and_override(capsys, monkeypatch):
    monkeypatch.setenv("GGINDEX_MAX_N", "5")
    code, _, err = run(capsys, "enumerate", "--n", "6")
    assert code == 2 and "n <= 5" in err
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--max-n", "6")
    assert code == 0
    assert len(out.splitlines()) == 112
    # --max-n is the whole cap: the variable is not read, malformed or not
    monkeypatch.setenv("GGINDEX_MAX_N", "x")
    code, _, err = run(capsys, "enumerate", "--n", "5")
    assert code == 2 and "GGINDEX_MAX_N must be an integer" in err
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--max-n", "5")
    assert code == 0
    assert len(out.splitlines()) == 21


def test_enumerate_trees_is_cyclomatic_zero(capsys, monkeypatch):
    monkeypatch.delenv("GGINDEX_MAX_N", raising=False)
    code, trees, _ = run(capsys, "enumerate", "--trees", "--n", "9")
    assert (code, len(trees.splitlines())) == (0, 47)
    code, both, _ = run(capsys, "enumerate", "--trees", "--cyclomatic", "0", "--n", "9")
    assert (code, both) == (0, trees)
    code, out, err = run(capsys, "enumerate", "--trees", "--cyclomatic", "2", "--n", "9")
    assert (code, out) == (2, "")
    assert "--trees" in err and "--cyclomatic 2" in err
    # a refused cyclomatic-0 run names the class it refused
    code, _, err = run(capsys, "enumerate", "--cyclomatic", "0", "--n", "15")
    assert code == 2 and "enumerating trees at n=15" in err


def test_verify_max_bipartite(capsys):
    code, out, err = run(capsys, "verify", "max-bipartite", "--n", "4..6")
    assert code == 0
    assert out.startswith("claim max-bipartite: pass")
    assert "verify max-bipartite:" in err  # timing goes to stderr only


def test_verify_crossover(capsys):
    code, out, _ = run(capsys, "verify", "crossover", "--n", "5..31")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.strip().startswith("n=")]
    assert len(rows) == 14
    equal_rows = [ln for ln in rows if ln.endswith("equal")]
    assert len(equal_rows) == 1 and "n=15" in equal_rows[0]


def test_verify_crossover_needs_odd(capsys):
    code, _, err = run(capsys, "verify", "crossover", "--n", "6")
    assert code == 2 and "odd" in err


def test_verify_asymptote(capsys):
    code, out, _ = run(capsys, "verify", "asymptote", "--n", "100,1000,10000")
    assert code == 0
    assert out.startswith("claim asymptote: pass")


def test_verify_conjecture2_reports_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "conjecture2", "--n", "6")
    assert code == 1
    assert out.startswith("claim conjecture2: FAIL")
    assert "counterexample found" in out


GOLDEN = Path(__file__).resolve().parent / "golden" / "verify"

# (claim, orders, exit code), each run in every output format. The orders
# cover the exact ties (crossover n = 15, conjecture 1 n = 5) and the
# conjecture-2 counterexamples at n = 6, 7. A golden file holds the stdout of
# `PYTHONPATH=src python -m ggindex verify <claim> --n <orders> --format <fmt>`,
# and `--out FILE` writes the same bytes to FILE in place of stdout, a failed
# claim's included; `--out -` names stdout.
VERIFY_GOLDEN = [
    ("max-bipartite", "4..7", 0),
    ("min-bipartite", "4..8", 0),
    ("trees", "4..8", 0),
    ("crossover", "5..31", 0),
    ("asymptote", "100,1000,10000", 0),
    ("conjecture1", "5..6", 1),
    ("conjecture2", "6..7", 1),
    ("conjecture3", "6..9", 0),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("claim, orders, exit_code", VERIFY_GOLDEN)
def test_verify_golden_bytes(capsys, tmp_path, claim, orders, exit_code, fmt):
    args = ("verify", claim, "--n", orders, "--format", fmt)
    want = (GOLDEN / f"{claim}.{fmt}").read_bytes().decode("ascii")
    for out_args in ((), ("--out", "-")):
        code, out, _ = run(capsys, *args, *out_args)
        assert (code, out) == (exit_code, want)
    dest = tmp_path / "verify.out"
    code, out, err = run(capsys, *args, "--out", str(dest))
    assert (code, out) == (exit_code, "")
    assert err.startswith(f"verify {claim}: ")
    assert dest.read_bytes().decode("ascii") == want


def test_verify_help_golden(capsys, monkeypatch):
    # argparse wraps help text at the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    want = (GOLDEN / "help.text").read_bytes().decode("ascii")
    assert capsys.readouterr().out == want


# (orders, stderr) of verify max-bipartite runs that fail before any row is
# printed: each order's class and bound are checked, in the order given,
# before anything is enumerated
_BIPARTITE_12_REFUSED = (
    "error: enumerating connected bipartite graphs at n=12 exceeds the configured"
    " bound n <= 11; raise it with max_n= (--max-n on the command line) or"
    " GGINDEX_MAX_N if you accept the runtime\n"
)
VERIFY_ERRORS = [
    ("4,12", _BIPARTITE_12_REFUSED),
    ("0,4", "error: Constraints.n must be at least 1\n"),
    ("12,0", _BIPARTITE_12_REFUSED),
    ("", "error: no orders given in ''\n"),
]


@pytest.mark.parametrize("orders, want_err", VERIFY_ERRORS)
def test_verify_order_errors(capsys, monkeypatch, orders, want_err):
    monkeypatch.delenv("GGINDEX_MAX_N", raising=False)
    code, out, err = run(capsys, "verify", "max-bipartite", "--n", orders)
    assert (code, out, err) == (2, "", want_err)


# (arguments, stderr) of verify runs with an order below the claim's domain:
# refused at once, before the walk of the orders that are in it
VERIFY_DOMAIN_ERRORS = [
    (
        ("conjecture1", "--n", "1..3", "--max-degree", "3"),
        "error: claim conjecture1 starts at n = 4 at max degree 3, got n = 1\n",
    ),
    (
        ("conjecture2", "--n", "2..10", "--max-degree", "3"),
        "error: claim conjecture2 starts at n = 3 at max degree 3, got n = 2\n",
    ),
    (("max-bipartite", "--n", "1..10"), "error: claim max-bipartite starts at n = 2, got n = 1\n"),
]


@pytest.mark.parametrize(
    "args, want_err", VERIFY_DOMAIN_ERRORS, ids=[args[0] for args, _ in VERIFY_DOMAIN_ERRORS]
)
def test_verify_refuses_orders_outside_the_claim(capsys, monkeypatch, args, want_err):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(ggindex.extremal, "_classes", no_walk)
    code, out, err = run(capsys, "verify", *args)
    assert (code, out, err) == (2, "", want_err)


# Unsorted orders with a repeat: one row (per check) for every order as given.
VERIFY_REPEATED = [
    (
        ("max-bipartite", "--n", "7,5,7"),
        0,
        "claim max-bipartite: pass\n"
        "  n=7 pass: value=3.4641 witnesses=F?~v_ expected=F?~v_ classes=44\n"
        "  n=5 pass: value=2.4495 witnesses=DFw expected=DFw classes=5\n"
        "  n=7 pass: value=3.4641 witnesses=F?~v_ expected=F?~v_ classes=44\n",
    ),
    (
        ("trees", "--n", "7,5,7", "--format", "csv"),
        0,
        "n,passed,label,value,expected,witnesses,exact_witnesses,classes,note\n"
        "7,True,pass,4.530949869,FQGOW,FQGOW,FQGOW,11,min over trees\n"
        "7,True,pass,5.477225575,F??Fw,F??Fw,F??Fw,11,max over trees\n"
        "5,True,pass,3.14626437,DQK,DQK,DQK,3,min over trees\n"
        "5,True,pass,3.464101615,D?{,D?{,D?{,3,max over trees\n"
        "7,True,pass,4.530949869,FQGOW,FQGOW,FQGOW,11,min over trees\n"
        "7,True,pass,5.477225575,F??Fw,F??Fw,F??Fw,11,max over trees\n",
    ),
    (
        ("conjecture1", "--n", "7,5,7", "--max-degree", "3", "--format", "csv"),
        1,
        "n,passed,label,value,expected,witnesses,exact_witnesses,classes,note\n"
        "7,True,consistent,6.990187583,,FqSpW,FqSpW,64,\n"
        "5,False,counterexample found,4.242640687,,DFw;Dd[;Dr[,DFw;Dd[;Dr[,10,\n"
        "7,True,consistent,6.990187583,,FqSpW,FqSpW,64,\n",
    ),
]


@pytest.mark.parametrize(
    "args, exit_code, want", VERIFY_REPEATED, ids=[args[0] for args, _, _ in VERIFY_REPEATED]
)
def test_verify_unsorted_repeated_orders(capsys, args, exit_code, want):
    code, out, _ = run(capsys, "verify", *args)
    assert (code, out) == (exit_code, want)


ENUMERATE_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "enumerate"

# (golden file, arguments): a golden file holds the stdout of
# `PYTHONPATH=src python -m ggindex enumerate <arguments>`
ENUMERATE_GOLDEN = [
    ("trees-12.text", ["--trees", "--n", "12"]),
    ("trees-12-maxdeg3.text", ["--trees", "--n", "12", "--max-degree", "3"]),
    ("cyclomatic0-10.json", ["--n", "10", "--cyclomatic", "0", "--format", "json"]),
    # classes full of twins, where the canonical search ends at twin-only nodes
    ("bipartite-8.text", ["--bipartite", "--n", "8"]),
    ("n8-maxdeg3.text", ["--n", "8", "--max-degree", "3"]),
    ("n7.text", ["--n", "7"]),
]


@pytest.mark.parametrize("name, args", ENUMERATE_GOLDEN, ids=[n for n, _ in ENUMERATE_GOLDEN])
def test_enumerate_golden_bytes(capsys, name, args):
    code, out, _ = run(capsys, "enumerate", *args)
    assert code == 0
    assert out == (ENUMERATE_GOLDEN_DIR / name).read_bytes().decode("ascii")


# `enumerate --bipartite --n 6` in every output format, with and without
# `--out out.g6`. bipartite-6.<fmt> holds the stdout without --out. With it,
# run in an empty directory, out.g6 holds the graph6 lines of bipartite-6.text
# whatever the format, and stdout is bipartite-6-out.<fmt>: the count in csv,
# the path in place of the graphs in json, nothing in text. Text mode writes
# the count to stderr either way.
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_formats_with_and_without_out(capsys, monkeypatch, tmp_path, fmt):
    args = ("enumerate", "--bipartite", "--n", "6", "--format", fmt)
    keys = (ENUMERATE_GOLDEN_DIR / "bipartite-6.text").read_bytes().decode("ascii")
    want_err = "count 17\n" if fmt == "text" else ""
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, want_err)
    assert out == (ENUMERATE_GOLDEN_DIR / f"bipartite-6.{fmt}").read_bytes().decode("ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *args, "--out", "out.g6")
    assert (code, err) == (0, want_err)
    want_out = "" if fmt == "text" else (
        (ENUMERATE_GOLDEN_DIR / f"bipartite-6-out.{fmt}").read_bytes().decode("ascii")
    )
    assert out == want_out
    assert (tmp_path / "out.g6").read_bytes().decode("ascii") == keys


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_and_family_out_dash_is_stdout(capsys, monkeypatch, tmp_path, fmt):
    # `--out -` puts the graph6 lines on stdout ahead of the report that
    # `--out FILE` prints, and creates no file named '-'
    monkeypatch.chdir(tmp_path)
    keys = (ENUMERATE_GOLDEN_DIR / "bipartite-6.text").read_bytes().decode("ascii")
    report = "" if fmt == "text" else (
        (ENUMERATE_GOLDEN_DIR / f"bipartite-6-out.{fmt}").read_bytes().decode("ascii")
    )
    if fmt == "json":
        report = report.replace('"out": "out.g6"', '"out": "-"')
    code, out, err = run(capsys, "enumerate", "--bipartite", "--n", "6", "--format", fmt, "--out", "-")
    assert (code, out, err) == (0, keys + report, "count 17\n" if fmt == "text" else "")
    want = (FAMILY_GOLDEN_DIR / f"KB-3-4.{fmt}").read_bytes().decode("ascii")
    graph6 = json.loads((FAMILY_GOLDEN_DIR / "KB-3-4.json").read_bytes())["graph6"]
    code, out, err = run(capsys, "family", "KB:3,4", "--format", fmt, "--out", "-")
    assert (code, out, err) == (0, graph6 + "\n" + want, "")
    assert list(tmp_path.iterdir()) == []


INDEX_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "index"

# (name, arguments, file fed to stdin). Each case runs in every output format
# but csv for --splits, which csv cannot carry. It runs from INDEX_GOLDEN_DIR,
# so the source labels are the relative names; a golden file holds the stdout
# of `ggindex index <arguments> --format <fmt>` run there, which `--out FILE`
# writes to FILE in place of stdout (`--out -` names stdout). The inputs hold
# graph6 and edge-list graphs, n = 1 and a four-byte graph6 size header.
INDEX_GOLDEN = [
    ("default", ("graphs.g6", "graphs.edges"), None),
    ("splits", ("graphs.g6", "graphs.edges", "--splits"), None),
    ("ngg-splits", ("graphs.g6", "graphs.edges", "--which", "ngg", "--splits"), None),
    ("abc", ("graphs.g6", "graphs.edges", "--which", "abc"), None),
    ("stdin", ("-", "graphs.g6"), "graphs.edges"),
]
INDEX_GOLDEN_RUNS = [
    pytest.param(args, stdin, fmt, id=f"{name}.{fmt}")
    for name, args, stdin in INDEX_GOLDEN
    for fmt in ("text", "json", "csv")
    if not (fmt == "csv" and "--splits" in args)
]


@pytest.mark.parametrize("args, stdin, fmt", INDEX_GOLDEN_RUNS)
def test_index_golden_bytes(capsys, monkeypatch, request, tmp_path, args, stdin, fmt):
    monkeypatch.chdir(INDEX_GOLDEN_DIR)
    want = (INDEX_GOLDEN_DIR / request.node.callspec.id).read_bytes().decode("ascii")
    dest = tmp_path / "index.out"
    for out_args, want_out in (((), want), (("--out", "-"), want), (("--out", str(dest)), "")):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO((INDEX_GOLDEN_DIR / stdin).read_text()))
        code, out, err = run(capsys, "index", *args, "--format", fmt, *out_args)
        assert (code, out, err) == (0, want_out, "")
    assert dest.read_bytes().decode("ascii") == want


# Inputs the readers refuse, each with the message main prints: the file name
# and, where the reader knows it, the line.
INDEX_REFUSALS = [
    ("big.g6", "~~??????\n", "big.g6:1: graph6 orders above 258047 are not supported"),
    ("short.g6", "~?\n", "short.g6:1: truncated graph6 size header"),
    ("low.g6", "~?!?\n", "low.g6:1: invalid graph6 size header"),
    ("high.g6", "~??\x7f\n", "high.g6:1: invalid graph6 size header"),
    ("three.edges", "3 2\n0 1\n1 2 3\n", "three.edges:1: expected edge 'u v', got '1 2 3'"),
    ("blank.g6", "\n  \n\n", "blank.g6: no graphs in input"),
    ("gap.g6", "Ch\n\n!!\n", "gap.g6:3: invalid graph6 size byte '!'"),
    (
        "split.edges", "2 1\n0 1\n\n4 2\n0 1\n2 3\n",
        "split.edges:4: graph is disconnected: vertex 2 is unreachable from vertex 0",
    ),
    ("range.edges", "3 2\n0 1\n1 3\n", "range.edges:1: edge (1, 3) out of range for n=3"),
    ("loop.edges", "2 2\n0 1\n1 1\n", "loop.edges:1: self-loop at vertex 1"),
]


@pytest.mark.parametrize("name, text, message", INDEX_REFUSALS, ids=[r[0] for r in INDEX_REFUSALS])
def test_index_refuses_malformed_input(capsys, monkeypatch, tmp_path, name, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(text.encode("ascii"))
    code, out, err = run(capsys, "index", name)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_index_graph6_lines_keep_their_numbers_across_blank_lines(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gap.g6").write_bytes(b"Ch\n\nDhc\n")
    code, out, _ = run(capsys, "index", "gap.g6", "--which", "ngg")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["gap.g6:1", "gap.g6:3"]


@pytest.mark.parametrize(
    "args, per_graph",
    [
        (("--splits",), 1),
        (("--which", "ngg", "--splits"), 1),
        (("--which", "gg,ngg"), 1),
        (("--which", "abc"), 0),
    ],
    ids=["splits", "ngg-splits", "gg-ngg", "abc"],
)
def test_index_distance_passes_per_graph(capsys, monkeypatch, args, per_graph):
    # every value and every split of a graph come from one split pass, whether
    # cli calls it directly or through an index function of ggindex.indices
    calls = []
    splits = ggindex.indices.edge_splits

    def counted(g):
        calls.append(g)
        return splits(g)

    for module in (ggindex.cli, ggindex.indices):
        monkeypatch.setattr(module, "edge_splits", counted)
    monkeypatch.chdir(INDEX_GOLDEN_DIR)
    code, out, _ = run(capsys, "index", "graphs.g6", "graphs.edges", *args, "--format", "json")
    assert code == 0
    graphs = len(json.loads(out)["records"])
    assert graphs == 13
    assert len(calls) == per_graph * graphs


def test_index_splits_against_networkx(capsys, tmp_path):
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    graphs = [
        random_connected_graph(rng, n, extra)
        for n, extra in [(2, 0), (5, 1), (7, 4), (9, 0), (11, 6), (14, 10), (17, 3), (20, 25)]
    ]
    f = tmp_path / "random.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    code, out, _ = run(capsys, "index", str(f), "--splits", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == len(graphs)
    for g, rec in zip(graphs, records):
        rows = dict(nx.all_pairs_shortest_path_length(nx.Graph(g.edges))).values()
        want = [
            [u, v, sum(d[u] < d[v] for d in rows), sum(d[v] < d[u] for d in rows)]
            for u, v in g.edges
        ]
        assert rec["splits"] == want


@pytest.mark.parametrize("to_file", [False, True])
def test_index_bad_second_file_writes_nothing(capsys, tmp_path, p4_file, to_file):
    bad = tmp_path / "bad.g6"
    bad.write_text("Dhc\nC~\nDh\n")
    dest = tmp_path / "out.txt"
    out_args = ("--out", str(dest)) if to_file else ()
    code, out, err = run(capsys, "index", p4_file, str(bad), *out_args)
    assert code == 2
    assert "bad.g6:3" in err
    assert out == ""
    assert not dest.exists()


# claim -> orders; every exhaustive claim shards, the tree claims included
SHARDED = {"max-bipartite": "4..7", "trees": "4..10", "conjecture3": "6..12"}


@pytest.mark.parametrize("claim, orders", SHARDED.items(), ids=SHARDED)
def test_verify_json_deterministic_across_runs_and_workers(capsys, claim, orders):
    args = ["verify", claim, "--n", orders, "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--workers", "2")
    code3, out3, _ = run(capsys, *args)
    assert code1 == code2 == code3 == 0
    payload1 = json.loads(out1)
    # runtime would differ between runs, so determinism means it stays out of
    # the payload entirely
    assert "runtime" not in out1
    assert out1 == out2 == out3
    assert payload1["passed"] is True


def test_round_trip_family_graph6_index(capsys, tmp_path):
    # construct -> encode -> decode -> recompute, checked against the closed form
    for spec_text in ("P:400", "C:400", "S:400", "CP:399", "CH:399", "KB:20,20"):
        spec = parse_spec(spec_text)
        g = construct(spec)
        back = from_graph6(to_graph6(g))
        assert abs(ngg_index(back) - ngg_closed(spec)) <= 1e-10, spec_text
    for spec_text in ("TH:12,9,4", "AD:41,3"):
        spec = parse_spec(spec_text)
        g = construct(spec)
        back = from_graph6(to_graph6(g))
        assert ngg_index(back) == pytest.approx(ngg_index(g), abs=1e-12)


def test_parse_n_values():
    assert parse_n_values("8") == [8]
    assert parse_n_values("4..7") == [4, 5, 6, 7]
    assert parse_n_values("5,7,9") == [5, 7, 9]
    assert parse_n_values("4..5,9") == [4, 5, 9]
    for bad in ("", "x", "7..4", "1..x"):
        with pytest.raises(CliError):
            parse_n_values(bad)


def test_bad_flags_exit_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "not-a-claim"])
    # the tie window is derived from the float error, not settable
    with pytest.raises(SystemExit) as exc:
        main(["verify", "trees", "--n", "5", "--epsilon", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["enumerate", "--n", "5", "--workers", "0"])
    capsys.readouterr()


def test_main_parses_with_one_parser_per_process(capsys, monkeypatch):
    # the parser is built once and shared: every main call parses with the
    # object build_parser returns
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(capsys, "family", "P:4")[0] == 0
    assert run(capsys, "enumerate", "--n", "4")[0] == 0
    assert len(parsers) == 2
    assert parsers[0] is parsers[1] is ggindex.cli.build_parser()


def test_the_shared_parser_keeps_help_errors_and_exit_codes(capsys, monkeypatch):
    # each outcome twice over one parser: help and argparse errors exit
    # through SystemExit with 0 and 2, the --workers check through
    # parser.error, and a parsed run's options do not leak into the next
    monkeypatch.setenv("COLUMNS", "80")
    help_text = (GOLDEN / "help.text").read_bytes().decode("ascii")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == help_text
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "5", "--workers", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            "usage: ggindex [-h] {index,family,enumerate,verify} ...\n"
            "ggindex: error: --workers must be at least 1\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-a-claim"])
        assert exc.value.code == 2
        assert "invalid choice: 'not-a-claim'" in capsys.readouterr().err
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--bipartite")
        assert (code, len(out.split())) == (0, 3)
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert (code, len(out.split())) == (0, 6)
        assert run(capsys, "verify", "conjecture2", "--n", "6")[0] == 1
        assert run(capsys, "enumerate", "--n", "99")[0] == 2


def test_module_entry_point(tmp_path):
    f = tmp_path / "c5.g6"
    f.write_text("Dhc\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ggindex", "index", str(f)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "n=5 m=5" in proc.stdout


@pytest.mark.skipif(
    shutil.which("ggindex") is None,
    reason="ggindex console script not installed (pip install -e .)",
)
def test_console_script_help():
    proc = subprocess.run(
        ["ggindex", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for word in ("index", "family", "enumerate", "verify"):
        assert word in proc.stdout


def test_declared_console_script_entry_point():
    # runs the entry point pyproject.toml declares the way pip's generated
    # ggindex wrapper does, so it is checked without an installed script
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ggindex"] == "ggindex.cli:main"
    module, func = scripts["ggindex"].split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv = ['ggindex', '--help']\n"
        f"sys.exit({func}())\n"
    )
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ggindex")
    for word in ("index", "family", "enumerate", "verify"):
        assert word in proc.stdout
