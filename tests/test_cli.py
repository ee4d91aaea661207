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

# One spec per family code, the odd cycle too, in every output format, and two
# refused specs. A golden file is named after the spec with ':' and ',' as
# '-'. <name>.<fmt> holds the stdout of
# `PYTHONPATH=src python -m ggindex family <spec> --format <fmt>`, exit 0;
# <name>.stderr the stderr of `... family <spec>`, exit 2 with no stdout.
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
]


@pytest.mark.parametrize("spec, fmt, exit_code", FAMILY_GOLDEN_RUNS)
def test_family_golden_bytes(capsys, spec, fmt, exit_code):
    code, out, err = run(capsys, "family", spec, "--format", fmt)
    name = spec.replace(":", "-").replace(",", "-")
    assert code == exit_code
    if exit_code == 0:
        assert out == (FAMILY_GOLDEN_DIR / f"{name}.{fmt}").read_bytes().decode("ascii")
    else:
        assert out == ""
        assert err == (FAMILY_GOLDEN_DIR / f"{name}.stderr").read_bytes().decode("ascii")


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
# `PYTHONPATH=src python -m ggindex verify <claim> --n <orders> --format <fmt>`.
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
def test_verify_golden_bytes(capsys, claim, orders, exit_code, fmt):
    code, out, _ = run(capsys, "verify", claim, "--n", orders, "--format", fmt)
    assert code == exit_code
    assert out == (GOLDEN / f"{claim}.{fmt}").read_bytes().decode("ascii")


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


INDEX_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "index"

# (name, arguments, file fed to stdin). Each case runs in every output format
# but csv for --splits, which csv cannot carry. It runs from INDEX_GOLDEN_DIR,
# so the source labels are the relative names; a golden file holds the stdout
# of `ggindex index <arguments> --format <fmt>` run there. The inputs hold
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
def test_index_golden_bytes(capsys, monkeypatch, request, args, stdin, fmt):
    monkeypatch.chdir(INDEX_GOLDEN_DIR)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO((INDEX_GOLDEN_DIR / stdin).read_text()))
    code, out, _ = run(capsys, "index", *args, "--format", fmt)
    assert code == 0
    assert out == (INDEX_GOLDEN_DIR / request.node.callspec.id).read_bytes().decode("ascii")


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
