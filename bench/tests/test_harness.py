"""Tests of the benchmark harness itself: python3 -m pytest bench/tests"""

import contextlib
import io
import json

import networkx as nx
import pytest

import checks
import graphgen
import run
import spans
import workloads
from workloads import Command, Workload


def _report(*results):
    return {"commands": [{"exit_code": rc, "stdout": out} for rc, out in results]}


def _workload(*commands):
    return Workload("synthetic", commands)


# ---------------------------------------------------------------- checks ----

def test_wrong_digest_or_exit_code_counts_as_failure():
    good = "hello\n"
    wl = _workload(
        Command(("family", "P:3"), 0, checks.digest(good)),
        Command(("family", "C:3"), 1, checks.digest(good)),
    )
    assert run.check_pass(wl, _report((0, good), (1, good)), {}, None, False) == 0
    assert run.check_pass(wl, _report((0, "other\n"), (1, good)), {}, None, False) == 1
    assert run.check_pass(wl, _report((0, good), (0, good)), {}, None, False) == 1
    assert run.check_pass(wl, _report((2, "x"), (0, "")), {}, None, False) == 2


def test_seeded_output_must_repeat_the_first_pass():
    wl = _workload(Command(("family", "P:3"), 0))
    digests = {}
    assert run.check_pass(wl, _report((0, "a\n")), digests, None, False) == 0
    assert run.check_pass(wl, _report((0, "a\n")), digests, None, False) == 0
    assert run.check_pass(wl, _report((0, "b\n")), digests, None, False) == 1


def test_class_counts_are_checked_against_known_values():
    argv = ("verify", "trees", "--n", "5..6", "--format", "json")
    rows = [{"n": 5, "classes": 3}, {"n": 6, "classes": 6}]
    assert checks.check_class_counts(argv, json.dumps({"rows": rows})) == []
    rows[1]["classes"] = 7
    assert len(checks.check_class_counts(argv, json.dumps({"rows": rows}))) == 1
    assert checks.check_class_counts(argv, "not json") != []
    other_bound = ("verify", "conjecture3", "--n", "6", "--max-degree", "4")
    assert checks.check_class_counts(other_bound, json.dumps({"rows": rows})) == []


def test_index_reference_catches_a_wrong_value():
    graphs = graphgen.generate(5)[:3]
    records = [checks.reference_record(n, e) for n, e in graphs]
    assert checks.check_index_output(json.dumps({"records": records}), graphs) == []
    records[2]["ngg"] *= 1 + 1e-6
    assert len(checks.check_index_output(json.dumps({"records": records}), graphs)) == 1
    records[2]["splits"][0][2] += 1
    assert len(checks.check_index_output(json.dumps({"records": records}), graphs)) == 2
    assert len(checks.check_index_output(json.dumps({"records": records[:2]}), graphs)) == 1


def test_index_reference_matches_the_program(tmp_path):
    from ggindex.cli import main

    graphs = graphgen.generate(2)[:4]
    path = tmp_path / "graphs.g6"
    path.write_text("".join(graphgen.encode_graph6(n, e) + "\n" for n, e in graphs))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["index", "--splits", "--format", "json", str(path)]) == 0
    assert checks.check_index_output(out.getvalue(), graphs) == []


# ------------------------------------------------------------- generator ----

def test_generator_is_deterministic_per_seed():
    assert graphgen.generate(7) == graphgen.generate(7)
    assert graphgen.generate(7) != graphgen.generate(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_emits_only_connected_simple_graphs(seed):
    for n, edges in graphgen.generate(seed):
        assert all(0 <= u < v < n for u, v in edges)
        assert len(set(edges)) == len(edges)
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        assert nx.is_connected(g)


def test_input_files_round_trip(tmp_path):
    graphs = graphgen.generate(3)
    order = graphgen.write_inputs(graphs, tmp_path / "a.g6", tmp_path / "a.txt")
    assert sorted(order) == sorted(graphs)
    g6_lines = (tmp_path / "a.g6").read_text().split()
    blocks = (tmp_path / "a.txt").read_text().strip().split("\n\n")
    assert len(g6_lines) + len(blocks) == len(graphs)
    for line, (n, edges) in zip(g6_lines, order):
        g = nx.from_graph6_bytes(line.encode())
        assert g.number_of_nodes() == n
        assert sorted(tuple(sorted(e)) for e in g.edges()) == edges
    for block, (n, edges) in zip(blocks, order[len(g6_lines):]):
        head, *rest = block.splitlines()
        assert head == f"{n} {len(edges)}"
        assert [tuple(map(int, r.split())) for r in rest] == edges


# ----------------------------------------------------------------- spans ----

def _span(name, parent, start, end, value=0):
    return (name, parent, start, end, value)


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("enumeration.enumerate_connected", 0, 1.0, 4.0),
        _span("canon.canon_full", 1, 2.0, 3.0),
        _span("indices.gg_index", 0, 3.5, 6.0),  # overlaps its sibling
        _span("graphs.all_pairs_distances", 3, 4.0, 9.0),  # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 0.5, 5.0])


def test_layer_metrics_on_a_synthetic_trace():
    tree = [
        _span("extremal.find_extremal", -1, 0.0, 10.0, 2),
        _span("enumeration.enumerate_connected", 0, 0.0, 3.0),
        _span("canon.canon_full", 1, 0.0, 1.0),
        _span("canon.canon_full", 1, 1.0, 2.0),
        _span("canon.canon_full", 1, 2.0, 2.5),
        _span("enumeration.next", 0, 3.0, 4.0, 1),
        _span("formats.decode_graph6", 5, 3.0, 3.5),
        _span("enumeration.next", 0, 4.0, 4.5, 0),
        _span("graphs.canonical_form", 0, 5.0, 6.0),
        _span("canon.canon_full", 8, 5.0, 6.0),
        _span("indices.gg_index", 0, 6.0, 8.0, 111),
        _span("indices.edge_splits", 10, 6.0, 7.5, 111),
        _span("graphs.all_pairs_distances", 11, 6.0, 7.0),
    ]
    m = spans.layer_metrics(tree)
    assert m["canon.calls"] == 4
    assert m["canon.self_s"] == pytest.approx(3.5)
    assert m["enumeration.classes"] == 1
    assert m["enumeration.canon_calls_per_class"] == 3
    assert m["enumeration.self_s"] == pytest.approx(0.5 + 0.5 + 0.5)
    assert m["formats.calls"] == 1
    assert m["graphs.canonical_form_calls"] == 1
    assert m["graphs.apsp_calls"] == 1
    assert m["indices.apsp_per_graph"] == 1
    assert m["indices.self_s"] == pytest.approx(0.5 + 0.5)
    assert m["extremal.self_s"] == pytest.approx(10 - 3 - 1 - 0.5 - 1 - 2)
    assert m["extremal.window_max"] == 2


def test_count_mismatch_is_reported():
    a = spans.layer_metrics([_span("canon.canon_full", -1, 0.0, 1.0)])
    b = spans.layer_metrics([_span("canon.canon_full", -1, 0.0, 1.0)] * 2)
    assert spans.count_mismatches(a, a) == []
    assert spans.count_mismatches(a, b) == ["canon.calls: 1 != 2"]


def test_tracer_sees_every_lookup_and_keeps_stdout(tmp_path):
    import ggindex.cli as cli
    import ggindex.extremal as extremal
    from ggindex.radicals import RadicalSum

    argv = ["verify", "max-bipartite", "--n", "4..5", "--format", "json"]

    def run_cli():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return out.getvalue()

    plain = run_cli()
    originals = (cli.main, cli._INDEX_FNS["gg"], extremal._FLOAT_FN["ngg"], RadicalSum.sign)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert cli._INDEX_FNS["gg"] is not originals[1]
        assert extremal._FLOAT_FN["ngg"] is not originals[2]
        assert RadicalSum.sign is not originals[3]
        assert run_cli() == plain
    finally:
        spans.restore(patches)
    assert (cli.main, cli._INDEX_FNS["gg"], extremal._FLOAT_FN["ngg"], RadicalSum.sign) == originals

    path = tmp_path / "spans.json"
    tracer.dump(path)
    m = spans.layer_metrics(spans.load_spans(path))
    assert m["enumeration.classes"] == 3 + 5
    assert m["canon.calls"] > 0
    assert m["graphs.build_calls"] >= m["enumeration.classes"]
    assert spans.self_times(spans.load_spans(path))[0] >= 0


def test_workload_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
