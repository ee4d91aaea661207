import math
import random

import pytest

from ggindex.enumeration import Constraints, enumerate_connected
from ggindex.extremal import (
    Objective,
    _Extremum,
    ExtremalError,
    asymptotic_check,
    crossover_pattern_ok,
    crossover_scan,
    exact_index_value,
    find_extremal,
    is_almost_regular,
    min_bipartite_closed,
    min_bipartite_expected,
    parse_objective,
    residuals_positive_decreasing,
    verify,
)
from ggindex.families import (
    complete_bipartite,
    cycle,
    cycle_hook,
    cycle_pendant,
    ngg_closed,
    parse_spec,
    path,
    star,
)
from ggindex.graphs import build_graph, canonical_form
from ggindex.indices import INDEX_FNS, gg_index, ngg_index


def key(g):
    return canonical_form(g).decode("ascii")


def test_objective_validation():
    assert parse_objective("min-ngg") == Objective("min", "ngg")
    assert parse_objective("MAX-GG") == Objective("max", "gg")
    with pytest.raises(ExtremalError):
        Objective("mid", "gg")
    with pytest.raises(ExtremalError):
        Objective("min", "wiener")
    with pytest.raises(ExtremalError):
        parse_objective("maxngg")


def test_index_value_dispatch():
    g = path(5)
    for which in ("gg", "ngg", "abc"):
        assert exact_index_value(g, which).to_float() == pytest.approx(
            INDEX_FNS[which](g), abs=1e-12
        )


def test_find_extremal_single_graph():
    g = cycle(6)
    res = find_extremal([g], Objective("min", "ngg"))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.witnesses == (key(g),)
    assert res.exact_witnesses == (key(g),)
    assert res.total_classes == 1


def test_find_extremal_empty_stream():
    with pytest.raises(ExtremalError):
        find_extremal([], Objective("min", "ngg"))


def test_find_extremal_epsilon_window():
    p, c = path(6), cycle(6)
    assert find_extremal([p, c], Objective("min", "gg")).witnesses == (key(p),)
    # equal floats share the window, and the exact re-rank still picks P6
    fold = _Extremum(Objective("min", "gg"))
    v = gg_index(p)
    fold.offer(v, c)
    fold.offer(v, p)
    res = fold.result()
    assert res.witnesses == tuple(sorted((key(p), key(c))))
    assert res.exact_witnesses == (key(p),)


def test_find_extremal_exact_tie():
    res = find_extremal(
        [cycle_pendant(15), cycle_hook(15)], Objective("min", "ngg")
    )
    assert len(res.witnesses) == 2
    assert len(res.exact_witnesses) == 2
    assert res.value == pytest.approx(8 / math.sqrt(14), abs=1e-12)


def test_find_extremal_order_invariance():
    pool = list(enumerate_connected(Constraints(5)))
    rng = random.Random(7)
    for objective in (Objective("min", "ngg"), Objective("max", "gg")):
        baseline = find_extremal(pool, objective)
        for _ in range(5):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            again = find_extremal(shuffled, objective)
            assert again.witnesses == baseline.witnesses
            assert again.exact_witnesses == baseline.exact_witnesses
            assert again.value == pytest.approx(baseline.value, abs=1e-12)


def test_verify_max_bipartite_small():
    report = verify("max-bipartite", range(4, 8))
    assert report.passed and report.n_range == (4, 5, 6, 7)
    for row in report.rows:
        a, b = row.n // 2, row.n - row.n // 2
        assert row.exact_witnesses == (key(complete_bipartite(a, b)),)
        assert row.value == pytest.approx(math.sqrt(a * b), abs=1e-9)


def test_verify_min_bipartite_small():
    report = verify("min-bipartite", range(4, 8))
    assert report.passed
    for row in report.rows:
        assert row.exact_witnesses == (key(path(row.n)),)


def test_verify_tree_extremals_small():
    report = verify("trees", range(4, 9))
    assert report.passed
    assert len(report.rows) == 10
    for row in report.rows:
        want = path(row.n) if row.note == "min over trees" else star(row.n)
        assert row.exact_witnesses == (key(want),)


def test_verify_canonicalizes_only_the_expected_graphs(monkeypatch):
    # trees come unkeyed; canonical_form runs once per expected witness,
    # once per candidate left in a window (one tree a row here), and on the
    # two 7-vertex trees that share the running maximum GG, with equal edge
    # splits, until the star displaces them
    from ggindex import extremal

    real = extremal.canonical_form
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(extremal, "canonical_form", counted)
    report = verify("trees", range(4, 9))
    assert report.passed
    assert len(report.rows) == 10
    assert all(len(row.witnesses) == 1 for row in report.rows)
    assert len(calls) == len(report.rows) + sum(len(row.witnesses) for row in report.rows) + 2


def test_window_keys_isomorphic_copies_once(monkeypatch):
    # a lone candidate is not keyed until the result; a second one keys both,
    # and an isomorphic copy joins under its class's key, not as a new entry
    from ggindex import extremal

    real = extremal.canonical_form
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(extremal, "canonical_form", counted)
    p, relabeled = path(5), build_graph(5, [(0, 4), (4, 1), (1, 3), (3, 2)])
    fold = _Extremum(Objective("min", "gg"))
    fold.offer(gg_index(p), p)
    assert calls == []
    fold.offer(gg_index(relabeled), relabeled)
    assert len(calls) == 2
    res = fold.result()
    assert res.witnesses == res.exact_witnesses == (key(p),)
    assert res.total_classes == 2


def test_min_bipartite_expected_table():
    assert [key(g) for g in min_bipartite_expected(6)] == [key(path(6))]
    assert [key(g) for g in min_bipartite_expected(10)] == [key(cycle(10))]
    assert [key(g) for g in min_bipartite_expected(11)] == [key(cycle_pendant(11))]
    assert [key(g) for g in min_bipartite_expected(15)] == [
        key(cycle_pendant(15)),
        key(cycle_hook(15)),
    ]
    assert [key(g) for g in min_bipartite_expected(17)] == [key(cycle_hook(17))]
    with pytest.raises(ExtremalError):
        min_bipartite_expected(3)


def test_min_bipartite_closed_matches_graphs():
    for n in (6, 8, 9, 11, 14, 15, 17, 21):
        graphs = min_bipartite_expected(n)
        want = min(ngg_index(g) for g in graphs)
        assert min_bipartite_closed(n) == pytest.approx(want, abs=1e-10), n
    assert min_bipartite_closed(12) == 2.0


def test_min_bipartite_closed_is_the_closed_form_of_the_first_family():
    for n in range(4, 42):
        code = "P" if n < 8 else "C" if n % 2 == 0 else "CP" if n <= 15 else "CH"
        assert min_bipartite_closed(n) == ngg_closed(parse_spec(f"{code}:{n}")), n
    with pytest.raises(ExtremalError):
        min_bipartite_closed(3)


def test_crossover_scan_pattern():
    rows = crossover_scan(range(5, 100, 2))
    assert crossover_pattern_ok(rows)
    by_n = {row.n: row for row in rows}
    assert by_n[9].comparison == "C' < C''"
    assert by_n[9].ngg_cycle_pendant == pytest.approx(2.1424, abs=1e-4)
    assert by_n[9].ngg_cycle_hook == pytest.approx(2.2361, abs=1e-4)
    assert by_n[15].comparison == "equal"
    assert by_n[15].ngg_cycle_pendant == pytest.approx(8 / math.sqrt(14), abs=1e-12)
    assert by_n[15].ngg_cycle_hook == pytest.approx(8 / math.sqrt(14), abs=1e-12)
    assert by_n[17].comparison == "C'' < C'"
    # closed forms agree with graph evaluations along the way
    for n in (5, 9, 15, 23):
        assert by_n[n].ngg_cycle_pendant == pytest.approx(
            ngg_index(cycle_pendant(n)), abs=1e-10
        )
        assert by_n[n].ngg_cycle_hook == pytest.approx(
            ngg_index(cycle_hook(n)), abs=1e-10
        )


def test_crossover_scan_rejects_even():
    with pytest.raises(ExtremalError):
        crossover_scan([6])
    with pytest.raises(ExtremalError):
        crossover_scan([3])


def test_verify_crossover_names_the_orders_it_was_given():
    # the library error speaks of the orders, not of a CLI flag
    with pytest.raises(ExtremalError, match=r"\[4, 6\]") as info:
        verify("crossover", [4, 6])
    assert "--n" not in str(info.value)


def test_pattern_check_notices_wrong_rows():
    rows = crossover_scan([9, 15, 17])
    bad = [rows[0]._replace(comparison="equal")] + rows[1:]
    assert not crossover_pattern_ok(bad)


def test_asymptotic_residuals():
    rows = asymptotic_check([100, 1000, 10_000])
    assert residuals_positive_decreasing(rows)
    assert rows[0].residual == pytest.approx(math.pi - rows[0].ngg_path, abs=1e-15)
    stuck = [rows[0], rows[0]]
    assert not residuals_positive_decreasing(stuck)


def test_is_almost_regular():
    assert is_almost_regular(cycle(5), 2)
    assert is_almost_regular(path(2), 1)
    # C5 plus two chords: degrees (3, 3, 3, 3, 2)
    nearly = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    assert sorted(nearly.degrees) == [2, 3, 3, 3, 3]
    assert is_almost_regular(nearly, 3)
    assert not is_almost_regular(star(4), 3)
    assert not is_almost_regular(complete_bipartite(2, 3), 3)
    assert not is_almost_regular(path(3), 2)


def test_probe_conjecture_validation():
    with pytest.raises(ExtremalError):
        verify("conjecture4", [6], max_degree=3)
    with pytest.raises(ExtremalError):
        verify("conjecture2", [6], max_degree=1)


def test_probe_conjecture_two_finds_the_small_counterexamples():
    report = verify("conjecture2", [6, 7, 8], max_degree=3)
    assert report.claim == "conjecture2"
    assert not report.passed
    assert report.caveat
    *fail_rows, pass_row = report.rows
    assert [row.n for row in fail_rows] == [6, 7]
    # at n = 6 and 7 the path undercuts the cycle
    for fail_row in fail_rows:
        n = fail_row.n
        assert not fail_row.passed and fail_row.label == "counterexample found"
        assert fail_row.exact_witnesses == (key(path(n)),)
        assert fail_row.expected == (key(cycle(n)),)
        assert fail_row.value == pytest.approx(gg_index(path(n)), abs=1e-12)
    assert pass_row.passed and pass_row.exact_witnesses == (key(cycle(8)),)


def _networkx_gg(nx, g):
    dist = dict(nx.all_pairs_shortest_path_length(g))
    total = 0.0
    for u, v in g.edges():
        n_u = sum(1 for w in g if dist[w][u] < dist[w][v])
        n_v = sum(1 for w in g if dist[w][v] < dist[w][u])
        total += math.sqrt((n_u + n_v - 2) / (n_u * n_v))
    return total


@pytest.mark.parametrize("n, classes", [(6, 29), (7, 64)])
def test_conjecture_two_counterexamples_against_graph_atlas(n, classes):
    # independent oracle: networkx's atlas lists every graph up to 7 vertices
    # once per isomorphism class, and GG comes from its own BFS distances
    nx = pytest.importorskip("networkx")
    graphs = [
        g
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n
        and nx.is_connected(g)
        and max(d for _, d in g.degree()) <= 3
    ]
    assert len(graphs) == classes
    values = sorted(((_networkx_gg(nx, g), g) for g in graphs), key=lambda t: t[0])
    (best, best_g), (runner_up, _) = values[0], values[1]
    assert nx.is_isomorphic(best_g, nx.path_graph(n))
    assert runner_up > best + 1e-9
    assert _networkx_gg(nx, nx.cycle_graph(n)) > best + 1e-9

    row = verify("conjecture2", [n], max_degree=3).rows[0]
    assert row.value == pytest.approx(best, abs=1e-12)
    (witness,) = row.exact_witnesses
    assert nx.is_isomorphic(nx.from_graph6_bytes(witness.encode("ascii")), best_g)


def test_probe_conjecture_one_exact_three_way_tie():
    # the degree-3 maximizers at n = 5 tie exactly at 3 sqrt(2); two of the
    # three are not almost-regular, so the scan reports a counterexample
    report = verify("conjecture1", [5], max_degree=3)
    row = report.rows[0]
    assert not row.passed
    assert len(row.exact_witnesses) == 3
    assert row.value == pytest.approx(3 * math.sqrt(2), abs=1e-12)
    for s in row.exact_witnesses:
        from ggindex.graphs import from_graph6

        g = from_graph6(s)
        assert gg_index(g) == pytest.approx(3 * math.sqrt(2), abs=1e-12)


def test_probe_conjecture_one_consistent_6_to_7():
    report = verify("conjecture1", [6, 7], max_degree=3)
    assert report.passed


def test_probe_conjecture_three_consistent():
    report = verify("conjecture3", [6, 7, 8], max_degree=3)
    assert report.passed
    for row in report.rows:
        assert row.label == "consistent"
        assert len(row.exact_witnesses) == 1


def test_probe_conjecture_star_anchor():
    # with the degree bound lifted to n - 1 the tree maximizer is the star
    for n in (6, 8):
        report = verify("conjecture3", [n], max_degree=n - 1)
        assert report.passed
        assert report.rows[0].exact_witnesses == (key(star(n)),)
