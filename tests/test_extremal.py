import math
import random

import pytest
from oracles import relabel

from ggindex.enumeration import Constraints, _subtree_splits, _tree_graph, _tree_key, _trees, enumerate_connected
from ggindex.extremal import (
    CLAIMS,
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
from ggindex import enumeration, extremal, formats
from ggindex.graphs import Graph, build_graph, canonical_form
from ggindex.indices import INDEX_FNS, TERMS, edge_splits, gg_index, ngg_index, term_sum



def test_objective_validation():
    with pytest.raises(ExtremalError):
        Objective("mid", "gg")
    with pytest.raises(ExtremalError):
        Objective("min", "wiener")


@pytest.mark.parametrize("g", [build_graph(1, []), path(2)], ids=["K1", "K2"])
def test_unknown_exact_index_is_refused_with_or_without_edges(g):
    with pytest.raises(ExtremalError, match="unknown index 'bogus'"):
        exact_index_value(g, "bogus")


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_an_empty_order_list_is_refused(claim):
    with pytest.raises(ExtremalError, match=f"claim {claim} needs at least one order"):
        verify(claim, [])


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
    assert res.witnesses == (canonical_form(g),)
    assert res.exact_witnesses == (canonical_form(g),)
    assert res.total_classes == 1


def test_find_extremal_empty_stream():
    with pytest.raises(ExtremalError):
        find_extremal([], Objective("min", "ngg"))


def test_find_extremal_epsilon_window():
    p, c = path(6), cycle(6)
    assert find_extremal([p, c], Objective("min", "gg")).witnesses == (canonical_form(p),)
    # equal floats share the window, and the exact re-rank still picks P6
    fold = _Extremum(Objective("min", "gg"))
    v = gg_index(p)
    fold.offer(v, c)
    fold.offer(v, p)
    res = fold.result()
    assert res.witnesses == tuple(sorted((canonical_form(p), canonical_form(c))))
    assert res.exact_witnesses == (canonical_form(p),)


def test_find_extremal_exact_tie():
    res = find_extremal(
        [cycle_pendant(15), cycle_hook(15)], Objective("min", "ngg")
    )
    assert len(res.witnesses) == 2
    assert len(res.exact_witnesses) == 2
    assert res.value == pytest.approx(8 / math.sqrt(14), abs=1e-12)


def test_find_extremal_order_invariance():
    # the witnesses depend only on the classes in the stream: a shuffled
    # pool with a relabeled copy of every class reports each class once,
    # and every offer, copies included, counts toward total_classes
    pool = list(enumerate_connected(Constraints(5)))
    rng = random.Random(7)
    for objective in (Objective("min", "ngg"), Objective("max", "gg")):
        baseline = find_extremal(pool, objective)
        for _ in range(5):
            shuffled = pool + [relabel(g, rng.sample(range(g.n), g.n)) for g in pool]
            rng.shuffle(shuffled)
            again = find_extremal(shuffled, objective)
            assert again.witnesses == baseline.witnesses
            assert again.exact_witnesses == baseline.exact_witnesses
            assert again.value == pytest.approx(baseline.value, abs=1e-12)
            assert again.total_classes == 2 * baseline.total_classes == 2 * len(pool)


def _fold(objective, offers):
    fold = _Extremum(objective, str)
    for v, candidate in offers:
        fold.offer(v, candidate)
    return fold


TIED = 1.0 + 2.0 ** -52  # float_ties 1.0
MERGES = {
    # case -> (one shard's offers, the other's, the merged window)
    "the best moves between shards": ([(2.0, "a")], [(1.0, "b")], [(1.0, "b")]),
    "a tie spans two shards": ([(1.0, "a"), (3.0, "x")], [(TIED, "b")], [(1.0, "a"), (TIED, "b")]),
    "a stale offer is dropped": ([(1.0, "a")], [(2.0, "b"), (2.0, "c")], [(1.0, "a")]),
    "a shard is empty": ([(1.0, "a"), (TIED, "b")], [], [(1.0, "a"), (TIED, "b")]),
}


@pytest.mark.parametrize("mine, theirs, window", MERGES.values(), ids=MERGES)
def test_merge_is_the_fold_of_both_shards(mine, theirs, window):
    # merging two folds, either way round, leaves the best, the window and
    # the count of one fold over both shards' offers
    objective = Objective("min", "ngg")
    whole = _fold(objective, mine + theirs)
    for first, second in ((mine, theirs), (theirs, mine)):
        merged = _fold(objective, first)
        merged.merge(_fold(objective, second))
        assert sorted(merged.window) == sorted(whole.window) == window
        assert (merged.best, merged.total) == (whole.best, whole.total) == (1.0, len(mine + theirs))


def test_merge_keeps_an_exact_tie_across_shards():
    # the two odd-order minimizers at n = 15 tie exactly: each alone in its
    # shard, both are exact witnesses of the merge
    objective = Objective("min", "ngg")
    pendant, hook = cycle_pendant(15), cycle_hook(15)
    merged = _Extremum(objective)
    merged.offer(ngg_index(pendant), pendant)
    other = _Extremum(objective)
    other.offer(ngg_index(hook), hook)
    merged.merge(other)
    assert merged.result() == find_extremal([pendant, hook], objective)
    assert len(merged.result().exact_witnesses) == 2


def test_verify_max_bipartite_small():
    report = verify("max-bipartite", range(4, 8))
    assert report.passed and [row.n for row in report.rows] == [4, 5, 6, 7]
    for row in report.rows:
        a, b = row.n // 2, row.n - row.n // 2
        assert row.exact_witnesses == (canonical_form(complete_bipartite(a, b)),)
        assert row.value == pytest.approx(math.sqrt(a * b), abs=1e-9)


def test_verify_min_bipartite_small():
    report = verify("min-bipartite", range(4, 8))
    assert report.passed
    for row in report.rows:
        assert row.exact_witnesses == (canonical_form(path(row.n)),)


def test_verify_tree_extremals_small():
    report = verify("trees", range(4, 9))
    assert report.passed
    assert len(report.rows) == 10
    for row in report.rows:
        want = path(row.n) if row.note == "min over trees" else star(row.n)
        assert row.exact_witnesses == (canonical_form(want),)


def _counting(fn, calls: list):
    """fn, appending its first argument to calls on every call."""

    def counted(arg, *rest):
        calls.append(arg)
        return fn(arg, *rest)

    return counted


def test_verify_canonicalizes_only_the_expected_graphs(monkeypatch):
    # trees come unkeyed: canonical_form runs once per expected witness, and
    # the folds key each tree left in a window once, when the result is
    # taken, not the two 7-vertex trees that share the running maximum GG
    # until the star displaces them
    forms, tree_keys = [], []
    monkeypatch.setattr(extremal, "canonical_form", _counting(extremal.canonical_form, forms))
    monkeypatch.setattr(enumeration, "_tree_key", _counting(enumeration._tree_key, tree_keys))
    report = verify("trees", range(4, 9))
    assert report.passed
    assert len(report.rows) == 10
    assert len(forms) == sum(len(row.expected) for row in report.rows) == 10
    assert len(tree_keys) == sum(len(row.witnesses) for row in report.rows) == 10


def test_one_walk_of_the_largest_orders_class_serves_every_order(monkeypatch):
    # orders given largest first: the walk still gets the class built at the
    # largest order, not the class of the order the loop checked last
    walked = []
    shards = extremal._map_shards

    def recorded(fn, cons, orders, workers):
        walked.append((cons, orders))
        return shards(fn, cons, orders, workers)

    monkeypatch.setattr(extremal, "_map_shards", recorded)
    report = verify("conjecture1", [8, 5], max_degree=3)
    assert walked == [(Constraints(8, max_degree=3), frozenset({5, 8}))]
    assert [row.n for row in report.rows] == [8, 5]


def test_window_keys_isomorphic_copies_once(monkeypatch):
    # nothing is keyed while the stream runs; the result keys each copy in
    # the window, and two isomorphic copies are one witness
    calls = []
    monkeypatch.setattr(extremal, "canonical_form", _counting(extremal.canonical_form, calls))
    p, relabeled = path(5), build_graph(5, [(0, 4), (4, 1), (1, 3), (3, 2)])
    fold = _Extremum(Objective("min", "gg"))
    fold.offer(gg_index(p), p)
    fold.offer(gg_index(relabeled), relabeled)
    assert calls == []
    res = fold.result()
    assert len(calls) == 2
    assert res.witnesses == res.exact_witnesses == (canonical_form(p),)
    assert res.total_classes == 2


@pytest.mark.parametrize("max_degree", [None, 3])
def test_subtree_splits_are_the_split_pass(max_degree):
    # verify values and keys trees from their parent links: the subtree-size
    # splits are the split pass's on the built tree, edge by edge, the split
    # sums give the index functions' floats exactly, and the tree key is the
    # built tree's canonical form
    for n in range(2, 13):
        for parent in _trees(n, max_degree):
            g = _tree_graph(parent)
            assert _tree_key(parent) == canonical_form(g)
            splits = _subtree_splits(parent)
            sides = sorted(sorted(split[1:]) for split in edge_splits(g))
            assert sorted(sorted(split[1:]) for split in splits) == sides
            got = sorted(((parent[v], v), n_u, n_v) for v, n_v, n_u in splits)
            assert got == [tuple(split) for split in edge_splits(g)]
            for index in ("gg", "ngg"):
                assert term_sum(index, splits) == INDEX_FNS[index](g)


def test_tree_claims_use_only_split_sums():
    # verify values every exhaustive claim, trees included, from its splits
    exhaustive = [name for name, claim in CLAIMS.items() if claim.graph_class is not None]
    tree_claims = [name for name in exhaustive if CLAIMS[name].graph_class(6, 3).tree_class]
    assert tree_claims == ["trees", "conjecture3"]
    for name in exhaustive:
        for check in CLAIMS[name].checks:
            assert TERMS[check.objective.index].splits


@pytest.mark.parametrize(
    "claim, orders, builds",
    [("trees", range(4, 11), 28), ("conjecture3", range(6, 12), 6)],
)
def test_tree_claims_build_no_graph_in_the_fold(monkeypatch, claim, orders, builds):
    # a Graph is built only for an expected witness or a closed-form value:
    # the folds value and key each tree from its parent links, and a Graph
    # per tree would be hundreds more
    built = []
    monkeypatch.setattr(Graph, "__init__", _counting(Graph.__init__, built))
    report = verify(claim, orders, max_degree=3)
    assert report.passed
    expected = sum(len(row.expected) for row in report.rows)
    values = len(orders) * sum(c.value is not None for c in CLAIMS[claim].checks)
    assert len(built) == expected + values == builds
    assert builds < sum(row.classes for row in report.rows) / 2


@pytest.mark.parametrize(
    "claim, orders, decodes",
    [
        ("max-bipartite", range(4, 10), []),
        ("conjecture2", range(6, 10), []),
        # the n = 5 window's three keys are re-ranked from their walk nodes'
        # splits; only the probe's exact witnesses are decoded, to test
        # them, up to the first that fails
        ("conjecture1", range(5, 9), ["DFw", "E{Sw", "FqSpW", "GsX_ok"]),
    ],
)
def test_walk_claims_build_no_graph_and_decode_no_key_per_class(
    monkeypatch, claim, orders, decodes
):
    # the walk's classes reach the folds as adjacency masks with their
    # splits, and a window of several keys is re-ranked exactly from them: a
    # Graph is built only for an expected witness or a key the report
    # decodes, and a key is decoded only to test a probe's exact witnesses.
    # A Graph and a decode per class would be hundreds more
    built, decoded = [], []
    monkeypatch.setattr(Graph, "__init__", _counting(Graph.__init__, built))
    monkeypatch.setattr(formats, "decode_graph6", _counting(formats.decode_graph6, decoded))
    report = verify(claim, orders, max_degree=3)
    reranked = [row for row in report.rows if len(row.witnesses) > 1]
    assert len(reranked) == (claim == "conjecture1")
    assert decoded == decodes
    assert set(decoded) <= {key for row in report.rows for key in row.exact_witnesses}
    assert len(built) == sum(len(row.expected) for row in report.rows) + len(decodes)
    assert len(built) < sum(row.classes for row in report.rows) / 10


def test_deferred_tree_candidates_keep_their_own_order(monkeypatch):
    # the folds of each order take all its trees before those of the other;
    # every fold keys its window in result(), from its own parent links
    keyed, in_result = [], []
    monkeypatch.setattr(enumeration, "_tree_key", _counting(enumeration._tree_key, keyed))
    real_result = extremal._Extremum.result

    def result(fold):
        before = len(keyed)
        res = real_result(fold)
        in_result.extend(len(parent) for parent in keyed[before:])
        return res

    monkeypatch.setattr(extremal._Extremum, "result", result)
    report = verify("trees", [7, 5, 7])
    assert report.passed
    assert len(in_result) == len(keyed)
    assert sorted(set(in_result)) == [5, 7]
    monkeypatch.undo()
    assert report.rows == tuple(row for n in (7, 5, 7) for row in verify("trees", [n]).rows)
    for row in report.rows:
        want = path(row.n) if row.note == "min over trees" else star(row.n)
        assert row.exact_witnesses == (canonical_form(want),)


def test_min_bipartite_expected_table():
    for n, families in (
        (6, [path]),
        (10, [cycle]),
        (11, [cycle_pendant]),
        (15, [cycle_pendant, cycle_hook]),
        (17, [cycle_hook]),
    ):
        want = [canonical_form(family(n)) for family in families]
        assert [canonical_form(g) for g in min_bipartite_expected(n)] == want
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


@pytest.mark.parametrize(
    "claim, orders, max_degree, least, refused",
    [
        ("max-bipartite", [4, 1], 3, 2, 1),
        ("min-bipartite", [3, 9], 3, 4, 3),
        ("trees", [1], 3, 2, 1),
        ("conjecture1", [5, 3, 1], 3, 4, 3),
        ("conjecture1", [4], 4, 5, 4),
        ("conjecture2", [2, 10], 3, 3, 2),
        ("conjecture3", [1], 3, 2, 1),
    ],
)
def test_orders_outside_a_claims_domain_are_refused_before_the_walk(
    monkeypatch, claim, orders, max_degree, least, refused
):
    # the first order below the claim's domain is named before any class is
    # generated: no graph on n <= D vertices has degree D (conjecture 1), and
    # the predicted witnesses do not exist below least for the others
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(extremal, "_classes", no_walk)
    at_bound = f" at max degree {max_degree}" if claim.startswith("conjecture") else ""
    want = f"claim {claim} starts at n = {least}{at_bound}, got n = {refused}"
    assert CLAIMS[claim].least(max_degree) == least
    with pytest.raises(ExtremalError) as info:
        verify(claim, orders, max_degree=max_degree)
    assert str(info.value) == want


@pytest.mark.parametrize(
    "claim, max_degree",
    [
        ("max-bipartite", 3),
        ("min-bipartite", 3),
        ("trees", 3),
        ("conjecture1", 2),
        ("conjecture1", 3),
        ("conjecture2", 3),
        ("conjecture3", 3),
    ],
)
def test_each_claim_runs_at_its_least_order(claim, max_degree):
    n = CLAIMS[claim].least(max_degree)
    (row, *_) = verify(claim, [n], max_degree=max_degree).rows
    assert row.n == n and row.classes >= 1


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
        assert fail_row.exact_witnesses == (canonical_form(path(n)),)
        assert fail_row.expected == (canonical_form(cycle(n)),)
        assert fail_row.value == pytest.approx(gg_index(path(n)), abs=1e-12)
    assert pass_row.passed and pass_row.exact_witnesses == (canonical_form(cycle(8)),)


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
        assert report.rows[0].exact_witnesses == (canonical_form(star(n)),)
