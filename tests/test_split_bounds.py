"""Floors on edge splits, the term bounds built from them, and the verify
folds that skip a class's split pass on those bounds.

The floors and bounds are checked against the split pass on every walk
class at small orders and against one breadth-first search per vertex on
drawn graphs with triangles and closed twins. A skipping fold is checked
against a reference fold that offers every class its value."""

from math import fsum

import pytest
from conftest import connected_graphs
from hypothesis import given, strategies as st
from oracles import is_bipartite

from ggindex import enumeration, extremal
from ggindex.enumeration import Constraints, _classes, _edges, _node_floors
from ggindex.extremal import CLAIMS, Objective, _Extremum, _fold_shard
from ggindex.graphs import build_graph
from ggindex.indices import TERMS, TIE_RTOL, float_tie, split_term_bounds, term_sum

BOUNDS = [(index, sense) for index in ("gg", "ngg") for sense in ("max", "min")]


def _on_its_side(sense: str, value: float, bound: float) -> bool:
    """value is at most bound (max) or at least bound (min), up to float error."""
    return float_tie(value, bound) or (value <= bound if sense == "max" else value >= bound)


def _tables(n: int, bipartite: bool) -> dict:
    return {(i, s): split_term_bounds(n, i, s, bipartite) for i, s in BOUNDS}


def _check_floors_and_bounds(masks, splits, bipartite: bool) -> None:
    """Every edge's floors lie below its split's sides, and every table's
    bound lies on its side of the edge's term and of the class's value."""
    n = len(masks)
    floors = _node_floors((masks, None))
    assert len(floors) == len(splits)
    for (a0, b0), (n_u, n_v) in zip(floors, splits):
        assert 1 <= a0 <= n_u and 1 <= b0 <= n_v
    for (index, sense), table in _tables(n, bipartite).items():
        for floor, (n_u, n_v) in zip(floors, splits):
            assert _on_its_side(sense, TERMS[index].value(n_u, n_v), table[floor])
        value = term_sum(index, [(None, n_u, n_v) for n_u, n_v in splits])
        assert _on_its_side(sense, value, fsum(table[floor] for floor in floors))


@pytest.mark.parametrize(
    "cons",
    [Constraints(9, bipartite_only=True), Constraints(9, max_degree=3), Constraints(7)],
    ids=lambda c: c.describe() + f" n<={c.n}",
)
def test_floors_and_bounds_hold_on_every_walk_class(cons):
    stream, _, splits_of, floors_of = _classes(cons, frozenset(range(1, cons.n + 1)), 0, 1)
    assert floors_of is _node_floors
    for _, node in stream:
        masks = node[0]
        splits = splits_of(node)
        assert [split[0] for split in splits] == _edges(masks)
        _check_floors_and_bounds(masks, [split[1:] for split in splits], cons.bipartite_only)


def test_verify_builds_each_walk_classs_edge_list_once():
    # the three verify-graphs bench commands stream 2 096 walk classes; the
    # floors of each class and, unless its bound skips it, its split pass
    # read one edge list, built once. The only other builds are conjecture
    # 1's three-key tie window at n = 5, re-ranked exactly from one held
    # candidate per key after the stream
    per_claim = []
    for claim, orders in [
        ("max-bipartite", range(4, 10)), ("conjecture1", range(5, 9)), ("conjecture2", range(6, 10))
    ]:
        enumeration._edges.cache_clear()
        report = extremal.verify(claim, orders, max_degree=3)
        classes = sum({row.n: row.classes for row in report.rows}.values())
        per_claim.append((classes, enumeration._edges.cache_info().misses))
    assert per_claim == [(981, 981), (297, 300), (818, 818)]
    assert sum(classes for classes, _ in per_claim) == 2096


def _bfs_splits(masks) -> list[tuple[int, int]]:
    """(n_u, n_v) of every edge in _edges order, from one breadth-first
    search per vertex."""
    n = len(masks)
    dist = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        queue = [s]
        for x in queue:
            for w in range(n):
                if masks[x] >> w & 1 and d[w] < 0:
                    d[w] = d[x] + 1
                    queue.append(w)
        dist.append(d)
    return [
        (
            sum(du < dv for du, dv in zip(dist[u], dist[v])),
            sum(dv < du for du, dv in zip(dist[u], dist[v])),
        )
        for u, v in _edges(masks)
    ]


@st.composite
def graphs_with_closed_twins(draw):
    """A connected graph, then a closed twin (a new vertex joined to x and to
    every neighbour of x) for each drawn x: every twin closes a triangle."""
    g = draw(connected_graphs(min_n=2, max_n=7))
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    for x in draw(st.lists(st.integers(0, g.n - 1), max_size=3)):
        w = len(masks)
        twin = masks[x] | 1 << x
        masks.append(twin)
        for y in range(w):
            if twin >> y & 1:
                masks[y] |= 1 << w
    return tuple(masks)


@given(graphs_with_closed_twins())
def test_floors_and_bounds_hold_against_breadth_first_splits(masks):
    g = build_graph(len(masks), _edges(masks))
    _check_floors_and_bounds(masks, _bfs_splits(masks), is_bipartite(g))


def test_closed_twins_alone_floor_the_min_gg_term_at_zero():
    # a0 = b0 = 1 exactly when N[u] = N[v]; such an edge's GG term is
    # g(1, 1) = 0, and every other edge's is bounded away from 0
    for n in range(2, 13):
        for (a0, b0), bound in split_term_bounds(n, "gg", "min", False).items():
            assert (bound == 0.0) == (a0 == b0 == 1)
    triangle = (0b110, 0b101, 0b011)
    assert _node_floors((triangle, None)) == [(1, 1)] * 3
    assert _bfs_splits(triangle) == [(1, 1)] * 3


def test_term_bounds_refuse_other_indices():
    with pytest.raises(ValueError):
        split_term_bounds(5, "abc", "max", False)
    with pytest.raises(ValueError):
        split_term_bounds(5, "gg", "mean", False)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_a_bound_near_the_window_is_not_out_of_reach(sense):
    # with best and bound near 1, a class's float value may lie 7u past its
    # float bound and still float_tie the best when the bound lies up to
    # 2 TIE_RTOL + 7u = 23u beyond it: no such bound may skip, nor one on
    # the better side; well past that the fold skips
    fold = _Extremum(Objective(sense, "gg"))
    assert not fold.out_of_reach(0.0)  # no best yet
    fold.offer(1.0, "best")
    beyond = -1.0 if sense == "max" else 1.0
    for gap in (0.0, TIE_RTOL, 2.5 * TIE_RTOL):
        assert not fold.out_of_reach(1.0 + beyond * gap)
        assert not fold.out_of_reach(1.0 - beyond * gap)
    assert not fold.out_of_reach(1.0 - beyond * 0.5)
    for gap in (2.0 ** -46, 0.5):
        assert fold.out_of_reach(1.0 + beyond * gap)


# The walk classes with the claims that fold them, as in CLAIMS.
SKIP_CLASSES = {
    "bipartite": (Constraints(9, bipartite_only=True), {"max-bipartite": 4, "min-bipartite": 4}),
    "max degree 3": (Constraints(9, max_degree=3), {"conjecture1": 5, "conjecture2": 6}),
    "max degree 4": (Constraints(9, max_degree=4), {"conjecture1": 5, "conjecture2": 6}),
}


@pytest.mark.parametrize("mod", [1, 2, 3])
@pytest.mark.parametrize("name", list(SKIP_CLASSES))
def test_a_skip_leaves_no_trace(name, mod, monkeypatch):
    # each shard's classes are drawn once and replayed to _fold_shard, which
    # skips on bounds, and to reference folds, which offer every class its
    # value: the best, the window's values and keys and the class count agree
    cons, claims = SKIP_CLASSES[name]
    orders = frozenset(range(min(claims.values()), cons.n + 1))
    indices = {check.objective.index for claim in claims for check in CLAIMS[claim].checks}
    skipped = {claim: {n: 0 for n in orders} for claim in claims}
    totals = dict.fromkeys(orders, 0)
    for res in range(mod):
        stream, key_of, splits_of, floors_of = _classes(cons, orders, res, mod)
        drawn = list(stream)
        values = []
        for _, candidate in drawn:
            splits = splits_of(candidate)
            values.append({index: term_sum(index, splits) for index in indices})
        for n, _ in drawn:
            totals[n] += 1
        for claim, least in claims.items():
            mine = frozenset(n for n in orders if n >= least)
            reference = {n: [_Extremum(c.objective, key_of) for c in CLAIMS[claim].checks] for n in mine}
            for (n, candidate), value in zip(drawn, values):
                for fold in reference.get(n, ()):
                    fold.offer(value[fold.objective.index], candidate)
            replay = [(n, c) for n, c in drawn if n in mine]
            monkeypatch.setattr(
                extremal, "_classes", lambda *args: (iter(replay), key_of, splits_of, floors_of)
            )
            folds = _fold_shard(claim, cons, mine, res, mod)
            for n in mine:
                for fold, want in zip(folds[n], reference[n]):
                    assert fold.best == want.best
                    assert [v for v, _ in fold.window] == [v for v, _ in want.window]
                    assert [key_of(c) for _, c in fold.window] == [
                        key_of(c) for _, c in want.window
                    ]
                    assert fold.total == want.total
                    skipped[claim][n] += fold.skipped
    if name == "bipartite":
        # the bound fires: max-bipartite skips most split passes at n = 9
        assert skipped["max-bipartite"][9] * 2 > totals[9]


def test_merged_folds_add_their_skips():
    cons = Constraints(8, bipartite_only=True)
    orders = frozenset({8})
    shards = [_fold_shard("max-bipartite", cons, orders, res, 2)[8][0] for res in range(2)]
    counts = [(fold.total, fold.skipped) for fold in shards]
    merged, other = shards
    merged.merge(other)
    assert (merged.total, merged.skipped) == tuple(map(sum, zip(*counts)))
    assert 0 < merged.skipped < merged.total
