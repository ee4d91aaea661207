import math
import random

import pytest
from hypothesis import example, given, strategies as st

from ggindex.families import (
    almost_dendrimer,
    complete,
    complete_bipartite,
    cycle,
    path,
    star,
)
from ggindex.graphs import all_pairs_distances, build_graph
from ggindex.indices import (
    abc_index,
    edge_splits,
    float_tie,
    gg_index,
    ngg_index,
    term_sum,
)
from ggindex.radicals import RadicalSum

from conftest import connected_graphs
from oracles import is_bipartite, relabel


def splits_by_edge(g):
    return {s.edge: (s.n_u, s.n_v) for s in edge_splits(g)}


def test_path4_splits():
    d = splits_by_edge(path(4))
    assert d[(0, 1)] == (1, 3)
    assert d[(1, 2)] == (2, 2)
    assert d[(2, 3)] == (3, 1)


def test_cycle5_splits_leave_equidistant_out():
    # odd cycle: for each edge, one vertex is equidistant and counts for neither
    assert all(s.n_u == 2 and s.n_v == 2 for s in edge_splits(cycle(5)))


def test_complete_graph_splits_are_all_ones():
    assert all(s.n_u == 1 and s.n_v == 1 for s in edge_splits(complete(4)))


def test_gg_of_complete_is_exactly_zero():
    for n in range(2, 13):
        assert gg_index(complete(n)) == 0.0


def test_known_values():
    assert ngg_index(path(4)) == pytest.approx(1.6547, abs=1e-4)
    assert gg_index(cycle(6)) == pytest.approx(4.0, abs=1e-12)
    assert gg_index(star(5)) == pytest.approx(math.sqrt(12), abs=1e-12)
    assert gg_index(complete_bipartite(2, 2)) == pytest.approx(math.sqrt(8), abs=1e-12)
    assert ngg_index(complete_bipartite(3, 3)) == pytest.approx(3.0, abs=1e-12)


def test_abc_values():
    # ABC depends on degrees only
    assert abc_index(path(3)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert abc_index(star(4)) == pytest.approx(3 * math.sqrt(2 / 3), abs=1e-12)
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert abc_index(g) == pytest.approx(3 * math.sqrt(2) / 2, abs=1e-12)


@given(connected_graphs())
def test_splits_never_exceed_order(g):
    for s in edge_splits(g):
        assert 1 <= s.n_u and 1 <= s.n_v
        assert s.n_u + s.n_v <= g.n


@given(connected_graphs())
def test_indices_are_relabeling_invariant(g):
    perm = list(range(g.n))
    random.Random(g.m).shuffle(perm)
    h = relabel(g, perm)
    # fsum is exactly rounded, so these are equal as floats, not merely close
    assert gg_index(h) == gg_index(g)
    assert ngg_index(h) == ngg_index(g)
    assert abc_index(h) == abc_index(g)


@given(connected_graphs())
def test_bipartite_relation_check(g):
    # the paper's normalization: on bipartite graphs every split covers all
    # n vertices, so each GG term is sqrt(n - 2) times the NGG term. The
    # floats of GG and NGG are within 3u of their exact values (indices.py);
    # the sqrt and the multiply add at most 1u, so the two sides differ by
    # at most 7u*V against float_tie's 16u*V window. On other graphs some
    # vertex is equidistant from the ends of an edge, which can only happen
    # on an odd closed walk, and the split misses it.
    if is_bipartite(g):
        assert float_tie(gg_index(g), ngg_index(g) * math.sqrt(g.n - 2))
    else:
        assert any(s.n_u + s.n_v < g.n for s in edge_splits(g))


def test_bipartite_splits_cover_everything():
    for g in (path(7), cycle(8), complete_bipartite(3, 4), star(9)):
        assert all(s.n_u + s.n_v == g.n for s in edge_splits(g))


def test_gg_matches_ngg_scaling_on_bipartite():
    for g in (path(9), cycle(10), complete_bipartite(2, 5)):
        assert gg_index(g) == pytest.approx(
            ngg_index(g) * math.sqrt(g.n - 2), rel=1e-12
        )


def test_relation_check_catches_a_lie():
    # on odd cycles and cliques the splits fall short of n, and the identity
    # fails by far more than float_tie forgives
    for g in (complete(3), cycle(5), cycle(7), complete(5)):
        assert all(s.n_u + s.n_v < g.n for s in edge_splits(g))
        assert not float_tie(gg_index(g), ngg_index(g) * math.sqrt(g.n - 2))


# ----------------------------------------------------- the float tie bound ----

@given(
    st.lists(st.tuples(st.integers(1, 200), st.integers(1, 200)), min_size=1, max_size=40),
    st.data(),
)
def test_float_tie_holds_for_sums_equal_by_construction(pairs, data):
    i = data.draw(st.integers(0, len(pairs) - 1))
    k = data.draw(st.integers(2, 12))
    a, b = pairs[i]
    # k terms 1/sqrt(ka * kb) sum to 1/sqrt(ab), k terms sqrt(a / (k^2 b)) to sqrt(a/b)
    ngg_pairs = pairs[:i] + [(k * a, k * b)] * k + pairs[i + 1:]
    gg_pairs = pairs[:i] + [(a, k * k * b)] * k + pairs[i + 1:]

    def ngg(ps):
        exact = sum((RadicalSum.sqrt_rational(1, p * q) for p, q in ps), RadicalSum.zero())
        return exact, term_sum("ngg", [(None, p, q) for p, q in ps])

    def gg(ps):
        exact = sum((RadicalSum.sqrt_rational(p, q) for p, q in ps), RadicalSum.zero())
        return exact, math.fsum(math.sqrt(p / q) for p, q in ps)

    for (exact, value), (other_exact, other_value) in [
        (ngg(pairs), ngg(ngg_pairs)),
        (gg(pairs), gg(gg_pairs)),
    ]:
        assert exact == other_exact
        assert float_tie(value, other_value)


# ------------------------------------------------ the split pass vs oracles ----

@st.composite
def long_sparse_graphs(draw, max_n=150):
    """Connected graphs past one 64-bit word: a cycle of any length (an odd
    one leaves a vertex equidistant from each of its edges' ends) with random
    trees hanging off it and a few chords, randomly labeled."""
    n = draw(st.integers(3, max_n))
    c = draw(st.integers(3, n))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(i, i + 1) for i in range(c - 1)} | {(0, c - 1)}
    edges.update((rng.randrange(v), v) for v in range(c, n))
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(rng.sample(range(n), 2)))
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(build_graph(n, edges), perm)


def reference_splits(g, dist):
    """(edge, n_u, n_v) in edge order, counted from a distance table."""
    return [
        (
            (u, v),
            sum(dist[u][w] < dist[v][w] for w in range(g.n)),
            sum(dist[v][w] < dist[u][w] for w in range(g.n)),
        )
        for u, v in g.edges
    ]


def _hang_tree(edges, root, first, size, rng):
    """Add a random tree of `size` new vertices first.. hanging at root."""
    for v in range(first, first + size):
        edges.add((rng.choice([root, *range(first, v)]), v))
    return first + size


@st.composite
def random_trees(draw, max_n=150):
    """Trees, randomly labeled (K1 and K2 included): the peel takes every edge."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = set()
    _hang_tree(edges, 0, 1, n - 1, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(build_graph(n, edges), perm)


@st.composite
def dumbbells(draw):
    """Two cycles joined by a path, randomly labeled. Each path edge is a
    bridge that the peel leaves in the 2-core; trees hang at both ends of
    one of them, so its split counts them on both sides."""
    a, b, k = draw(st.integers(3, 40)), draw(st.integers(3, 40)), draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    # cycle A on 0..a-1, then the path 0, a, a+1, ..., a+k-1, where cycle B starts
    chain = [0, *range(a, a + k)]
    edges = {(i, i + 1) for i in range(a - 1)} | {(0, a - 1)}
    edges.update(zip(chain, chain[1:]))
    start = a + k - 1
    edges.update((start + i, start + i + 1) for i in range(b - 1))
    edges.add((start, start + b - 1))
    j = draw(st.integers(0, k - 1))
    n = _hang_tree(edges, chain[j], start + b, draw(st.integers(1, 25)), rng)
    n = _hang_tree(edges, chain[j + 1], n, draw(st.integers(1, 25)), rng)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(build_graph(n, edges), perm)


@given(st.one_of(long_sparse_graphs(), random_trees(), dumbbells()))
@example(build_graph(1, []))
@example(path(2))
def test_edge_splits_match_distance_oracles(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    ours = [tuple(s) for s in edge_splits(g)]
    assert ours == reference_splits(g, all_pairs_distances(g))
    assert ours == reference_splits(g, dict(nx.all_pairs_shortest_path_length(h)))


def test_path_splits_closed_form():
    n = 20_000
    assert [tuple(s) for s in edge_splits(path(n))] == [
        ((i, i + 1), i + 1, n - 1 - i) for i in range(n - 1)
    ]


def test_almost_dendrimer_splits_are_subtree_sizes():
    # labels are breadth-first, so the smaller end of each edge is the parent
    n = 20_000
    g = almost_dendrimer(n, 3)
    size = [1] * n
    for p, c in reversed(g.edges):
        size[p] += size[c]
    assert [tuple(s) for s in edge_splits(g)] == [
        ((p, c), n - size[c], size[c]) for p, c in g.edges
    ]


@pytest.mark.parametrize("n", [400, 401])
def test_cycle_splits_closed_form(n):
    # C_401 leaves one vertex equidistant from the ends of each edge
    splits = edge_splits(cycle(n))
    assert len(splits) == n
    assert all((s.n_u, s.n_v) == (200, 200) for s in splits)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 7), (3, 5), (40, 50), (70, 3)])
def test_complete_bipartite_splits_closed_form(a, b):
    # vertices 0..a-1 form the a side, and every edge lists its a-side end first
    splits = edge_splits(complete_bipartite(a, b))
    assert len(splits) == a * b
    assert all(s.edge[0] < a <= s.edge[1] and (s.n_u, s.n_v) == (b, a) for s in splits)
