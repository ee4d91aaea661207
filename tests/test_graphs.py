import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ggindex.bitset import bipartition, bits, iter_bits
from ggindex.graphs import (
    GraphError,
    all_pairs_distances,
    build_graph,
    canonical_form,
    from_graph6,
    to_graph6,
)

from conftest import connected_graphs, floyd_warshall, random_connected_graph
from oracles import is_bipartite, relabel


def test_edges_are_normalized():
    g = build_graph(4, [(3, 1), (1, 3), (2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2), (1, 3))
    assert g.m == 3


def test_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])


def test_rejects_disconnected_and_names_a_vertex():
    with pytest.raises(GraphError, match="vertex 3"):
        build_graph(4, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        build_graph(2, [])


def test_too_few_edges_are_rejected_before_any_n_sized_table():
    # fewer than n - 1 edges cannot connect n vertices; the message still
    # names the smallest unreachable vertex
    for edges, missing in (([], 1), ([(0, 1)], 2)):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=f"vertex {missing} is unreachable"):
                build_graph(10**6, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_building_a_long_path_takes_linear_memory():
    # no adjacency bitmasks at build time: the mask of vertex v would hold
    # about v bits, n^2 / 2 bits in all
    n = 20_000
    edges = [(i, i + 1) for i in range(n - 1)]
    tracemalloc.start()
    try:
        g = build_graph(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == n - 1 and g.degrees[0] == g.degrees[-1] == 1
    assert peak < 8 << 20


@given(st.integers(2, 9), st.data())
def test_disconnected_graph_names_its_smallest_unreachable_vertex(n, data):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
    if len(seen) == n:
        build_graph(n, edges)
    else:
        missing = min(set(range(n)) - seen)
        with pytest.raises(GraphError, match=f"vertex {missing} is unreachable"):
            build_graph(n, edges)


def test_rejects_nonpositive_order():
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_single_vertex_is_fine():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0 and g.m - g.n + 1 == 0


def test_degrees_and_cyclomatic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.degrees == (3, 2, 3, 2)
    assert g.max_degree == 3
    assert g.m - g.n + 1 == 2


def test_distances_small_cycle():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    d = all_pairs_distances(g)
    assert d[0] == (0, 1, 2, 2, 1)
    assert d[2] == (2, 1, 0, 1, 2)


@given(connected_graphs())
def test_distances_match_floyd_warshall(g):
    assert [list(row) for row in all_pairs_distances(g)] == floyd_warshall(g)


@given(connected_graphs())
def test_bipartite_matches_parity_oracle(g):
    adj = g.adjacency_bits
    sides = bipartition(adj, 0)
    assert (sides is not None) == is_bipartite(g)
    if sides is not None:
        # vertex 0's side first, the sides partition the vertices, and no
        # edge stays inside a side
        a, b = sides
        assert a & 1 and not a & b and a | b == (1 << g.n) - 1
        assert all(not adj[v] & side for side in sides for v in iter_bits(side))


def test_two_coloring_properties():
    # the bipartite generator colours one component of a disconnected
    # level graph at a time: C6 on 0..5, a path on 6..8, a triangle on 9..11
    edges = [(v, (v + 1) % 6) for v in range(6)] + [(6, 7), (7, 8), (9, 10), (10, 11), (9, 11)]
    adj = [0] * 12
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert bipartition(adj, 3) == (0b101010, 0b010101)
    assert bipartition(adj, 7) == (1 << 7, 1 << 6 | 1 << 8)
    for v in (9, 10, 11):
        assert bipartition(adj, v) is None
    assert bipartition([0], 0) == (1, 0)


def test_cached_bit_lists_are_iter_bits():
    # every mask on 12 vertices, then masks past the cache's size and far
    # wider than any walk graph, which evict the small ones
    limit = bits.cache_info().maxsize
    assert limit is not None and limit <= 1 << 16
    assert all(bits(m) == tuple(iter_bits(m)) for m in range(1 << 12))
    wide = [(m << 200) | m for m in range(limit + 1, 2 * limit + 2)]
    assert all(bits(m) == tuple(iter_bits(m)) for m in wide)
    assert bits.cache_info().currsize <= limit
    assert bits(0b1011) == (0, 1, 3) and bits((1 << 300) | 1) == (0, 300)


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_relabel_preserves_canonical_form(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_relabel_moves_edges():
    g = build_graph(3, [(0, 1), (1, 2)])
    h = relabel(g, [2, 0, 1])  # old 0 -> new 2, old 1 -> new 0, old 2 -> new 1
    assert h.edges == ((0, 1), (0, 2))


@given(connected_graphs())
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


def test_cyclomatic_matches_edge_deletion_count(rng):
    # remove edges greedily while keeping the graph connected; the number
    # removed to reach a spanning tree is m - (n - 1) = cyclomatic number
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 6))
        removed = 0
        edges = list(g.edges)
        changed = True
        while changed:
            changed = False
            for e in list(edges):
                rest = [x for x in edges if x != e]
                try:
                    build_graph(g.n, rest)
                except GraphError:
                    continue
                edges = rest
                removed += 1
                changed = True
                break
        assert removed == g.m - g.n + 1
