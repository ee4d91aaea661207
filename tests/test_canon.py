"""The canonical-labeling search against brute force over all relabelings.

canon_key_exhaustive minimizes the encoding over every permutation, so for
small n it is ground truth for the isomorphism partition and the orbit
partition. The search is free to pick a different representative per class
(it minimizes only within refinement-consistent labelings), so the tests
compare partitions and invariants, never the raw byte choice.
"""

import random
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from ggindex.bitset import iter_bits
from ggindex.canon import (
    _refine,
    canon_full,
    canon_key,
    canon_key_exhaustive,
    orbits_exhaustive,
)
from ggindex.formats import decode_graph6


def _random_masks(rng, n, p=0.5):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def _masks_from_bitmask(n, mask):
    adj = [0] * n
    b = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> b) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            b += 1
    return adj


def _masks_from_key(key: bytes):
    n, edges = decode_graph6(key.decode("ascii"))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, adj


def _relabel(n, adj, perm):
    out = [0] * n
    for u in range(n):
        for shift in range(n):
            if (adj[u] >> shift) & 1:
                out[perm[u]] |= 1 << perm[shift]
    return out


def test_all_graphs_up_to_five_vertices():
    # over every labeled graph: the search key partitions the set of graphs
    # exactly like the exhaustive key does, and the orbits agree graph by graph
    for n in range(2, 6):
        by_search = defaultdict(set)
        by_exhaustive = defaultdict(set)
        for mask in range(1 << (n * (n - 1) // 2)):
            adj = _masks_from_bitmask(n, mask)
            res = canon_full(n, adj)
            by_search[res.key].add(mask)
            by_exhaustive[canon_key_exhaustive(n, adj)].add(mask)
            assert res.orbits == orbits_exhaustive(n, adj)
        assert sorted(by_search.values(), key=min) == sorted(
            by_exhaustive.values(), key=min
        )


def test_key_decodes_to_the_same_class():
    # the key is not just an identifier, it must encode a graph isomorphic to
    # the input
    rng = random.Random(0xBEEF)
    for _ in range(60):
        n = rng.randint(2, 7)
        adj = _random_masks(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        key = canon_key(n, adj)
        n2, back = _masks_from_key(key)
        assert n2 == n
        assert canon_key_exhaustive(n, back) == canon_key_exhaustive(n, adj)


def test_sampled_graphs_six_and_seven(rng):
    for n, samples in ((6, 30), (7, 15)):
        for _ in range(samples):
            adj = _random_masks(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
            res = canon_full(n, adj)
            assert res.orbits == orbits_exhaustive(n, adj)
            # same class <=> same key, probed with random relabelings
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon_key(n, _relabel(n, adj, perm)) == res.key


def test_key_is_relabeling_invariant(rng):
    for _ in range(40):
        n = rng.randint(2, 8)
        adj = _random_masks(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canon_key(n, adj) == canon_key(n, _relabel(n, adj, perm))


def test_key_separates_nonisomorphic():
    p4 = [2, 5, 10, 4]  # 0-1, 1-2, 2-3
    s4 = [14, 1, 1, 1]  # star at 0
    assert canon_key(4, p4) != canon_key(4, s4)


def test_labeling_and_last_vertex():
    # labeling maps canonical position -> original vertex; last_vertex is the
    # original vertex sent to the final position
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(3, 7)
        adj = _random_masks(rng, n)
        res = canon_full(n, adj)
        assert sorted(res.labeling) == list(range(n))
        assert res.labeling[n - 1] == res.last_vertex


@st.composite
def _any_graphs(draw):
    # every edge density, so disconnected graphs and isolated vertices (as in
    # the intermediate levels of canonical augmentation) are drawn too
    n = draw(st.integers(2, 10))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, _random_masks(random.Random(seed), n, p)


@settings(max_examples=300)
@given(_any_graphs())
def test_last_vertex_has_maximum_degree_and_ends_the_root_refinement(graph):
    # the enumerator's degree pre-filter rests on both facts
    n, adj = graph
    last = canon_full(n, adj).last_vertex
    assert adj[last].bit_count() == max(x.bit_count() for x in adj)
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    root = _refine(n, neigh, [0] * n)
    assert root[last] == max(root)


def test_regular_graphs_have_single_orbit():
    # the 5-cycle and the complete graph are vertex-transitive
    c5 = [0] * 5
    for i in range(5):
        j = (i + 1) % 5
        c5[i] |= 1 << j
        c5[j] |= 1 << i
    assert len(set(canon_full(5, c5).orbits)) == 1
    k6 = [(63 ^ (1 << i)) for i in range(6)]
    assert len(set(canon_full(6, k6).orbits)) == 1


def test_exhaustive_oracle_rejects_big_n():
    import pytest

    with pytest.raises(ValueError):
        canon_key_exhaustive(9, [0] * 9)
