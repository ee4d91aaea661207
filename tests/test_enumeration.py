import concurrent.futures
import functools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ggindex import canon, enumeration
from ggindex.bitset import iter_bits, mask_of
from ggindex.enumeration import (
    Constraints,
    EnumerationBoundError,
    _candidates,
    _cut_structure,
    _expand_parent,
    _neighborhood_options,
    check_bound,
    enumerate_connected,
    enumerate_keys,
    enumerate_trees,
)
from ggindex.extremal import CLAIMS, _fold_shard, verify
from ggindex.graphs import all_pairs_distances, build_graph, canonical_form, to_graph6

from oracles import (
    ahu_certificate,
    brute_force_classes,
    connected,
    is_bipartite,
    non_cut_vertices,
    prufer_decode,
    prufer_trees,
)

# reference counts, cross-checked against brute_force_classes below for the
# orders the brute scan can reach
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_BIPARTITE = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33}

# the root of every walk, with its canon_full result, taken before any test
# patches canon_full
K1 = ((0,), canon.canon_full(1, (0,)))

# each order's oracle trees are decoded once per session (n = 8 alone takes
# all 262 144 Prufer sequences)
_prufer_trees = functools.cache(prufer_trees)


def keys(stream):
    return [to_graph6(g) for g in stream]


def canonical_keys(stream):
    """Sorted canonical keys of a stream in any labeling."""
    return sorted(canonical_form(g) for g in stream)


@functools.cache
def tree_keys(n, max_degree=None):
    """Sorted canonical keys of enumerate_trees(n, max_degree=max_degree)."""
    return canonical_keys(enumerate_trees(n, max_degree=max_degree))


def tree_class(n, max_degree=None):
    return Constraints(n, max_degree=max_degree, cyclomatic=0)


def test_connected_counts():
    for n, want in CONNECTED.items():
        assert len(list(enumerate_connected(Constraints(n)))) == want


def test_bipartite_counts():
    for n, want in CONNECTED_BIPARTITE.items():
        assert len(list(enumerate_connected(Constraints(n, bipartite_only=True)))) == want


def test_tree_counts():
    for n, want in TREES.items():
        assert sum(1 for _ in enumerate_trees(n)) == want


def test_unicyclic_counts():
    for n, want in UNICYCLIC.items():
        assert len(list(enumerate_connected(Constraints(n, cyclomatic=1)))) == want


SWEEP = [
    Constraints(5),
    Constraints(5, bipartite_only=True),
    Constraints(5, cyclomatic=0),
    Constraints(5, max_degree=3),
    Constraints(5, cyclomatic=1),
    Constraints(6),
    Constraints(6, bipartite_only=True),
    Constraints(6, cyclomatic=0),
    Constraints(6, max_degree=3),
    Constraints(6, cyclomatic=1),
    Constraints(6, cyclomatic=2),
    Constraints(6, bipartite_only=True, max_degree=3),
    Constraints(6, max_degree=4, cyclomatic=3),
    Constraints(7, max_degree=3, cyclomatic=0),
]


@pytest.mark.parametrize("cons", SWEEP, ids=lambda c: c.describe() + f" n={c.n}")
def test_generator_agrees_with_brute_force(cons):
    got = keys(enumerate_connected(cons))
    # oracle graphs are arbitrary orbit representatives, so compare canonically
    want = sorted(canonical_form(g) for g in brute_force_classes(cons))
    assert got == want


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError):
        brute_force_classes(Constraints(8))


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_agrees_with_prufer_oracle(n):
    want = canonical_keys(_prufer_trees(n))
    assert tree_keys(n) == want
    assert keys(enumerate_connected(tree_class(n))) == want


@pytest.mark.parametrize("n", range(1, 14))
def test_generator_agrees_with_networkx_trees(n):
    # third tree oracle: networkx's Wright-Richmond-Odlyzko-McKay generator,
    # filtered by max degree for the degree-bounded streams
    nx = pytest.importorskip("networkx")
    oracle = [build_graph(n, t.edges()) for t in nx.nonisomorphic_trees(n)]
    assert tree_keys(n) == canonical_keys(oracle)
    assert keys(enumerate_connected(tree_class(n))) == tree_keys(n)
    for d in (2, 3, 4):
        want = canonical_keys(g for g in oracle if g.max_degree <= d)
        assert tree_keys(n, d) == want
        assert keys(enumerate_connected(tree_class(n, d))) == want


@st.composite
def prufer_cases(draw):
    """(n, Prufer sequence, degree bound or None) with n <= 13."""
    n = draw(st.integers(1, 13))
    length = max(n - 2, 0)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    return n, seq, draw(st.sampled_from([None, 2, 3, 4]))


@given(prufer_cases())
def test_random_prufer_trees_are_generated(case):
    # a labeled tree drawn uniformly is among the generated classes exactly
    # when it keeps the degree bound; the oracle shares only the key
    n, seq, d = case
    edges = prufer_decode(n, seq) if n > 1 else []
    g = build_graph(n, edges)
    member = canonical_form(g) in tree_keys(n, d)
    assert member == (d is None or g.max_degree <= d)


def test_generated_trees_are_pairwise_non_isomorphic():
    # OEIS A000055 to n = 14, each generated tree a class of its own
    for n, want in {**TREES, 12: 551, 13: 1301, 14: 3159}.items():
        got = tree_keys(n)
        assert len(got) == len(set(got)) == want


def test_enumerate_trees_labels_trees_by_preorder():
    # vertex 0 is a centre, and every other vertex has one earlier
    # neighbor, its parent
    for n in range(1, 11):
        for g in enumerate_trees(n):
            assert g.m - g.n + 1 == 0
            assert all(sum(v == w for _, v in g.edges) == 1 for w in range(1, n))
            eccentricity = [max(row) for row in all_pairs_distances(g)]
            assert eccentricity[0] == min(eccentricity)


def test_trees_flag_matches_tree_stream():
    # trees are bipartite, so asking for bipartite trees changes nothing
    a = keys(enumerate_connected(Constraints(8, bipartite_only=True, cyclomatic=0)))
    assert a == keys(enumerate_connected(tree_class(8))) == tree_keys(8)


def test_worker_determinism():
    cons = Constraints(7, bipartite_only=True)
    assert keys(enumerate_connected(cons, workers=1)) == keys(
        enumerate_connected(cons, workers=3)
    )
    assert len(list(enumerate_connected(Constraints(7), workers=4))) == CONNECTED[7]


def test_emission_is_canonical_and_sorted():
    lines = []
    for g in enumerate_connected(Constraints(6)):
        s = to_graph6(g)
        assert s == canonical_form(g)
        lines.append(s)
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))


def test_emitted_graphs_satisfy_constraints():
    cons = Constraints(7, bipartite_only=True, max_degree=3)
    got = list(enumerate_connected(cons))
    assert got, "stream should not be empty"
    for g in got:
        assert g.n == 7
        assert is_bipartite(g)
        assert g.max_degree <= 3

    for g in enumerate_connected(Constraints(7, cyclomatic=2)):
        assert g.m - g.n + 1 == 2

    for g in enumerate_trees(9, max_degree=3):
        assert g.m - g.n + 1 == 0 and g.max_degree <= 3


def test_single_vertex_stream():
    assert keys(enumerate_connected(Constraints(1))) == ["@"]
    assert len(list(enumerate_connected(Constraints(1, bipartite_only=True)))) == 1


def test_bounds_refuse_big_orders():
    with pytest.raises(EnumerationBoundError, match="--max-n"):
        enumerate_connected(Constraints(11))
    with pytest.raises(EnumerationBoundError, match="max_n="):
        enumerate_connected(Constraints(12, bipartite_only=True))
    with pytest.raises(EnumerationBoundError):
        enumerate_trees(15)
    # trees get the roomier cap whichever entry point they come through
    limit_check = Constraints(12, cyclomatic=0)
    assert len(list(enumerate_connected(limit_check))) == 551


def test_bounds_override_and_env(monkeypatch):
    monkeypatch.delenv("GGINDEX_MAX_N", raising=False)
    # the class defaults: 10 in general, 11 bipartite, 14 for trees
    for cons, default in [
        (Constraints(10), 10),
        (Constraints(10, max_degree=3), 10),
        (Constraints(10, cyclomatic=2), 10),
        (Constraints(11, bipartite_only=True), 11),
        (Constraints(14, cyclomatic=0), 14),
        (Constraints(14, bipartite_only=True, cyclomatic=0), 14),
    ]:
        check_bound(cons)
        with pytest.raises(EnumerationBoundError, match=f"n <= {default};") as exc:
            check_bound(cons._replace(n=default + 1))
        assert (exc.value.n, exc.value.limit) == (default + 1, default)
        # max_n replaces the default, in either direction
        check_bound(cons._replace(n=default + 1), max_n=default + 1)
        with pytest.raises(EnumerationBoundError, match="n <= 5;"):
            check_bound(cons, max_n=5)

    # the environment variable replaces every default; max_n beats it
    monkeypatch.setenv("GGINDEX_MAX_N", "12")
    check_bound(Constraints(12))
    with pytest.raises(EnumerationBoundError, match="n <= 12;"):
        check_bound(Constraints(13, cyclomatic=0))
    check_bound(Constraints(13, cyclomatic=0), max_n=13)
    with pytest.raises(EnumerationBoundError, match="n <= 11;"):
        check_bound(Constraints(12), max_n=11)

    # a malformed variable is an error only when it would be read
    monkeypatch.setenv("GGINDEX_MAX_N", "twelve")
    with pytest.raises(ValueError, match="GGINDEX_MAX_N"):
        check_bound(Constraints(4))
    check_bound(Constraints(4), max_n=4)
    assert len(list(enumerate_connected(Constraints(4), max_n=4))) == 6


def test_constraints_validation():
    with pytest.raises(ValueError):
        Constraints(0)
    with pytest.raises(ValueError):
        Constraints(5, max_degree=0)
    with pytest.raises(ValueError):
        Constraints(5, cyclomatic=-1)
    assert Constraints(5, cyclomatic=0).tree_class
    assert not Constraints(5, bipartite_only=True).tree_class
    assert "max degree 3" in Constraints(5, max_degree=3).describe()
    # one class, one text: trees are cyclomatic number 0, bipartite or not
    assert Constraints(5, cyclomatic=0).describe() == "trees"
    assert (
        Constraints(5, bipartite_only=True, max_degree=3, cyclomatic=0).describe()
        == "trees with max degree 3"
    )
    assert Constraints(5, cyclomatic=2).describe() == "connected graphs with cyclomatic number 2"


def test_empty_classes():
    # no triangle-free... no trees on 2 vertices with max degree conflicts, and
    # no unicyclic graphs below n=3
    assert len(list(enumerate_connected(Constraints(1, cyclomatic=1)))) == 0
    assert len(list(enumerate_connected(Constraints(2, cyclomatic=1)))) == 0
    assert len(list(enumerate_connected(Constraints(4, max_degree=1)))) == 0
    assert len(list(enumerate_connected(Constraints(3, bipartite_only=True, cyclomatic=1)))) == 0


def test_ahu_certificate_distinguishes_and_unifies():
    path4 = [(0, 1), (1, 2), (2, 3)]
    star4 = [(0, 1), (0, 2), (0, 3)]
    assert ahu_certificate(4, path4) != ahu_certificate(4, star4)
    # relabeled path has the same certificate
    relabeled = [(3, 2), (2, 0), (0, 1)]
    assert ahu_certificate(4, path4) == ahu_certificate(4, relabeled)


def test_prufer_tree_counts():
    assert [len(_prufer_trees(n)) for n in range(2, 9)] == [1, 1, 2, 3, 6, 11, 23]
    with pytest.raises(ValueError):
        prufer_trees(9)


def _grown(masks, s):
    """The adjacency masks of masks with a new vertex joined to the set s."""
    child = list(masks) + [s]
    for u in iter_bits(s):
        child[u] |= 1 << len(masks)
    return child


def _edges_of(masks):
    return [(u, v) for u in range(len(masks)) for v in iter_bits(masks[u]) if u < v]


def _deleted(child):
    """The non-cut vertices of the rarest degree among them in a connected
    child, ties to the larger degree, read off non_cut_vertices: the
    candidates for canonical deletion."""
    by_degree = {}
    for u in non_cut_vertices(child):
        by_degree.setdefault(child[u].bit_count(), set()).add(u)
    return min(by_degree.items(), key=lambda item: (len(item[1]), -item[0]))[1]


def _expand_unfiltered(masks, cons, final):
    """The canonical-deletion test alone, with no orbit, degree or
    root-cell pre-filter and none of the walk's option lists or cut
    structure: every nonempty neighborhood of the connected parent masks
    whose child stays in cons's class (on the last level, at exactly its
    cyclomatic number) is tried. A child is kept when its new vertex is in
    the orbit, under the plain canon_full result, of the last vertex of
    _deleted(child) in that result's labeling. Returns every kept key with
    the set of children that give it."""
    k = len(masks)
    out = {}
    for s in range(1, 1 << k):
        child = _grown(masks, s)
        degrees = [x.bit_count() for x in child]
        if cons.max_degree is not None and max(degrees) > cons.max_degree:
            continue
        if cons.bipartite_only and not is_bipartite(build_graph(k + 1, _edges_of(child))):
            continue
        if cons.cyclomatic is not None:
            r = sum(degrees) // 2 - k  # the child is connected
            if r > cons.cyclomatic or (final and r != cons.cyclomatic):
                continue
        res = canon.canon_full(k + 1, child)
        candidates = _deleted(child)
        last = next(u for u in reversed(res.labeling) if u in candidates)
        if res.orbits[k] == res.orbits[last]:
            out.setdefault(res.key, set()).add(tuple(child))
    return out


def _check_cut_structure(nx, g):
    """_cut_structure of g's masks against networkx: the cut vertices are
    the articulation points, each with its degree and the components of g
    without it as pieces, and layers[d] holds the other vertices of degree
    d, for d up to one above the maximum degree."""
    n = g.number_of_nodes()
    masks = [mask_of(g[u]) for u in range(n)]
    layers, cuts = _cut_structure(masks)
    cut = set(nx.articulation_points(g))
    assert [u for u, _, _ in cuts] == sorted(cut)
    for u, d, pieces in cuts:
        assert d == g.degree(u)
        rest = g.subgraph(set(g) - {u})
        assert sorted(pieces) == sorted(mask_of(c) for c in nx.connected_components(rest))
    assert len(layers) == max(d for _, d in g.degree) + 2
    for d, layer in enumerate(layers):
        assert layer == mask_of(u for u in g if g.degree(u) == d and u not in cut)


def test_cut_structure_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [nx.empty_graph(1), nx.path_graph(2)]
    graphs += [nx.cycle_graph(n) for n in range(3, 13)]
    graphs += [nx.path_graph(n) for n in range(3, 13)] + [nx.star_graph(n) for n in range(2, 12)]
    rng = random.Random(0xC07)
    for _ in range(150):
        n = rng.randint(2, 12)
        order = list(range(n))
        rng.shuffle(order)
        tree = nx.Graph((order[rng.randrange(v)], order[v]) for v in range(1, n))
        graphs.append(tree)
        dense = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(2 ** 32))
        dense.add_edges_from(tree.edges)  # connected, with a tree inside
        graphs.append(dense)
    for g in graphs:
        _check_cut_structure(nx, g)


PREFILTER_CLASSES = [
    Constraints(7),
    Constraints(8, bipartite_only=True),
    Constraints(8, max_degree=3),
    Constraints(8, cyclomatic=2),
]


@pytest.mark.parametrize("cons", PREFILTER_CLASSES, ids=lambda c: c.describe() + f" n<={c.n}")
def test_degree_prefilter_keeps_every_canonical_child(cons):
    # every parent class of every level up to cons.n, expanded both as an
    # inner and as a final level with its canon_full result: the filtered
    # expansion returns the keys of the unfiltered test, once each, and a
    # child that gives each. _expand_parent lists its children unkeyed, so
    # the keys are read here
    level = [K1]
    for k in range(1, cons.n):
        nxt = {}
        for masks, parent in level:
            for final in (False, True) if k < cons.n - 1 else (True,):
                got = _expand_parent(masks, parent, cons, final)
                reps = {res.key: child for child, res in got}
                assert len(reps) == len(got)
                want = _expand_unfiltered(masks, cons, final)
                assert sorted(reps) == sorted(want)
                assert all(child in want[key] for key, child in reps.items())
                if not final:
                    nxt.update((res.key, (child, res)) for child, res in got)
        level = [nxt[key] for key in sorted(nxt)]


def test_canon_runs_only_where_the_new_vertex_has_the_rarest_non_cut_degree(monkeypatch):
    # every canon_full(last=) call of a walk gets a child whose new vertex
    # lies in the rarest degree class of its non-cut vertices, ties to the
    # larger degree, and as among exactly that class (_deleted)
    full = canon.canon_full
    calls = []

    def checked(n, adj, **kwargs):
        if "last" in kwargs:
            calls.append(n)
            assert kwargs["last"] == n - 1
            assert n - 1 in _deleted(adj)
            assert kwargs["among"] == mask_of(_deleted(adj))
        return full(n, adj, **kwargs)

    monkeypatch.setattr(canon, "canon_full", checked)
    assert len(list(enumerate_connected(Constraints(8, bipartite_only=True)))) == 182
    assert len(list(enumerate_connected(Constraints(7)))) == 853
    assert len(list(enumerate_connected(Constraints(8, max_degree=3, cyclomatic=2)))) > 0
    assert calls


CANDIDATE_CLASSES = [
    Constraints(8, bipartite_only=True),
    Constraints(8, max_degree=3),
    Constraints(7),
    Constraints(8, cyclomatic=2),
]


@pytest.mark.parametrize("cons", CANDIDATE_CLASSES, ids=lambda c: c.describe() + f" n<={c.n}")
def test_candidates_are_the_rarest_non_cut_degree_class(cons, monkeypatch):
    # every option of every parent the walk expands, inner and last level
    # alike: _candidates keeps exactly the options whose new vertex lies in
    # the child's rarest non-cut degree class (_deleted, from a breadth-first
    # count per removal), and gives that class
    parents = []

    def watched(masks, parent, cons, final):
        parents.append(masks)
        return _expand_parent(masks, parent, cons, final)

    monkeypatch.setattr(enumeration, "_expand_parent", watched)
    assert list(enumerate_keys(cons))
    assert parents[0] == (0,)
    tried = 0
    for masks in parents:
        k = len(masks)
        options = sorted(
            set(_neighborhood_options(masks, cons, False) + _neighborhood_options(masks, cons, True))
        )
        got = _candidates(masks, options)
        for s in options:
            deleted = _deleted(_grown(masks, s))
            assert got.get(s) == (mask_of(deleted) if k in deleted else None), (masks, s)
        tried += len(options)
    assert tried > len(parents)


def test_candidates_of_k1_a_demoted_leaf_and_a_promoted_cut_vertex():
    # K1 grows into K2, whose two vertices are non-cut; the path 0-1-2 with a
    # new vertex on the leaf 0 makes 0 a cut vertex, which leaves the ends 2
    # and 3 alone as non-cut (without the demotion 0 would be the rarer
    # class); joining the new vertex to both leaves promotes the cut vertex 1
    # into the 4-cycle's one class
    assert _candidates((0,), [0b1]) == {0b1: 0b11}
    path = (0b010, 0b101, 0b010)
    assert _candidates(path, [0b001]) == {0b001: 0b1100}
    assert _candidates(path, [0b101]) == {0b101: 0b1111}
    # the new vertex on the middle vertex makes a star: its three leaves
    # form the one non-cut class, of degree 1, so the new vertex is one
    assert _candidates(path, [0b010]) == {0b010: 0b1101}


WALK_CLASSES = [
    Constraints(1, bipartite_only=True),
    Constraints(1, max_degree=3),
    Constraints(1, cyclomatic=0),
    Constraints(1, max_degree=3, cyclomatic=0),
    Constraints(1, cyclomatic=2),
    Constraints(1),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cls", WALK_CLASSES, ids=lambda c: c.describe())
def test_one_walk_gives_every_order_its_own_walks_keys(cls, workers):
    # the connected members of an intermediate level are exactly the classes
    # of that order, so one walk to n = 8 serves orders 1..8, in any order
    orders = [3, 8, 1, 5, 2, 7, 4, 6]
    conses = [cls._replace(n=n) for n in orders]
    alone = [keys(enumerate_connected(c, workers=workers)) for c in conses]
    walk = list(enumerate_connected(*conses, workers=workers))
    assert keys(walk) == [key for order_keys in alone for key in order_keys]
    by_order = {}
    for g in walk:
        by_order.setdefault(g.n, []).append(to_graph6(g))
    assert [by_order.get(n, []) for n in orders] == alone


@pytest.mark.parametrize(
    "cons, members",
    [
        (Constraints(8, bipartite_only=True), CONNECTED_BIPARTITE),
        (Constraints(7), CONNECTED),
        (Constraints(8, cyclomatic=1), {k: TREES[k] + UNICYCLIC.get(k, 0) for k in TREES}),
        (Constraints(8, max_degree=3), None),
    ],
    ids=lambda c: c.describe() if isinstance(c, Constraints) else "",
)
def test_the_walk_expands_and_yields_connected_graphs_only(cons, members, monkeypatch):
    # every node the walk expands or yields is connected; where the class
    # is closed under deleting a non-cut vertex and its connected members
    # are counted, level k expands exactly those members of order k
    expanded = []

    def watched(masks, parent, cons, final):
        expanded.append(masks)
        return _expand_parent(masks, parent, cons, final)

    monkeypatch.setattr(enumeration, "_expand_parent", watched)
    yielded = [masks for masks, _ in enumeration._walk(cons, frozenset(range(1, cons.n + 1)), 0, 1)]
    assert expanded and yielded
    assert all(connected(masks) for masks in expanded + yielded)
    if members is not None:
        per_order = Counter(len(masks) for masks in expanded)
        assert per_order == {k: members.get(k, 1) for k in range(1, cons.n)}


def _children_per_parent(cons):
    """For each level of the walk to cons.n, the children of every parent
    class as _walk expands them, one list of (key, masks, canon_full result)
    per parent; reading the key runs the search a last level may skip."""
    level = [K1]
    for k in range(1, cons.n):
        final = k == cons.n - 1
        children = [
            [
                (res.key, child, res)
                for child, res in _expand_parent(masks, parent, cons, final)
            ]
            for masks, parent in level
        ]
        yield children
        merged = {key: (child, res) for part in children for key, child, res in part}
        level = [merged[key] for key in sorted(merged)]


def _count_searched(monkeypatch):
    """Patch canon.canon_full to count the calls that return a result."""
    full = canon.canon_full
    results = []

    def counted(n, adj, **kwargs):
        res = full(n, adj, **kwargs)
        if res is not None:
            results.append(res.key)
        return res

    monkeypatch.setattr(canon, "canon_full", counted)
    return results


@pytest.mark.parametrize(
    "cons",
    [c._replace(n=8) for c in WALK_CLASSES if not c.tree_class],
    ids=lambda c: c.describe() + f" n<={c.n}",
)
def test_every_class_comes_from_one_parent(cons, monkeypatch):
    # canonical deletion gives each child class exactly one parent class, and
    # one parent gives it once: no key repeats within a level's children
    results = _count_searched(monkeypatch)
    for children in _children_per_parent(cons):
        level_keys = [key for part in children for key, _, _ in part]
        assert len(level_keys) == len(set(level_keys))
        assert sorted(results) == sorted(level_keys)
        results.clear()


def _admissible(masks, cons, final):
    """How many neighborhoods _neighborhood_options offers whose child keeps
    the new vertex in the rarest degree class of its non-cut vertices, read
    off each child built in full (_deleted)."""
    k = len(masks)
    return sum(k in _deleted(_grown(masks, s)) for s in _neighborhood_options(masks, cons, final))


def _watch_searches(monkeypatch):
    """Patch canon_full, canon._search and enumeration._expand_parent to
    record every search as (kind, root coloring, admissible): kind "verdict"
    inside canon_full, "group" inside _expand_parent but outside canon_full
    (the parent's generators), "read" otherwise, and admissible the
    _admissible count of the parent being expanded, None outside one. Also
    records the _admissible count of every parent expanded."""
    searches, expanded = [], []
    state = {"in_full": 0, "admissible": None}
    full, search, expand = canon.canon_full, canon._search, enumeration._expand_parent

    def counted_full(*args, **kwargs):
        state["in_full"] += 1
        try:
            return full(*args, **kwargs)
        finally:
            state["in_full"] -= 1

    def counted_search(n, adj, neigh, root):
        kind = "verdict" if state["in_full"] else "read" if state["admissible"] is None else "group"
        # the root list is the result's own, so holding it keeps ids unique
        searches.append((kind, root, state["admissible"]))
        return search(n, adj, neigh, root)

    def counted_expand(masks, parent, cons, final):
        state["admissible"] = _admissible(masks, cons, final)
        expanded.append(state["admissible"])
        try:
            return expand(masks, parent, cons, final)
        finally:
            state["admissible"] = None

    monkeypatch.setattr(canon, "canon_full", counted_full)
    monkeypatch.setattr(canon, "_search", counted_search)
    monkeypatch.setattr(enumeration, "_expand_parent", counted_expand)
    return searches, expanded


@pytest.mark.parametrize(
    "cons", [Constraints(8, bipartite_only=True), Constraints(8, max_degree=3)],
    ids=lambda c: c.describe(),
)
def test_each_walk_class_is_searched_at_most_once(cons, monkeypatch):
    # enumerate reads every key, and the walk reads the group of a parent
    # only when two admissible neighborhoods are there to choose from. Each
    # canon_full result is searched at most once, and every search is a
    # verdict, a key read or such a group
    searches, expanded = _watch_searches(monkeypatch)
    keys = list(enumerate_keys(cons))
    assert keys == sorted(set(keys))
    assert len({id(root) for _, root, _ in searches}) == len(searches)
    kinds = Counter(kind for kind, _, _ in searches)
    assert kinds["read"] <= len(keys)
    assert all(admissible >= 2 for kind, _, admissible in searches if kind == "group")
    assert kinds["group"] <= sum(admissible >= 2 for admissible in expanded)


@pytest.mark.parametrize(
    "claim, orders", [("max-bipartite", range(4, 9)), ("conjecture1", range(5, 9))]
)
def test_a_verify_walk_searches_no_parent_with_one_admissible_child(claim, orders, monkeypatch):
    # verify reads no key outside its tie windows, so past the verdicts the
    # only searches are the groups of parents with two admissible children
    # or more; a parent with one or none is never searched for its group
    searches, expanded = _watch_searches(monkeypatch)
    verify(claim, orders, max_degree=3)
    groups = [admissible for kind, _, admissible in searches if kind == "group"]
    assert groups and min(groups) >= 2
    assert sum(admissible < 2 for admissible in expanded) > 0


@pytest.mark.parametrize("max_degree, classes", [(None, 986), (3, 283)])
def test_each_tree_class_is_searched_once(max_degree, classes, monkeypatch):
    # the trees of orders 2..12 (sums of A000055 and A000672): keying them
    # takes one canon_full call per class, and listing them takes none
    results = _count_searched(monkeypatch)
    conses = [tree_class(n, max_degree) for n in range(2, 13)]
    assert sum(1 for c in conses for _ in enumerate_trees(c.n, max_degree=max_degree)) == classes
    assert results == []
    assert len(list(enumerate_connected(*conses))) == classes
    assert len(results) == len(set(results)) == classes


def test_one_walk_checks_every_bound_first():
    with pytest.raises(EnumerationBoundError, match="n=11"):
        enumerate_connected(Constraints(4), Constraints(11), Constraints(12))
    with pytest.raises(ValueError, match="differ only in n"):
        enumerate_connected(Constraints(4), Constraints(5, bipartite_only=True))


def test_verify_walks_the_levels_once(monkeypatch):
    # verify at orders 4..8 expands exactly the parents one walk to n = 8 does
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return _expand_parent(*args)

    monkeypatch.setattr(enumeration, "_expand_parent", counted)
    assert len(list(enumerate_connected(Constraints(8, bipartite_only=True)))) == 182
    alone = len(calls)
    calls.clear()
    assert verify("max-bipartite", range(4, 9)).passed
    assert len(calls) == alone


@pytest.mark.parametrize(
    "cons",
    [c._replace(n=8) for c in WALK_CLASSES] + [Constraints(11, cyclomatic=0)],
    ids=lambda c: c.describe() + f" n<={c.n}",
)
def test_shards_partition_the_classes(cons):
    # orders above, at and below the split depth (top - 2) in one walk: every
    # class lands in exactly one shard, whatever the shard count
    orders = frozenset({cons.n - 3, cons.n - 2, cons.n})
    whole = enumeration._shard(cons, orders, 0, 1)
    assert all(len(set(whole[k])) == len(whole[k]) for k in orders)
    for mod in (2, 3, 5):
        shards = [enumeration._shard(cons, orders, res, mod) for res in range(mod)]
        assert sum(bool(shard[cons.n]) for shard in shards) > 1
        for k in orders:
            assert sorted(key for shard in shards for key in shard[k]) == sorted(whole[k])


@pytest.mark.parametrize("claim", [name for name, c in CLAIMS.items() if c.graph_class is not None])
def test_merged_shard_folds_are_the_one_shard_fold(claim):
    # what verify merges from k shards, each shard's fold states, gives the
    # one-shard fold's result at every order, above, at and below the walk's
    # split depth (top - 2)
    least = CLAIMS[claim].least(3)
    top = 11 if claim in ("trees", "conjecture3") else 8
    orders = frozenset({least, top - 3, top - 2, top})
    cons = CLAIMS[claim].graph_class(top, 3)
    whole = _fold_shard(claim, cons, orders, 0, 1)
    for mod in (1, 2, 3):
        # fold states come back from worker processes pickled, walk nodes'
        # canon_full results included
        shards = [
            pickle.loads(pickle.dumps(_fold_shard(claim, cons, orders, res, mod)))
            for res in range(mod)
        ]
        folds, *others = shards
        assert sum(shard[top][0].total > 0 for shard in shards) == mod
        for shard in others:
            for n in orders:
                for fold, other in zip(folds[n], shard[n]):
                    fold.merge(other)
        for n in orders:
            assert [fold.result() for fold in folds[n]] == [fold.result() for fold in whole[n]]


@pytest.mark.parametrize(
    "claim, top, keys_per_candidate",
    [("max-bipartite", 8, 0), ("conjecture1", 8, 0), ("trees", 11, 1), ("conjecture3", 11, 1)],
)
def test_a_fold_result_keys_walk_nodes_from_their_own_search(
    claim, top, keys_per_candidate, monkeypatch
):
    # a walk fold's window holds walk nodes, keyed from the canon_full
    # results the walk made for them: taking the result runs no canon_full
    # call. A tree fold keys each tree left in its window with one call
    orders = frozenset(range(CLAIMS[claim].least(3), top + 1))
    folds = _fold_shard(claim, CLAIMS[claim].graph_class(top, 3), orders, 0, 1)
    calls = []
    full = canon.canon_full

    def counted(n, adj, **kwargs):
        calls.append(n)
        return full(n, adj, **kwargs)

    monkeypatch.setattr(canon, "canon_full", counted)
    for n in orders:
        for fold in folds[n]:
            calls.clear()
            fold.result()
            assert calls == [n] * keys_per_candidate * len(fold.window)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # an in-process stand-in for the pool records the process count asked for
    started = []

    class InProcess:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _map_shards imports the pool when it needs one, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    cons = Constraints(8, bipartite_only=True)
    assert keys(enumerate_connected(cons, workers=64)) == keys(enumerate_connected(cons))
    assert started == [3]
    # an unknown CPU count means one: the walk runs in process
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert len(list(enumerate_connected(cons, workers=64))) == 182
    assert started == [3]
    # verify's shards go through the same pool, and one shard starts none
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    report = verify("max-bipartite", range(4, 9), workers=64)
    assert started == [3, 3]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert verify("max-bipartite", range(4, 9), workers=64) == report
    assert started == [3, 3]


def test_importing_the_cli_loads_no_process_pool():
    # only a run with more than one shard needs the pool (_map_shards), so a
    # fresh import of the command line leaves concurrent.futures.process out
    probe = "import sys, ggindex.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
