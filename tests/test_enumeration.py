import functools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from ggindex import canon, enumeration
from ggindex.bitset import components, iter_bits
from ggindex.enumeration import (
    Constraints,
    EnumerationBoundError,
    _expand_parent,
    _neighborhood_options,
    check_bound,
    count_classes,
    enumerate_connected,
    enumerate_trees,
)
from ggindex.extremal import verify
from ggindex.graphs import all_pairs_distances, build_graph, canonical_form, is_bipartite, to_graph6

from oracles import ahu_certificate, brute_force_classes, prufer_decode, prufer_trees

# reference counts, cross-checked against brute_force_classes below for the
# orders the brute scan can reach
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_BIPARTITE = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33}

# each order's oracle trees are decoded once per session (n = 8 alone takes
# all 262 144 Prufer sequences)
_prufer_trees = functools.cache(prufer_trees)


def keys(stream):
    return [to_graph6(g) for g in stream]


def canonical_keys(stream):
    """Sorted canonical keys of a stream in any labeling."""
    return sorted(canonical_form(g).decode("ascii") for g in stream)


@functools.cache
def tree_keys(n, max_degree=None):
    """Sorted canonical keys of enumerate_trees(n, max_degree=max_degree)."""
    return canonical_keys(enumerate_trees(n, max_degree=max_degree))


def tree_class(n, max_degree=None):
    return Constraints(n, max_degree=max_degree, cyclomatic=0)


def test_connected_counts():
    for n, want in CONNECTED.items():
        assert count_classes(Constraints(n)) == want


def test_bipartite_counts():
    for n, want in CONNECTED_BIPARTITE.items():
        assert count_classes(Constraints(n, bipartite_only=True)) == want


def test_tree_counts():
    for n, want in TREES.items():
        assert sum(1 for _ in enumerate_trees(n)) == want


def test_unicyclic_counts():
    for n, want in UNICYCLIC.items():
        assert count_classes(Constraints(n, cyclomatic=1)) == want


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
    want = sorted(canonical_form(g).decode("ascii") for g in brute_force_classes(cons))
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
    member = canonical_form(g).decode("ascii") in tree_keys(n, d)
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
            assert g.is_tree
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
    assert count_classes(Constraints(7), workers=4) == CONNECTED[7]


def test_emission_is_canonical_and_sorted():
    lines = []
    for g in enumerate_connected(Constraints(6)):
        s = to_graph6(g)
        assert s == canonical_form(g).decode("ascii")
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
        assert g.cyclomatic_number == 2

    for g in enumerate_trees(9, max_degree=3):
        assert g.is_tree and g.max_degree <= 3


def test_single_vertex_stream():
    assert keys(enumerate_connected(Constraints(1))) == ["@"]
    assert count_classes(Constraints(1, bipartite_only=True)) == 1


def test_bounds_refuse_big_orders():
    with pytest.raises(EnumerationBoundError, match="--max-n"):
        enumerate_connected(Constraints(11))
    with pytest.raises(EnumerationBoundError, match="max_n="):
        count_classes(Constraints(12, bipartite_only=True))
    with pytest.raises(EnumerationBoundError):
        enumerate_trees(15)
    # trees get the roomier cap whichever entry point they come through
    limit_check = Constraints(12, cyclomatic=0)
    assert count_classes(limit_check) == 551


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
            check_bound(replace(cons, n=default + 1))
        assert (exc.value.n, exc.value.limit) == (default + 1, default)
        # max_n replaces the default, in either direction
        check_bound(replace(cons, n=default + 1), max_n=default + 1)
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
    assert count_classes(Constraints(4), max_n=4) == 6


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
    assert count_classes(Constraints(1, cyclomatic=1)) == 0
    assert count_classes(Constraints(2, cyclomatic=1)) == 0
    assert count_classes(Constraints(4, max_degree=1)) == 0
    assert count_classes(Constraints(3, bipartite_only=True, cyclomatic=1)) == 0


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


def _expand_unfiltered(masks, cons, final):
    """_expand_parent without the orbit, degree and root-cell pre-filters: the
    canonical-deletion test alone, run on every admissible child. It deletes
    the canonically last vertex of maximum degree d, which sits at position
    #{v : deg v <= d} - 1 of the canonical labeling."""
    k = len(masks)
    out = {}
    for s in _neighborhood_options(masks, cons, final):
        child = list(masks) + [s]
        for u in iter_bits(s):
            child[u] |= 1 << k
        if cons.cyclomatic:
            edges = sum(x.bit_count() for x in child) // 2
            r = edges - (k + 1) + len(components(child, k + 1))
            if r > cons.cyclomatic or (final and r != cons.cyclomatic):
                continue
        res = canon.canon_full(k + 1, child)
        degrees = [x.bit_count() for x in child]
        d = max(degrees)
        last = res.labeling[sum(x <= d for x in degrees) - 1]
        if res.orbits[k] == res.orbits[last]:
            out.setdefault(res.key, tuple(child))
    return out


PREFILTER_CLASSES = [
    Constraints(7),
    Constraints(8, bipartite_only=True),
    Constraints(8, max_degree=3),
    Constraints(8, cyclomatic=2),
]


@pytest.mark.parametrize("cons", PREFILTER_CLASSES, ids=lambda c: c.describe() + f" n<={c.n}")
def test_degree_prefilter_keeps_every_canonical_child(cons):
    # every parent class of every level up to cons.n, expanded both as an
    # inner and as a final level with its automorphism generators: the
    # filtered expansion returns the same keys and the same representatives
    # as the unfiltered test
    level = [((0,), ())]
    for k in range(1, cons.n):
        nxt = {}
        for masks, generators in level:
            for final in (False, True) if k < cons.n - 1 else (True,):
                got = _expand_parent(masks, generators, cons, final)
                reps = {key: child for key, (child, _) in got.items()}
                assert reps == _expand_unfiltered(masks, cons, final)
                if not final:
                    nxt.update(got)
        level = [nxt[key] for key in sorted(nxt)]


def test_canon_runs_only_on_children_whose_new_vertex_has_maximum_degree(monkeypatch):
    full = canon.canon_full
    calls = []

    def checked(n, adj, **kwargs):
        calls.append(n)
        assert adj[n - 1].bit_count() == max(x.bit_count() for x in adj)
        return full(n, adj, **kwargs)

    monkeypatch.setattr(canon, "canon_full", checked)
    assert count_classes(Constraints(8, bipartite_only=True)) == 182
    assert calls


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
    conses = [replace(cls, n=n) for n in orders]
    alone = [keys(enumerate_connected(c, workers=workers)) for c in conses]
    walk = list(enumerate_connected(*conses, workers=workers))
    assert keys(walk) == [key for order_keys in alone for key in order_keys]
    by_order = {}
    for g in walk:
        by_order.setdefault(g.n, []).append(to_graph6(g))
    assert [by_order.get(n, []) for n in orders] == alone


def _children_per_parent(cons):
    """For each level of the walk to cons.n, the children of every parent
    class, one dict per parent, as _walk expands them."""
    level = [((0,), ())]
    for k in range(1, cons.n):
        final = k == cons.n - 1
        children = [_expand_parent(masks, gens, cons, final) for masks, gens in level]
        yield children
        merged = {key: entry for part in children for key, entry in part.items()}
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
    [replace(c, n=8) for c in WALK_CLASSES if not c.tree_class],
    ids=lambda c: c.describe() + f" n<={c.n}",
)
def test_every_class_comes_from_one_parent(cons, monkeypatch):
    # canonical deletion gives each child class exactly one parent class, and
    # one parent gives it once: no key repeats within a level's children
    results = _count_searched(monkeypatch)
    for children in _children_per_parent(cons):
        level_keys = [key for part in children for key in part]
        assert len(level_keys) == len(set(level_keys))
        assert sorted(results) == sorted(level_keys)
        results.clear()


@pytest.mark.parametrize("max_degree, classes", [(None, 986), (3, 283)])
def test_each_tree_class_is_searched_once(max_degree, classes, monkeypatch):
    # the trees of orders 2..12 (sums of A000055 and A000672): keying them
    # takes one canon_full call per class, and counting them takes none
    results = _count_searched(monkeypatch)
    conses = [tree_class(n, max_degree) for n in range(2, 13)]
    assert sum(count_classes(c) for c in conses) == classes
    assert results == []
    assert len(list(enumerate_connected(*conses))) == classes
    assert len(results) == len(set(results)) == classes


def test_the_walk_refuses_trees():
    with pytest.raises(ValueError, match="level sequences"):
        enumeration._walk(tree_class(5), frozenset({5}), 0, 1)


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
    assert count_classes(Constraints(8, bipartite_only=True)) == 182
    alone = len(calls)
    calls.clear()
    assert verify("max-bipartite", range(4, 9)).passed
    assert len(calls) == alone


@pytest.mark.parametrize(
    "cons",
    [replace(c, n=8) for c in WALK_CLASSES] + [Constraints(11, cyclomatic=0)],
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

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    cons = Constraints(8, bipartite_only=True)
    assert keys(enumerate_connected(cons, workers=64)) == keys(enumerate_connected(cons))
    assert started == [3]
    # an unknown CPU count means one: the walk runs in process
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert count_classes(cons, workers=64) == 182
    assert started == [3]
