"""The canonical-labeling search against brute force over all relabelings.

canon_key_exhaustive minimizes the encoding over every permutation, so for
small n it is ground truth for the isomorphism partition and the orbit
partition. The search is free to pick a different representative per class
(it minimizes only within refinement-consistent labelings), so the tests
compare partitions and invariants, never the raw byte choice.
"""

import math
import random
from collections import defaultdict
from itertools import islice, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from ggindex import canon
from ggindex.bitset import iter_bits, mask_of
from ggindex.canon import _certificate, _graph6, _individualize, _refine, canon_full
from ggindex.formats import decode_graph6, graph6_from_bits

from oracles import canon_key_exhaustive, non_cut_vertices, orbits_exhaustive, upper_triangle_bits


def _examples(count):
    """count hypothesis examples under the default profile, scaled with the
    loaded profile's max_examples: the deep profile (conftest) runs ten times
    as many."""
    return count * settings.default.max_examples // 100


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


def _edges_to_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _masks_from_key(key: str):
    n, edges = decode_graph6(key)
    return n, _edges_to_masks(n, edges)


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
        key = canon_full(n, adj).key
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
            assert canon_full(n, _relabel(n, adj, perm)).key == res.key


def test_key_is_relabeling_invariant(rng):
    for _ in range(40):
        n = rng.randint(2, 8)
        adj = _random_masks(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canon_full(n, adj).key == canon_full(n, _relabel(n, adj, perm)).key


def test_key_separates_nonisomorphic():
    p4 = [2, 5, 10, 4]  # 0-1, 1-2, 2-3
    s4 = [14, 1, 1, 1]  # star at 0
    assert canon_full(4, p4).key != canon_full(4, s4).key


def test_labeling_and_last_vertex():
    # labeling maps canonical position -> original vertex, so it relabels the
    # graph onto its key; the canonical-last vertex is labeling[n - 1]
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(3, 7)
        adj = _random_masks(rng, n)
        res = canon_full(n, adj)
        assert sorted(res.labeling) == list(range(n))
        bits = upper_triangle_bits(n, adj, res.labeling)
        assert graph6_from_bits(n, bits) == res.key


@st.composite
def _any_graphs(draw):
    # every edge density, so disconnected graphs and isolated vertices (as in
    # the intermediate levels of canonical augmentation) are drawn too
    n = draw(st.integers(2, 10))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, _random_masks(random.Random(seed), n, p)


@settings(max_examples=_examples(300))
@given(_any_graphs())
def test_last_vertex_has_maximum_degree_and_ends_the_root_refinement(graph):
    # canonical positions ascend with the root coloring, which ranks by
    # degree first; canon_full(last=) rests on both facts
    n, adj = graph
    last = canon_full(n, adj).labeling[n - 1]
    assert adj[last].bit_count() == max(x.bit_count() for x in adj)
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    root = _refine(n, neigh, [0] * n)
    assert _refine(n, neigh, root) == root and root[last] == max(root)


def _candidate_sets(n, adj):
    """(v, among) for every vertex v with among the vertices of v's degree,
    for every non-cut vertex v also with among the non-cut vertices of v's
    degree, and for every v of the rarest non-cut degree (ties to the larger
    degree) with among that class, as the walk passes it: vertex sets that
    every automorphism maps onto themselves."""
    degrees = [x.bit_count() for x in adj]
    non_cut = non_cut_vertices(adj)
    for v in range(n):
        yield v, mask_of(u for u in range(n) if degrees[u] == degrees[v])
        if v in non_cut:
            yield v, mask_of(u for u in non_cut if degrees[u] == degrees[v])
    by_degree = {}
    for u in non_cut:
        by_degree.setdefault(degrees[u], []).append(u)
    if by_degree:
        rarest = min(by_degree.items(), key=lambda item: (len(item[1]), -item[0]))[1]
        for v in rarest:
            yield v, mask_of(rarest)


def _last_of(plain, among):
    """The canonically last vertex of among in the plain result's labeling."""
    return next(u for u in reversed(plain.labeling) if among >> u & 1)


def test_last_must_be_among_the_candidates():
    with pytest.raises(ValueError, match="among"):
        canon_full(3, [2, 5, 2], last=1, among=0b101)
    with pytest.raises(ValueError, match="among"):
        canon_full(3, [2, 5, 2], last=1)


def _circulant_unions(rng, n_max=12):
    """A disjoint union of 1-3 circulants with one jump set, vertices
    shuffled, at most n_max vertices. Components of equal degree leave the
    refinement one root cell, which may hold several orbits."""
    jumps = rng.sample(range(1, 4), rng.randint(1, 3))
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(3, 8)
        if n + size > n_max:
            break
        edges += [(n + i, n + (i + j) % size) for i in range(size) for j in jumps if 2 * j <= size]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return n, _relabel(n, _edges_to_masks(n, edges), perm)


@st.composite
def _verdict_graphs(draw):
    # random graphs of every density, twin-rich blow-ups and unions of
    # circulants, up to 12 vertices
    kind = draw(st.sampled_from(("random", "blowup", "circulants")))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        n = draw(st.integers(1, 12))
        return n, _random_masks(rng, n, draw(st.floats(0.0, 1.0)))
    if kind == "blowup":
        return next((n, adj) for n, adj in _blowups(rng) if n <= 12)
    return _circulant_unions(rng)


@settings(max_examples=_examples(300), deadline=None)
@given(_verdict_graphs())
def test_the_verdict_without_a_search_is_the_searched_verdict(graph):
    # for every (v, among) of _candidate_sets: canon_full(last=v) searches
    # only when v is in the last root cell holding a vertex of among and
    # that cell holds a vertex of among that is not v's twin. Its verdict,
    # searched or not, is the full search's: v is in the orbit of among's
    # last vertex in the plain labeling
    n, adj = graph
    plain = canon_full(n, adj)
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    root = _refine(n, neigh, [0] * n)
    searches = []
    search = canon._search

    def counted(*args):
        searches.append(args)
        return search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_search", counted)
        for v, among in _candidate_sets(n, adj):
            last_cell = all(root[u] <= root[v] for u in iter_bits(among))
            twins_only = all(
                adj[u] == adj[v] or adj[u] | 1 << u == adj[v] | 1 << v
                for u in iter_bits(among)
                if root[u] == root[v]
            )
            searches.clear()
            got = canon_full(n, adj, last=v, among=among)
            assert bool(searches) == (last_cell and not twins_only)
            assert (got is not None) == (plain.orbits[v] == plain.orbits[_last_of(plain, among)])
            if got is not None:
                assert got == plain


def _refine_by_rounds(n, neigh, colors):
    """The reference refinement: every round ranks every vertex by (color,
    sorted neighbor colors) until nothing changes. _refine must return the
    same list, since the numbering it gives picks the canonical labeling."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in neigh[v])))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return new
        colors = new


@st.composite
def _graphs_and_picks(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, _random_masks(random.Random(seed), n, p), random.Random(seed + 1)


@settings(max_examples=_examples(400))
@given(_graphs_and_picks())
def test_refine_matches_the_round_based_reference(graph):
    # at the root, then along a chain of individualizations of random vertices
    # in non-singleton cells down to the discrete coloring, as the search does
    n, adj, pick = graph
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    colors = _refine_by_rounds(n, neigh, [0] * n)
    assert _refine(n, neigh, [0] * n) == colors
    while max(colors) + 1 < n:
        v = pick.choice([v for v in range(n) if colors.count(colors[v]) > 1])
        start = _individualize(colors, v)
        colors = _refine_by_rounds(n, neigh, start)
        assert _refine(n, neigh, start) == colors


def _cycle(n):
    return _edges_to_masks(n, [(i, (i + 1) % n) for i in range(n)])


# regular graphs, whose degree round leaves every vertex in one cell: the
# empty and complete graphs, a cycle, the Petersen graph and two disjoint
# triangles beside a hexagon (one root cell, two orbits)
_REGULAR = [
    (6, [0] * 6),
    (5, [31 ^ 1 << v for v in range(5)]),
    (7, _cycle(7)),
    (10, _edges_to_masks(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)])),
    (12, _edges_to_masks(12, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
                         + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])),
]


def _with_examples(graphs):
    """Decorate a test given one graph with each of graphs as an example."""
    def decorate(test):
        for graph in graphs:
            test = example(graph)(test)
        return test
    return decorate


@settings(max_examples=_examples(300), deadline=None)
@given(st.one_of(_verdict_graphs(), _any_graphs()))
@_with_examples(_REGULAR)
def test_the_among_verdict_is_the_orbit_of_the_last_candidate(graph):
    # both sides of the contract: canon_full(last=v, among=A) is the plain
    # result when v is in the orbit of A's last vertex in the plain
    # labeling, and None otherwise, for A the non-cut vertices of v's
    # degree and for A every vertex of v's degree
    n, adj = graph
    plain = canon_full(n, adj)
    accepted = rejected = 0
    for v, among in _candidate_sets(n, adj):
        got = canon_full(n, adj, last=v, among=among)
        if plain.orbits[v] == plain.orbits[_last_of(plain, among)]:
            assert got == plain
            accepted += 1
        else:
            assert got is None
            rejected += 1
    assert accepted >= 1 and accepted + rejected >= n


@settings(max_examples=_examples(300))
@given(st.one_of(_verdict_graphs(), _any_graphs()))
@_with_examples(_REGULAR)
def test_last_outside_the_last_root_cell_is_rejected_before_the_search(graph):
    # canonical positions ascend with the root coloring and the search only
    # splits its cells, so among's last vertex lies in the last root cell
    # that holds a vertex of among. The refinement itself rejects exactly
    # the v outside that cell, and no search runs for them; for every other
    # v it returns the root coloring, the round-based reference's
    n, adj = graph
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    root = _refine_by_rounds(n, neigh, [0] * n)
    for v, among in _candidate_sets(n, adj):
        outside = any(root[u] > root[v] for u in iter_bits(among))
        refined = _refine(n, neigh, [0] * n, v, among)
        assert refined == (None if outside else root)
        if outside:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(canon, "_individualize", None)  # any search step fails
                assert canon_full(n, adj, last=v, among=among) is None


@settings(max_examples=_examples(200), deadline=None)
@given(st.one_of(_verdict_graphs(), _any_graphs()))
@_with_examples(_REGULAR)
def test_a_verdict_without_rivals_refines_and_searches_only_when_read(graph):
    # canon_full(last=v, among={v}) accepts with nothing refined or
    # searched. The first field read refines the unit coloring once and
    # searches once, later reads neither, and the result is the plain one.
    # The search's own refinements start from individualized colorings, so
    # only refinements of the unit coloring are counted
    n, adj = graph
    plain = canon_full(n, adj)
    plain.key
    calls = []
    refine, search = canon._refine, canon._search

    def counted_refine(n, neigh, colors, *args):
        if not any(colors):
            calls.append("refine")
        return refine(n, neigh, colors, *args)

    def counted_search(*args):
        calls.append("search")
        return search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_refine", counted_refine)
        mp.setattr(canon, "_search", counted_search)
        for v in range(n):
            got = canon_full(n, adj, last=v, among=1 << v)
            assert calls == []
            got.orbits
            assert calls == ["refine", "search"]
            assert (got.key, got.labeling, got.generators) == (
                plain.key, plain.labeling, plain.generators
            )
            assert got == plain
            assert calls == ["refine", "search"]
            calls.clear()


@settings(max_examples=_examples(200))
@given(_any_graphs(), st.integers(0, 2 ** 32 - 1))
@example((9, _edges_to_masks(9, [(0, v) for v in range(1, 9)])), 0)
def test_a_new_vertex_alone_in_its_degree_signs_no_round(graph, seed):
    # grow the graph by a vertex k joined to a random set of its vertices;
    # when k is the only vertex of among, as the only vertex of its degree
    # or the only non-cut one, canon_full(last=k) accepts with nothing
    # refined and reads no neighbor tuple to sign a round
    n, adj = graph
    rng = random.Random(seed)
    hood = mask_of(v for v in range(n) if rng.random() < 0.5)
    grown = [x | (hood >> v & 1) << n for v, x in enumerate(adj)] + [hood]
    alone = [among for _, among in _candidate_sets(n + 1, grown) if among == 1 << n]
    reads = []

    class Watched(tuple):
        def __iter__(self):
            reads.append(self)
            return super().__iter__()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "bits", lambda mask: Watched(iter_bits(mask)))
        mp.setattr(canon, "_search", None)  # the search must not run either
        for among in alone:
            assert canon_full(n + 1, grown, last=n, among=among) is not None
    assert reads == []


@settings(max_examples=_examples(200))
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_certificates_order_labelings_like_their_bitstrings(n, p, seed):
    # the search compares leaves by integer certificates: on random
    # labelings, each also with two vertices swapped (a tie where they are
    # twins), they order exactly as the graph6 payload bitstrings do, and
    # the least one spells the key
    rng = random.Random(seed)
    adj = _random_masks(rng, n, p)
    neigh = [tuple(iter_bits(adj[v])) for v in range(n)]
    labs = []
    for _ in range(6):
        lab = list(range(n))
        rng.shuffle(lab)
        labs.append(lab)
        i, j = rng.randrange(n), rng.randrange(n)
        labs.append(lab[:])
        labs[-1][i], labs[-1][j] = lab[j], lab[i]
    certs = [_certificate(n, neigh, lab) for lab in labs]
    strings = [upper_triangle_bits(n, adj, lab) for lab in labs]
    for a, b in zip(certs, strings):
        for c, d in zip(certs, strings):
            assert (a < c, a == c) == (b < d, b == d)
    assert _graph6(n, min(certs)) == graph6_from_bits(n, min(strings))


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
    with pytest.raises(ValueError):
        canon_key_exhaustive(9, [0] * 9)


# ------------------------------------------------- automorphism generators ----

def _is_automorphism(adj, perm):
    return all(
        adj[perm[v]] == mask_of(perm[u] for u in iter_bits(adj[v])) for v in range(len(adj))
    )


def _generated_group(n, generators):
    """Every product of the generators, as permutation tuples."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        a = stack.pop()
        for g in generators:
            b = tuple(g[x] for x in a)
            if b not in group:
                group.add(b)
                stack.append(b)
    return group


def _orbits_of(n, generators):
    """Orbit id (smallest member) per vertex, by closure under generators."""
    out = list(range(n))
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for g in generators:
                if g[x] not in seen:
                    seen.add(g[x])
                    stack.append(g[x])
        out[v] = min(seen)
    return tuple(out)


def _check_generators(n, adj):
    gens = canon_full(n, adj).generators
    assert all(_is_automorphism(adj, g) for g in gens)
    auts = {p for p in permutations(range(n)) if _is_automorphism(adj, p)}
    assert _generated_group(n, gens) == auts
    assert _orbits_of(n, gens) == orbits_exhaustive(n, adj)


def test_generators_generate_the_automorphism_group_up_to_five_vertices():
    # every labeled graph: each generator is an automorphism, together they
    # generate the brute-force group, and their orbits are the exhaustive ones
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            _check_generators(n, _masks_from_bitmask(n, mask))


def test_generators_generate_the_automorphism_group_six_and_seven(rng):
    for n, samples in ((6, 30), (7, 15)):
        for _ in range(samples):
            _check_generators(n, _random_masks(rng, n, p=rng.choice([0.2, 0.5, 0.8])))
    # the full symmetric group, as empty and as complete graph, and the path
    _check_generators(7, [0] * 7)
    _check_generators(7, [127 ^ (1 << v) for v in range(7)])
    _check_generators(7, [0b10, 0b101, 0b1010, 0b10100, 0b101000, 0b1010000, 0b100000])


# ------------------------------------------ symmetric graphs against networkx ----

CIRCULANTS = [
    (11, [1, 2, 4]),
    (12, [1, 5]),
    (13, [1, 3, 4]),  # the quadratic residues mod 13: isomorphic to paley13
    (13, [1, 5]),
    (14, [1, 4]),
    (15, [1, 4]),
    (15, [1, 3, 6]),
    (16, [1, 6]),
    (17, [1, 4]),
    (18, [1, 4]),
    (19, [1, 7]),
    (20, [1, 4]),
    (20, [2, 5]),
]


def _symmetric_graphs(nx):
    """networkx's symmetric named graphs and circulants (n <= 20), each also
    with one pendant leaf, which leaves an automorphism group with several
    orbits."""
    named = {
        "petersen": nx.petersen_graph(),
        "heawood": nx.heawood_graph(),
        "pappus": nx.pappus_graph(),
        "desargues": nx.desargues_graph(),
        "moebius_kantor": nx.moebius_kantor_graph(),
        "dodecahedral": nx.dodecahedral_graph(),
        "hypercube4": nx.hypercube_graph(4),
        "paley13": nx.paley_graph(13).to_undirected(),
    }
    for n, offsets in CIRCULANTS:
        named[f"circulant{n}_{'_'.join(map(str, offsets))}"] = nx.circulant_graph(n, offsets)
    out = {}
    for name, g in named.items():
        g = nx.convert_node_labels_to_integers(nx.Graph(g))
        out[name] = g
        pendant = g.copy()
        pendant.add_edge(0, g.number_of_nodes())
        out[name + "+leaf"] = pendant
    return out


def _nx_masks(g):
    adj = [0] * g.number_of_nodes()
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@pytest.fixture(scope="module")
def symmetric_graphs():
    nx = pytest.importorskip("networkx")
    return nx, _symmetric_graphs(nx)


def test_symmetric_graph_keys_are_relabeling_invariant(symmetric_graphs):
    _, graphs = symmetric_graphs
    rng = random.Random(0x5EED)
    for name, g in graphs.items():
        n, adj = g.number_of_nodes(), _nx_masks(g)
        key = canon_full(n, adj).key
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon_full(n, _relabel(n, adj, perm)).key == key, name


def test_symmetric_graph_keys_agree_with_vf2(symmetric_graphs):
    # equal keys exactly when VF2 finds an isomorphism, over every pair of
    # the same order and size (several cubic graphs share both)
    nx, graphs = symmetric_graphs
    keyed = []
    for name, g in graphs.items():
        n, size = g.number_of_nodes(), g.number_of_edges()
        keyed.append((name, g, (n, size), canon_full(n, _nx_masks(g)).key))
    pairs = same = 0
    for i, (a, ga, size_a, ka) in enumerate(keyed):
        for b, gb, size_b, kb in keyed[i + 1:]:
            if size_a == size_b:
                pairs += 1
                same += ka == kb
                assert (ka == kb) == nx.is_isomorphic(ga, gb), (a, b)
    assert pairs > same > 0


def test_symmetric_graph_orbits_match_vf2_automorphisms(symmetric_graphs):
    nx, graphs = symmetric_graphs
    for name, g in graphs.items():
        n = g.number_of_nodes()
        res = canon_full(n, _nx_masks(g))
        matcher = nx.isomorphism.GraphMatcher(g, g)
        auts = [tuple(m[v] for v in range(n)) for m in matcher.isomorphisms_iter()]
        assert res.orbits == _orbits_of(n, auts), name
        assert all(_is_automorphism(_nx_masks(g), p) for p in res.generators), name
        assert len(_generated_group(n, res.generators)) == len(auts), name


# ------------------------------------------- twin-rich graphs against networkx ----

def _group_order(n, generators):
    """Order of the group the permutations generate, by Schreier-Sims with
    base 0, 1, ..., n - 1: level i keeps generators of the subgroup fixing
    0..i-1 and a transversal of that subgroup's orbit of i."""
    identity = tuple(range(n))

    def mul(a, b):  # a, then b
        return tuple(b[x] for x in a)

    def inv(a):
        out = [0] * n
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    gens = [[] for _ in range(n)]
    trans = [{i: identity} for i in range(n)]

    def sift(g, i):
        while i < n and g[i] in trans[i]:
            g = mul(g, inv(trans[i][g[i]]))
            i += 1
        return g, i

    def close(i):
        # with the levels above i complete, make level i complete: every
        # Schreier generator of its orbit sifts through the levels above
        trans[i] = {i: identity}
        stack = [i]
        while stack:
            x = stack.pop()
            for s in gens[i]:
                if s[x] not in trans[i]:
                    trans[i][s[x]] = mul(trans[i][x], s)
                    stack.append(s[x])
        for x, u in list(trans[i].items()):
            for s in list(gens[i]):
                h, j = sift(mul(mul(u, s), inv(trans[i][s[x]])), i + 1)
                if h != identity:
                    for k in range(i + 1, j + 1):
                        gens[k].append(h)
                    for k in range(j, i, -1):
                        close(k)

    if n:
        gens[0] = list(generators)
        close(0)
    return math.prod(len(t) for t in trans)


def test_group_order_matches_the_closure():
    # the Schreier-Sims helper against listing every product, on random
    # generating sets of transpositions and shuffles
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(p)
            else:
                i, j = rng.randrange(n), rng.randrange(n)
                p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
        assert _group_order(n, gens) == len(_generated_group(n, gens))


def _twin_families():
    """(name, n, adj, |Aut|, orbits) for stars, complete bipartite graphs,
    complete graphs and cocktail-party graphs (complements of a perfect
    matching), whose groups are products of symmetric groups."""
    out = []
    for n in (3, 9, 20):
        out.append((f"star{n}", n, _edges_to_masks(n, [(0, v) for v in range(1, n)]),
                    math.factorial(n - 1), (0,) + (1,) * (n - 1)))
    for a, b in ((1, 1), (2, 3), (3, 4), (5, 5), (6, 14), (10, 10)):
        n = a + b
        edges = [(u, v) for u in range(a) for v in range(a, n)]
        order = math.factorial(a) * math.factorial(b) * (2 if a == b else 1)
        orbits = (0,) * a + ((0,) if a == b else (a,)) * b
        out.append((f"K{a},{b}", n, _edges_to_masks(n, edges), order, orbits))
    for n in (2, 6, 20):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append((f"K{n}", n, _edges_to_masks(n, edges), math.factorial(n), (0,) * n))
    for k in (2, 3, 4, 10):
        n = 2 * k
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2]
        out.append((f"cocktail{k}", n, _edges_to_masks(n, edges),
                    2 ** k * math.factorial(k), (0,) * n))
    return out


def _blowups(rng):
    """Random graphs with 1-3 vertices replaced by a clique or an independent
    set of 2-4 vertices, n <= 20, vertices shuffled; an endless stream."""
    while True:
        k = rng.randint(3, 10)
        base = _random_masks(rng, k, p=rng.choice([0.3, 0.5, 0.7]))
        sizes = [1] * k
        for v in rng.sample(range(k), rng.randint(1, 3)):
            sizes[v] = rng.randint(2, 4)
        n = sum(sizes)
        if n > 20:
            continue
        start = [sum(sizes[:v]) for v in range(k)]
        members = [range(start[v], start[v] + sizes[v]) for v in range(k)]
        edges = [(a, b) for v in range(k) if rng.random() < 0.5
                 for a in members[v] for b in members[v] if a < b]
        edges += [(a, b) for v in range(k) for w in iter_bits(base[v]) if v < w
                  for a in members[v] for b in members[w]]
        perm = list(range(n))
        rng.shuffle(perm)
        yield n, _relabel(n, _edges_to_masks(n, edges), perm)


def _masks_to_nx(nx, n, adj):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in iter_bits(adj[u]) if u < v)
    return g


def test_twin_families_have_their_groups_and_orbits(symmetric_graphs):
    nx, _ = symmetric_graphs
    rng = random.Random(0x7A1)
    for name, n, adj, order, orbits in _twin_families():
        res = canon_full(n, adj)
        assert res.orbits == orbits, name
        assert all(_is_automorphism(adj, g) for g in res.generators), name
        assert _group_order(n, res.generators) == order, name
        if order <= 5040:
            matcher = nx.isomorphism.GraphMatcher(*[_masks_to_nx(nx, n, adj)] * 2)
            assert sum(1 for _ in matcher.isomorphisms_iter()) == order, name
        if n <= 8:
            assert res.orbits == orbits_exhaustive(n, adj), name
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon_full(n, _relabel(n, adj, perm)).key == res.key, name


def test_blowups_agree_with_vf2(symmetric_graphs):
    # orbits and group order against every VF2 automorphism, keys against
    # relabelings and against VF2 isomorphism over all pairs of one order
    # and size, on twin-rich graphs up to 20 vertices
    nx, _ = symmetric_graphs
    rng = random.Random(0xB10)
    keyed = []
    for n, adj in _blowups(rng):
        if len(keyed) == 2 * 30:  # each graph and one relabeling
            break
        g = _masks_to_nx(nx, n, adj)
        # VF2 lists the group one element at a time; groups of more than
        # 5 040 elements are left to the families above
        auts = [tuple(m[v] for v in range(n)) for m in
                islice(nx.isomorphism.GraphMatcher(g, g).isomorphisms_iter(), 5041)]
        if len(auts) > 5040:
            continue
        res = canon_full(n, adj)
        assert res.orbits == _orbits_of(n, auts)
        assert all(_is_automorphism(adj, p) for p in res.generators)
        assert _group_order(n, res.generators) == len(auts)
        if n <= 8:
            assert res.orbits == orbits_exhaustive(n, adj)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = _relabel(n, adj, perm)
        assert canon_full(n, relabeled).key == res.key
        keyed.append((g, res.key))
        keyed.append((_masks_to_nx(nx, n, relabeled), res.key))
    pairs = same = 0
    for i, (ga, ka) in enumerate(keyed):
        for gb, kb in keyed[i + 1:]:
            if (len(ga), ga.number_of_edges()) == (len(gb), gb.number_of_edges()):
                pairs += 1
                same += ka == kb
                assert (ka == kb) == nx.is_isomorphic(ga, gb)
    assert pairs > same > 0


@pytest.mark.parametrize(
    "name, n, edges",
    [
        ("K3,4", 7, [(u, v) for u in range(3) for v in range(3, 7)]),
        ("star9", 9, [(0, v) for v in range(1, 9)]),
        ("K6", 6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
    ],
)
def test_twin_only_root_is_the_only_leaf(monkeypatch, name, n, edges):
    # every non-singleton root cell of these graphs is one twin class, so
    # the search certifies one labeling and no more
    calls = []

    def counting(*args):
        calls.append(args)
        return _certificate(*args)

    monkeypatch.setattr(canon, "_certificate", counting)
    canon_full(n, _edges_to_masks(n, edges)).key  # the search runs when a field is read
    assert len(calls) == 1
