"""Oracles that share no code with ggindex.canon or ggindex.enumeration.

The generator and the canonical search are checked against these. Each is
exhaustive and only feasible for small n, and none calls into canon or
enumeration, so a fault there cannot hide in the reference too:

  * brute_force_classes walks every labeled graph on n <= 7 vertices as an
    edge-set bitmask and partitions them into isomorphism classes by flood
    fill under adjacent-transposition relabelings, which generate the full
    symmetric group;
  * prufer_trees decodes all n^(n-2) Prufer sequences (n <= 8) and
    deduplicates the labeled trees with an AHU-style certificate;
  * canon_key_exhaustive minimizes the graph6 encoding over every
    permutation, and orbits_exhaustive checks every permutation for an
    automorphism (n <= 8). upper_triangle_bits spells a labeling's graph6
    payload bits pair by pair, for that minimum and as the reference for the
    search's integer leaf certificates.

is_bipartite is brute_force_classes's bipartite filter. It colours by
breadth-first depth parity over the edge list, not with the bitmask
bipartition the bipartite generator uses. connected and non_cut_vertices
read adjacency masks by plain breadth-first search, with none of the
walk's cut structure. relabel permutes a Graph's vertices, for invariance
checks.

canon_key_exhaustive generally picks a different representative than the
search, which only minimizes across refinement-consistent labelings; the
properties that must agree are the isomorphism partition, the orbit
partition and the invariance of each key under relabeling.

The reference sums at the end are the index sums as ggindex wrote them
before indices.TERMS held their terms, one expression per sum: gg_sum and
ngg_sum over (edge, n_u, n_v) splits, abc_sum over a graph's end degrees,
path_ngg_sum for the path's NGG, scaled_ngg_sum for the NGG closed forms
written as scale/sqrt(q) terms, and exact_sum for the exact values. The
table's sums are checked against them bit for bit.
"""

import math
from heapq import heapify, heappop, heappush
from itertools import permutations, product

from ggindex.bitset import iter_bits
from ggindex.formats import graph6_from_bits
from ggindex.graphs import Graph, build_graph
from ggindex.indices import edge_splits
from ggindex.radicals import RadicalSum


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex permutation perm (perm[old] = new)."""
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def connected(adj) -> bool:
    """Whether the graph with adjacency masks adj reaches every vertex from
    vertex 0 (breadth-first over masks)."""
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def non_cut_vertices(adj) -> set[int]:
    """The vertices whose removal leaves no more components than the graph
    with adjacency masks adj has, by a breadth-first count per removal."""
    n = len(adj)

    def count(without: int) -> int:
        left = set(range(n)) - {without}
        comps = 0
        while left:
            comps += 1
            frontier = [left.pop()]
            while frontier:
                v = frontier.pop()
                for u in iter_bits(adj[v]):
                    if u in left:
                        left.remove(u)
                        frontier.append(u)
        return comps

    whole = count(-1)
    return {u for u in range(n) if count(u) <= whole}


def is_bipartite(g: Graph) -> bool:
    """No odd cycle: breadth-first depths from vertex 0 differ in parity
    across every edge."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = [0] + [-1] * (g.n - 1)
    queue = [0]
    for x in queue:
        for w in adj[x]:
            if depth[w] < 0:
                depth[w] = depth[x] + 1
                queue.append(w)
    return all((depth[u] + depth[v]) % 2 for u, v in g.edges)


# ------------------------------------------------------------ oracle no. 1 ----

def _graph_from_masks(masks) -> Graph:
    n = len(masks)
    edges = [(u, v) for v in range(n) for u in iter_bits(masks[v]) if u < v]
    return build_graph(n, edges)


def _matches(g: Graph, cons) -> bool:
    if cons.bipartite_only and not is_bipartite(g):
        return False
    if cons.max_degree is not None and g.max_degree > cons.max_degree:
        return False
    if cons.cyclomatic is not None and g.m - g.n + 1 != cons.cyclomatic:
        return False
    return True


def brute_force_classes(cons) -> list[Graph]:
    """One graph per connected isomorphism class matching cons (an
    enumeration.Constraints), by sheer enumeration, in no canonical order.

    Walks all 2^(n(n-1)/2) labeled graphs as edge bitmasks and flood-fills
    isomorphism orbits under adjacent-transposition relabelings. Exact and
    completely independent of the augmentation generator and of the
    canonical-labeling search; usable for n <= 7.
    """
    n = cons.n
    if n > 7:
        raise ValueError("the brute-force oracle is limited to n <= 7")
    if n == 1:
        k1 = build_graph(1, [])
        return [k1] if _matches(k1, cons) else []

    nbits = n * (n - 1) // 2
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    index = {p: b for b, p in enumerate(pairs)}
    lo_bits = nbits // 2
    lo_mask = (1 << lo_bits) - 1

    tables = []
    for t in range(n - 1):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        bitmap = []
        for i, j in pairs:
            pi, pj = perm[i], perm[j]
            bitmap.append(index[(pi, pj) if pi < pj else (pj, pi)])

        def build(width: int, offset: int) -> list[int]:
            singles = [1 << bitmap[offset + b] for b in range(width)]
            tab = [0] * (1 << width)
            for x in range(1, 1 << width):
                low = x & -x
                tab[x] = tab[x ^ low] | singles[low.bit_length() - 1]
            return tab

        tables.append((build(lo_bits, 0), build(nbits - lo_bits, lo_bits)))

    visited = bytearray(1 << nbits)
    reps = []
    for start in range(1 << nbits):
        if visited[start]:
            continue
        visited[start] = 1
        rep = start
        stack = [start]
        while stack:
            x = stack.pop()
            xl, xh = x & lo_mask, x >> lo_bits
            for lo, hi in tables:
                y = lo[xl] | hi[xh]
                if not visited[y]:
                    visited[y] = 1
                    if y < rep:
                        rep = y
                    stack.append(y)
        reps.append(rep)

    out = []
    for rep in reps:
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if (rep >> b) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        if not connected(adj):
            continue
        g = _graph_from_masks(adj)
        if _matches(g, cons):
            out.append(g)
    return out


# ------------------------------------------------------------ oracle no. 2 ----

def prufer_decode(n: int, seq) -> list[tuple[int, int]]:
    """The edges of the labeled tree on 0..n-1 with Prufer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def _tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] == 1]
    count = n
    while count > 2:
        nxt = []
        for v in leaves:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        count -= len(leaves)
        leaves = nxt
    return leaves


def ahu_certificate(n: int, edges) -> str:
    """Center-rooted AHU code; equal exactly for isomorphic trees."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(v: int, parent: int) -> str:
        subs = sorted(code(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(code(c, -1) for c in _tree_centers(n, adj))


def prufer_trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices via Prufer sequences, in no
    canonical order; n <= 8."""
    if n > 8:
        raise ValueError("the Prufer oracle is limited to n <= 8")
    if n == 1:
        return [build_graph(1, [])]
    if n == 2:
        return [build_graph(2, [(0, 1)])]
    found: dict[str, list[tuple[int, int]]] = {}
    for seq in product(range(n), repeat=n - 2):
        edges = prufer_decode(n, seq)
        cert = ahu_certificate(n, edges)
        if cert not in found:
            found[cert] = edges
    return [build_graph(n, e) for e in found.values()]


# ------------------------------------------------------------ oracle no. 3 ----

def upper_triangle_bits(n: int, adj, lab) -> str:
    """graph6 payload bits (column-major, '0'/'1' characters) of the graph
    relabeled by lab (position -> vertex), read pair by pair off the masks;
    bitstrings of one order compare like the integers they spell."""
    return "".join(
        ["1" if adj[lab[j]] >> lab[i] & 1 else "0" for j in range(1, n) for i in range(j)]
    )


def canon_key_exhaustive(n: int, adj) -> str:
    """Key minimized over every permutation (n <= 8)."""
    if n > 8:
        raise ValueError("exhaustive canonical form is limited to n <= 8")
    if n == 1:
        return graph6_from_bits(1, "")
    best = min(upper_triangle_bits(n, adj, lab) for lab in permutations(range(n)))
    return graph6_from_bits(n, best)


def orbits_exhaustive(n: int, adj) -> tuple[int, ...]:
    """Automorphism orbits by checking every permutation (n <= 8): the orbit
    id of v is the smallest image of v under an automorphism."""
    if n > 8:
        raise ValueError("exhaustive orbit computation is limited to n <= 8")

    def automorphic(perm) -> bool:
        return all(
            ((adj[perm[v]] >> perm[u]) & 1) == ((adj[v] >> u) & 1)
            for v in range(n)
            for u in range(v)
        )

    autos = [perm for perm in permutations(range(n)) if automorphic(perm)]
    return tuple(min(perm[v] for perm in autos) for v in range(n))


# ---------------------------------------------------------- reference sums ----

def gg_sum(splits) -> float:
    return math.fsum(math.sqrt((nu + nv - 2) / (nu * nv)) for _, nu, nv in splits)


def ngg_sum(splits) -> float:
    return math.fsum(1.0 / math.sqrt(nu * nv) for _, nu, nv in splits)


def abc_sum(g: Graph) -> float:
    deg = g.degrees
    return math.fsum(
        math.sqrt((deg[u] + deg[v] - 2) / (deg[u] * deg[v])) for u, v in g.edges
    )


def path_ngg_sum(n: int) -> float:
    return math.fsum(1.0 / math.sqrt(i * (n - i)) for i in range(1, n))


def scaled_ngg_sum(terms) -> float:
    """A sum of scale/sqrt(q) over (scale, q) pairs, taken left to right."""
    return sum(scale / math.sqrt(q) for scale, q in terms)


def exact_sum(g: Graph, index: str) -> RadicalSum:
    total = RadicalSum.zero()
    if index == "abc":
        deg = g.degrees
        for u, v in g.edges:
            total = total + RadicalSum.sqrt_rational(deg[u] + deg[v] - 2, deg[u] * deg[v])
        return total
    for split in edge_splits(g):
        if index == "gg":
            total = total + RadicalSum.sqrt_rational(
                split.n_u + split.n_v - 2, split.n_u * split.n_v
            )
        else:
            total = total + RadicalSum.sqrt_rational(1, split.n_u * split.n_v)
    return total
