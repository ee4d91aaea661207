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
    automorphism (n <= 8).

canon_key_exhaustive generally picks a different representative than the
search, which only minimizes across refinement-consistent labelings; the
properties that must agree are the isomorphism partition, the orbit
partition and the invariance of each key under relabeling.
"""

from heapq import heapify, heappop, heappush
from itertools import permutations, product

from ggindex.bitset import iter_bits, reach
from ggindex.formats import graph6_from_bits, upper_triangle_bits
from ggindex.graphs import Graph, build_graph, is_bipartite


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
    if cons.cyclomatic is not None and g.cyclomatic_number != cons.cyclomatic:
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
        if reach(adj, 0) != (1 << n) - 1:
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

def canon_key_exhaustive(n: int, adj) -> bytes:
    """Key minimized over every permutation (n <= 8)."""
    if n > 8:
        raise ValueError("exhaustive canonical form is limited to n <= 8")
    if n == 1:
        return graph6_from_bits(1, "").encode("ascii")
    best = min(upper_triangle_bits(n, adj, lab) for lab in permutations(range(n)))
    return graph6_from_bits(n, best).encode("ascii")


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
