"""Isomorph-free exhaustive generation of small connected graphs.

Each level holds one representative per isomorphism class together with
generators of its automorphism group, as found by the canonical search that
keyed it. A parent's automorphism maps one admissible neighborhood of the new
vertex onto another that gives an isomorphic child, so only the first
neighborhood of each orbit of the parent's group is tried (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

Every class grows one vertex at a time (canonical augmentation). Level k
holds one representative per isomorphism class of k-vertex graphs in the
class. A child survives only if the vertex just added is, up to
automorphism, the canonically last vertex of its own degree (canon_full with
last=), so every class is produced from exactly one parent class and exactly
once overall. The deleted vertex must leave a parent in the class. Trees
(trees_only, or cyclomatic number 0) delete their last leaf: a tree child is
its parent plus one leaf on a vertex below the degree bound, and a tree minus
a leaf is a tree within the same bound, so every tree is reached. Every other
class deletes its last vertex of maximum degree, so a child whose new vertex
has lower degree is rejected before canon is called; its intermediate graphs
may be disconnected, and connectivity is enforced on the last level by
requiring the new vertex to touch every component. Constraint classes are
pruned hereditarily:

  * bipartite: the new neighborhood must hit only one color class per
    component; admissible neighborhoods are generated directly from the
    parent's two-coloring instead of filtered afterwards;
  * bounded degree: saturated vertices are excluded, the neighborhood size
    is capped;
  * fixed cyclomatic number r: children whose cycle count already exceeds r
    are dropped, and the last level keeps exact matches only.

The levels below the last do not depend on the order asked for, so one walk
serves several orders of one class. A tree level holds every tree of its
order. The other classes (bipartite, bounded degree, cyclomatic number at
most r) are closed under deleting a vertex, so level k holds every k-vertex
member, disconnected ones included. Keys do not depend on the path that found
a class. The classes of a lower order k are therefore the members of level k
that are connected and, for cyclomatic number r, have exactly r; only the
last level is grown with the connectivity and exact-r rules. The walk is
breadth-first, one level at a time.

Emission is sorted by canonical form within each order, so output order is a
function of the constraint sets alone; worker count changes wall time, never
bytes.

Two independent oracles cross-check the generator in the test suite.
brute_force_classes walks every labeled graph on n <= 7 vertices as an
edge-set bitmask and partitions them into isomorphism classes by flood fill
under adjacent-transposition relabelings (which generate the full symmetric
group), touching no canonical-labeling code at all. prufer_trees decodes all
n^(n-2) Prufer sequences (n <= 8) and deduplicates the labeled trees with an
AHU-style certificate. The tests also hold trees against networkx.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from . import canon as _canon
from .bitset import bipartition, components, iter_bits, mask_of, reach
from .formats import graph6_from_bits
from .graphs import Graph, build_graph, canonical_form, from_graph6, is_bipartite

ENV_MAX_N = "GGINDEX_MAX_N"


class EnumerationBoundError(ValueError):
    """Requested order exceeds the configured feasibility bound."""

    def __init__(self, n: int, limit: int, what: str):
        super().__init__(
            f"enumerating {what} at n={n} exceeds the configured bound n <= {limit}; "
            f"pass --max-n (or set {ENV_MAX_N}) to raise it if you accept the runtime"
        )
        self.n = n
        self.limit = limit


@dataclass(frozen=True)
class Constraints:
    """Isomorphism-invariant restrictions on the generated class."""

    n: int
    bipartite_only: bool = False
    max_degree: Optional[int] = None
    trees_only: bool = False
    cyclomatic: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Constraints.n must be at least 1")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.cyclomatic is not None and self.cyclomatic < 0:
            raise ValueError("cyclomatic number cannot be negative")
        if self.trees_only and self.cyclomatic not in (None, 0):
            raise ValueError("trees_only contradicts a nonzero cyclomatic number")

    @property
    def tree_class(self) -> bool:
        return self.trees_only or self.cyclomatic == 0

    def describe(self) -> str:
        parts = []
        if self.trees_only:
            parts.append("trees")
        elif self.bipartite_only:
            parts.append("connected bipartite graphs")
        else:
            parts.append("connected graphs")
        if self.max_degree is not None:
            parts.append(f"with max degree {self.max_degree}")
        if self.cyclomatic is not None and not self.trees_only:
            parts.append(f"with cyclomatic number {self.cyclomatic}")
        return " ".join(parts)


@dataclass(frozen=True)
class FeasibilityBounds:
    """Order caps guarding against accidentally huge runs."""

    general: int = 10
    bipartite: int = 11
    trees: int = 14

    @classmethod
    def from_env(cls) -> "FeasibilityBounds":
        raw = os.environ.get(ENV_MAX_N)
        if raw is None:
            return cls()
        try:
            v = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
        return cls(general=v, bipartite=v, trees=v)

    def override(self, max_n: Optional[int]) -> "FeasibilityBounds":
        if max_n is None:
            return self
        return FeasibilityBounds(general=max_n, bipartite=max_n, trees=max_n)


# ----------------------------------------------------------- augmentation ----

def _nonempty_submasks(mask: int, cap: int) -> list[int]:
    verts = list(iter_bits(mask))
    out = []
    for r in range(1, min(cap, len(verts)) + 1):
        for combo in combinations(verts, r):
            out.append(mask_of(combo))
    return out


def _assemble(option_lists: list[list[int]], cap: int) -> list[int]:
    """All unions of one option per component, capped at cap set bits."""
    acc = [(0, 0)]
    for opts in option_lists:
        nxt = []
        for m, s in acc:
            for o in opts:
                s2 = s + o.bit_count()
                if s2 <= cap:
                    nxt.append((m | o, s2))
        acc = nxt
    return [m for m, _ in acc]


def _neighborhood_options(masks, cons: Constraints, final: bool) -> list[int]:
    """Admissible neighbor sets for the vertex about to be added: unions of
    one option per component, each a subset of one side of it (a color class
    if bipartite), empty only if the child may be disconnected, at most cap
    vertices in all. A tree is one component and takes one neighbor."""
    k = len(masks)
    allowed = (1 << k) - 1
    cap = 1 if cons.tree_class else k
    if cons.max_degree is not None:
        allowed = mask_of(v for v in range(k) if masks[v].bit_count() < cons.max_degree)
        cap = min(cap, cons.max_degree)
    option_lists = []
    for comp in components(masks, k):
        if cons.bipartite_only:
            sides = bipartition(masks, (comp & -comp).bit_length() - 1)
        else:
            sides = (comp,)
        opts = [] if final or cons.tree_class else [0]
        for side in sides:
            opts.extend(_nonempty_submasks(side & allowed, cap))
        option_lists.append(opts)
    return _assemble(option_lists, cap)


def _orbit_representatives(options: list[int], generators) -> list[int]:
    """The first option of each orbit, in the order of options, of the group
    the vertex permutations in generators generate acting on vertex sets."""
    if not generators:
        return options
    images = [[1 << w for w in g] for g in generators]
    seen: set[int] = set()
    reps = []
    for s in options:
        if s in seen:
            continue
        reps.append(s)
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for image in images:
                y, rest = 0, x
                while rest:
                    low = rest & -rest
                    y |= image[low.bit_length() - 1]
                    rest ^= low
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


Entry = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]  # (masks, generators)

_K1 = graph6_from_bits(1, "").encode("ascii")  # the key of the one-vertex graph


def _expand_parent(masks, generators, cons: Constraints, final: bool) -> dict[bytes, Entry]:
    """Children of one parent class that pass the canonical-deletion test, one
    per class, each with the automorphism generators of its representative.
    generators generate the parent's automorphism group; an automorphism maps
    a neighborhood to one giving an isomorphic child, so one neighborhood per
    orbit is tried."""
    k = len(masks)
    m_parent = sum(x.bit_count() for x in masks) // 2
    target_r = cons.cyclomatic
    out: dict[bytes, Entry] = {}
    for s in _orbit_representatives(_neighborhood_options(masks, cons, final), generators):
        child = list(masks)
        child.append(s)
        for u in iter_bits(s):
            child[u] |= 1 << k
        if target_r:
            m_child = m_parent + s.bit_count()
            c_child = len(components(child, k + 1))
            r_child = m_child - (k + 1) + c_child
            if r_child > target_r or (final and r_child != target_r):
                continue
        # outside trees the deleted vertex has maximum degree
        deg = s.bit_count()
        if not cons.tree_class and any(x.bit_count() > deg for x in child):
            continue
        res = _canon.canon_full(k + 1, child, last=k)
        if res is not None:
            out[res.key] = (tuple(child), res.generators)
    return out


def _expand_chunk(args) -> dict[bytes, Entry]:
    chunk, cons, final = args
    merged: dict[bytes, Entry] = {}
    for masks, generators in chunk:
        merged.update(_expand_parent(masks, generators, cons, final))
    return merged


def _emitted(masks, cons: Constraints) -> bool:
    """Whether a member of a level is one of the classes cons asks for: the
    levels hold every class of the hereditary class, disconnected ones and
    those below a cyclomatic number too."""
    k = len(masks)
    if reach(masks, 0) != (1 << k) - 1:
        return False
    r = cons.cyclomatic
    return r is None or sum(x.bit_count() for x in masks) // 2 - k + 1 == r


def _walk(conses: Sequence[Constraints], workers: int = 1) -> list[list[bytes]]:
    """Sorted canonical keys of every class matching each of conses, which
    must differ only in n, from one walk up to the largest n."""
    if not conses:
        return []
    cons = conses[0]
    if len({replace(c, n=1) for c in conses}) > 1:
        raise ValueError("one walk serves constraints that differ only in n")
    top = max(c.n for c in conses)
    wanted = {c.n for c in conses}
    keys: dict[int, list[bytes]] = {}
    level: dict[bytes, Entry] = {_K1: ((0,), ())}
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for k in range(1, top + 1):
            ordered = sorted(level)
            if k in wanted:
                keys[k] = [key for key in ordered if _emitted(level[key][0], cons)]
            if k == top:
                break
            final = k == top - 1
            parents = [level[key] for key in ordered]
            level = {}
            if pool is not None and len(parents) > 2 * workers:
                chunks = [parents[i::workers] for i in range(workers)]
                for part in pool.map(_expand_chunk, [(c, cons, final) for c in chunks]):
                    level.update(part)
            else:
                for masks, generators in parents:
                    level.update(_expand_parent(masks, generators, cons, final))
    finally:
        if pool is not None:
            pool.shutdown()
    return [keys[c.n] for c in conses]


def _graph_from_masks(masks) -> Graph:
    n = len(masks)
    edges = [(u, v) for v in range(n) for u in iter_bits(masks[v]) if u < v]
    return build_graph(n, edges)


def check_bound(cons: Constraints, bounds: Optional[FeasibilityBounds] = None) -> None:
    """Raise EnumerationBoundError when cons.n exceeds the bound of its class;
    bounds default to FeasibilityBounds.from_env()."""
    bounds = bounds if bounds is not None else FeasibilityBounds.from_env()
    if cons.tree_class:
        limit = bounds.trees
    elif cons.bipartite_only:
        limit = bounds.bipartite
    else:
        limit = bounds.general
    if cons.n > limit:
        raise EnumerationBoundError(cons.n, limit, cons.describe())


def enumerate_connected(
    *cons: Constraints,
    bounds: Optional[FeasibilityBounds] = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """One Graph per isomorphism class matching cons, in canonical-form order.

    Given several constraint sets that differ only in n, one walk serves
    them all, and the stream holds the classes of each in turn, in the order
    given. Every bound is checked, in that order, when the function is called.
    Emitted graphs carry their canonical labeling, so to_graph6 of the k-th
    graph of an order is exactly the k-th key in that order's sort order.
    """
    for c in cons:
        check_bound(c, bounds)
    return (
        from_graph6(key.decode("ascii")) for keys in _walk(cons, workers) for key in keys
    )


def enumerate_trees(
    n: int,
    *,
    max_degree: Optional[int] = None,
    bounds: Optional[FeasibilityBounds] = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """All unlabeled trees on n vertices (optionally degree-bounded)."""
    return enumerate_connected(
        Constraints(n, trees_only=True, max_degree=max_degree), bounds=bounds, workers=workers
    )


def count_classes(
    cons: Constraints,
    *,
    bounds: Optional[FeasibilityBounds] = None,
    workers: int = 1,
) -> int:
    """Cardinality of the stream without building Graph objects."""
    check_bound(cons, bounds)
    return len(_walk([cons], workers)[0])


# ------------------------------------------------------------ oracle no. 1 ----

def _matches(g: Graph, cons: Constraints) -> bool:
    if cons.bipartite_only or cons.trees_only:
        if cons.trees_only and not g.is_tree:
            return False
        if not is_bipartite(g):
            return False
    if cons.max_degree is not None and g.max_degree > cons.max_degree:
        return False
    if cons.cyclomatic is not None and g.cyclomatic_number != cons.cyclomatic:
        return False
    return True


def brute_force_classes(cons: Constraints) -> list[Graph]:
    """Every connected isomorphism class matching cons, by sheer enumeration.

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
    out.sort(key=canonical_form)
    return out


# ------------------------------------------------------------ oracle no. 2 ----

def _prufer_decode(n: int, seq) -> list[tuple[int, int]]:
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
    """All unlabeled trees on n vertices via Prufer sequences; n <= 8."""
    if n > 8:
        raise ValueError("the Prufer oracle is limited to n <= 8")
    if n == 1:
        return [build_graph(1, [])]
    if n == 2:
        return [build_graph(2, [(0, 1)])]
    found: dict[str, list[tuple[int, int]]] = {}
    for seq in product(range(n), repeat=n - 2):
        edges = _prufer_decode(n, seq)
        cert = ahu_certificate(n, edges)
        if cert not in found:
            found[cert] = edges
    graphs = [build_graph(n, e) for e in found.values()]
    graphs.sort(key=canonical_form)
    return graphs
