"""Isomorph-free exhaustive generation of small connected graphs.

Trees come from level sequences (Wright, Richmond, Odlyzko and McKay,
"Constant time generation of free trees", SIAM J. Comput. 15, 1986). A rooted
tree written in preorder is the sequence of its vertex depths. Rooted at a
centre, with every vertex's subtrees in non-increasing order of their own
sequences, each free tree has one canonical sequence. The generator starts
from the centred path and steps through rooted sequences in decreasing
lexicographic order with Beyer and Hedetniemi's successor. It skips at once
every sequence whose root is not the chosen centre, so each tree comes out
exactly once and no canonical search runs. The degree bound filters the
sequences before any graph is built. _trees gives each tree as parent links,
and only this module reads that layout: enumerate_trees builds a Graph from
them, _subtree_splits gives a tree's edge splits from its subtree sizes, and
_tree_key its canonical key, from one canon_full call with no Graph built.
verify values its tree claims with the first and keys the trees left in a
tie window with the second. A tree class's canonical keys come from one
_tree_key call per generated tree.

Every other class comes from a walk. Each node of the walk is one class's
representative, as adjacency masks, together with its canon_full result. A
parent's automorphism maps one admissible neighborhood of the new vertex
onto another that gives an isomorphic child, so only the first neighborhood
of each orbit of the parent's group is tried (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998). The orbits come from the
generators its search finds, read only when two or more neighborhoods pass
the degree test below: with one or none there is no orbit to choose from.
So a node is searched only if its canonical-deletion test needed that, its
children needed its group, or a caller reads its key (see canon); a node of
the largest order is never expanded.

Every class grows one vertex at a time (canonical augmentation), and every
node of the walk is connected. A connected graph on two or more vertices
has at least two non-cut vertices (the ends of a longest path), and the
walk's classes (bipartite, bounded degree, cyclomatic number at most r) keep
a connected member G in the class when a non-cut vertex v is deleted: G - v
is connected, a subgraph of a bipartite graph is bipartite, no degree grows,
and the cyclomatic number falls by deg v - 1 >= 0. Level k, the nodes at
depth k of the walk, holds one representative per isomorphism class of
connected k-vertex members. A child survives only if the vertex just added
is, up to automorphism, the canonically last vertex of the child's rarest
non-cut degree class: its non-cut vertices of the degree that the fewest of
them have, ties going to the larger degree (canon_full with last= and
among=). Canonical augmentation admits any choice of deleted vertex that
every isomorphism keeps, and this class holds only non-cut vertices, so
deleting any of them leaves a connected member of the class: every class is
produced from exactly one parent class and exactly once overall. The rarest
class is chosen for its size. On the near-regular graphs of the
degree-capped walks the maximum degree takes most of the graph, while the
rarest class is small, so fewer children reach canon_full, and the
refinement settles more of those without a search.

The new vertex v is never a cut vertex of its child, since the child minus
v is the parent P. A vertex u of P is a non-cut vertex of the child exactly
when the neighborhood s meets every component of P - u, as v then joins
them: a non-cut vertex of P stays one unless s = {u} (u then is a cut
vertex of the child, save in K1, whose one vertex has no component to
meet), and a cut vertex c of P becomes one when s meets every component of
P - c. So once per parent the walk lists the non-cut vertices of P by
degree, as masks M_d, and the cut vertices with the components of P - c
(_cut_structure). The child's non-cut vertices of degree d are then
(M_d & ~s) | (M_{d-1} & s), a vertex of s moving one degree up, with the
cut vertices s promotes to degree d, v if d = |s|, and less u if s = {u}:
each option's class sizes are a few counts (_candidates). A neighborhood s
passes iff the class of degree |s| is the rarest, and that class is the
among canon_full is given. The test runs before canon is called and before
the orbits are closed. The parent's automorphisms keep |s| and the cut
structure, so each orbit passes or fails whole, and the first neighborhood
of each passing orbit is the one the closure over all of them would pick,
in the same order. Constraint classes are pruned
hereditarily:

  * bipartite: the new neighborhood lies in one color class of the parent;
    admissible neighborhoods are generated from the parent's two-coloring
    instead of filtered afterwards;
  * bounded degree: saturated vertices are excluded, the neighborhood size
    is capped;
  * fixed cyclomatic number r: the child's is the parent's plus |s| - 1, so
    |s| is capped at r - r_parent + 1, and the last level takes exactly
    that size.

The levels below the last do not depend on the order asked for, so one walk
serves several orders of one class. Keys do not depend on the path that
found a class. The classes of a lower order k are therefore the members of
level k that, for cyclomatic number r, have exactly r; only the last level
is grown with the exact-r rule.

The walk is depth-first. Since every class has exactly one parent class and
comes from it once, no level is kept and nothing is deduplicated: working
memory is O(n * branching), one parent's children per depth, plus the keys
output. The walk is cut into res/mod shards as in geng: the nodes at a split
depth two below the largest order are dealt round-robin, and shard res
descends into every mod-th of them. A tree shard takes every mod-th level
sequence of each order, before the degree test and any parent link. Shards
are deterministic, disjoint and together cover every class, so a run over
several processes maps them over one pool and merges what they find.

_classes is each shard's one class stream, for enumerate and verify alike.
It returns (stream, key_of, splits_of, floors_of): the stream yields
(n, candidate), unkeyed and unsorted, a walk class as its walk node (its
masks in walk order with their canon_full result) and a tree as its parent
links; key_of gives a candidate's canonical key, read off the node's own
result or from one canon_full call per tree, splits_of its edge splits, and
floors_of, for walk classes only, a floor on each side of each edge's split,
one AND-NOT and one popcount of the masks, which verify bounds a class's
value with before it pays for the split pass. enumerate_keys keys
every class (_shard) and sorts the keys within each order, so its output
order is a function of the constraint sets alone, and enumerate_connected
decodes those keys; worker count changes wall time, never bytes. verify
folds each shard's classes unkeyed instead and sends back only the fold
states, which it merges; the folds key only the classes left in a tie
window, and their witness sets depend neither on the order nor on the shard
count.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations, islice
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from . import canon as _canon
from .bitset import bipartition, bits, components, mask_of
from .graphs import Graph, build_graph, from_graph6
from .indices import split_pass

ENV_MAX_N = "GGINDEX_MAX_N"


class EnumerationBoundError(ValueError):
    """Requested order exceeds the configured feasibility bound."""

    def __init__(self, n: int, limit: int, what: str):
        super().__init__(
            f"enumerating {what} at n={n} exceeds the configured bound n <= {limit}; "
            f"raise it with max_n= (--max-n on the command line) or {ENV_MAX_N}"
            " if you accept the runtime"
        )
        self.n = n
        self.limit = limit


class _ConstraintFields(NamedTuple):
    n: int
    bipartite_only: bool
    max_degree: Optional[int]
    cyclomatic: Optional[int]


class Constraints(_ConstraintFields):
    """Isomorphism-invariant restrictions on the generated class; trees are
    the connected graphs of cyclomatic number 0. A NamedTuple whose every
    construction, _make and _replace included, is validated."""

    __slots__ = ()

    def __new__(cls, n, bipartite_only=False, max_degree=None, cyclomatic=None) -> Constraints:
        if n < 1:
            raise ValueError("Constraints.n must be at least 1")
        if max_degree is not None and max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if cyclomatic is not None and cyclomatic < 0:
            raise ValueError("cyclomatic number cannot be negative")
        return super().__new__(cls, n, bipartite_only, max_degree, cyclomatic)

    @classmethod
    def _make(cls, iterable) -> Constraints:
        return cls(*iterable)

    @property
    def tree_class(self) -> bool:
        return self.cyclomatic == 0

    def describe(self) -> str:
        if self.tree_class:
            parts = ["trees"]
        elif self.bipartite_only:
            parts = ["connected bipartite graphs"]
        else:
            parts = ["connected graphs"]
        if self.max_degree is not None:
            parts.append(f"with max degree {self.max_degree}")
        if self.cyclomatic:
            parts.append(f"with cyclomatic number {self.cyclomatic}")
        return " ".join(parts)


# ----------------------------------------------------------- augmentation ----

def _submasks(mask: int, low: int, high: int) -> list[int]:
    """The subsets of mask of low to high vertices, by size, then in
    combinations order."""
    verts = bits(mask)
    return [
        mask_of(combo)
        for size in range(low, min(high, len(verts)) + 1)
        for combo in combinations(verts, size)
    ]


def _neighborhood_options(masks, cons: Constraints, final: bool) -> list[int]:
    """Admissible neighbor sets for the vertex about to be added to a
    connected parent: nonempty subsets of one color class if bipartite, else
    of all vertices, holding only unsaturated vertices and at most max_degree
    of them. The new vertex raises the cyclomatic number by |s| - 1, so
    under r the size is capped at r - r_parent + 1, and is exactly that on
    the last level."""
    k = len(masks)
    allowed = (1 << k) - 1
    low, high = 1, k
    if cons.max_degree is not None:
        allowed = mask_of(v for v in range(k) if masks[v].bit_count() < cons.max_degree)
        high = min(high, cons.max_degree)
    if cons.cyclomatic is not None:
        r_parent = sum(x.bit_count() for x in masks) // 2 - k + 1
        high = min(high, cons.cyclomatic - r_parent + 1)
        if final:
            low = cons.cyclomatic - r_parent + 1
    sides = bipartition(masks, 0) if cons.bipartite_only else (allowed,)
    return [s for side in sides for s in _submasks(side & allowed, low, high)]


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


Child = tuple[tuple[int, ...], _canon.CanonResult]  # (masks, canonical search)


def _cut_structure(masks) -> tuple[list[int], list[tuple[int, int, list[int]]]]:
    """(layers, cuts) of a connected graph: layers[d] is the mask of its
    non-cut vertices of degree d, for d from 0 to one above the maximum
    degree, and cuts lists each cut vertex as (u, degree, pieces), its
    pieces being the components of the graph without it. K1's one vertex has
    no pieces and is non-cut."""
    full = (1 << len(masks)) - 1
    layers = [0] * (max(x.bit_count() for x in masks) + 2)
    cuts = []
    for u, x in enumerate(masks):
        pieces = components(masks, full ^ 1 << u)
        if len(pieces) > 1:
            cuts.append((u, x.bit_count(), pieces))
        else:
            layers[x.bit_count()] |= 1 << u
    return layers, cuts


def _candidates(masks, options) -> dict[int, int]:
    """The options s whose child, the connected parent masks with a new
    vertex k joined to s, has the new vertex's degree |s| as its rarest
    non-cut degree (ties to the larger degree), each mapped to that class as
    a mask, k included. The class sizes come from the parent's
    _cut_structure and a few counts per option (module docstring)."""
    k = len(masks)
    layers, cuts = _cut_structure(masks)
    top = len(layers)  # every parent vertex has child degree below top
    base = [x.bit_count() for x in layers]
    degree = [x.bit_count() for x in masks]
    non_cut = (1 << k) - 1 ^ mask_of(u for u, _, _ in cuts)
    out = {}
    for s in options:
        m = s.bit_count()
        if m >= top:  # the new vertex alone has the largest degree
            out[s] = 1 << k
            continue
        counts = base.copy()
        counts[m] += 1
        promoted = 0
        if m == 1 and k > 1:
            # s = {u}: u is a cut vertex of the child, the rest keep their degree
            if s & non_cut:
                counts[degree[s.bit_length() - 1]] -= 1
        else:
            for u in bits(s & non_cut):
                counts[degree[u]] -= 1
                counts[degree[u] + 1] += 1
            for u, d, pieces in cuts:
                for piece in pieces:
                    if not s & piece:
                        break
                else:  # s meets every piece: u is non-cut in the child
                    d += s >> u & 1
                    counts[d] += 1
                    if d == m:
                        promoted |= 1 << u
        mine = counts[m]
        for d, c in enumerate(counts):
            if c and (c < mine or c == mine and d > m):
                break
        else:
            out[s] = (layers[m] & ~s) | (layers[m - 1] & s) | promoted | 1 << k
    return out


def _expand_parent(
    masks, parent: _canon.CanonResult, cons: Constraints, final: bool
) -> list[Child]:
    """Children of one connected parent class that pass the canonical-deletion
    test, one per class, each with its canon_full result: the search behind
    it runs when a caller first reads the result, and a last level's child
    whose test needed no search (the new vertex alone in its class, or its
    root cell's members of the class all twins of it) has not been
    searched. parent is the parent's canon_full result. The neighborhoods
    whose new vertex lies in the child's rarest non-cut degree class are cut
    to one per orbit of the parent's group, whose generators are read only
    when two or more pass. That class holds only non-cut vertices, so the
    child minus any of them is a connected member of the class, and it is
    kept by every isomorphism, as canon_full's among must be. _candidates
    reads its size and members for each neighborhood off the parent's cut
    structure, taken once (module docstring)."""
    k = len(masks)
    candidates = _candidates(masks, _neighborhood_options(masks, cons, final))
    options = list(candidates)
    if len(options) > 1:
        options = _orbit_representatives(options, parent.generators)
    out: list[Child] = []
    for s in options:
        child = list(masks)
        child.append(s)
        for u in bits(s):
            child[u] |= 1 << k
        child = tuple(child)
        res = _canon.canon_full(k + 1, child, last=k, among=candidates[s])
        if res is not None:
            out.append((child, res))
    return out


def _emitted(masks, cons: Constraints) -> bool:
    """Whether a connected member of a level is one of the classes cons asks
    for: under a cyclomatic number r the levels hold the classes below r
    too."""
    r = cons.cyclomatic
    return r is None or sum(x.bit_count() for x in masks) // 2 - len(masks) + 1 == r


def _walk(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> Iterator[Child]:
    """The classes of each order in orders that shard res of mod finds, cons
    naming a class other than trees, as (masks, canon_full result) in walk
    order. The walk is depth-first from K1 up to the largest order. The nodes
    at the split depth are dealt round-robin in walk order, and shard res
    descends only into those whose index is res mod mod. Every shard walks
    the nodes above that depth, so all deal the same sequence, but only
    shard 0 emits them. A class of the largest order is searched only if
    its canonical-deletion test needed it or the caller reads its result."""
    top = max(orders)
    split = max(1, top - 2)
    dealt = 0
    stack = [((0,), _canon.canon_full(1, (0,)))]
    while stack:
        masks, result = stack.pop()
        k = len(masks)
        if k == split:
            mine = dealt % mod == res
            dealt += 1
            if not mine:
                continue
        if k in orders and (k >= split or res == 0) and _emitted(masks, cons):
            yield masks, result
        if k < top:
            children = _expand_parent(masks, result, cons, k == top - 1)
            stack.extend(reversed(children))


@lru_cache(maxsize=1)
def _edges(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of the graph with these adjacency masks,
    sorted. The list of the last masks asked is kept: verify floors a walk
    class and then splits it, and both read one list, which callers must
    not change."""
    return [(u, v) for u, m in enumerate(masks) for v in bits(m >> u + 1 << u + 1)]


def _node_key(node: Child) -> str:
    """The canonical key of a walk node, read off its own canon_full result."""
    return node[1].key


def _node_splits(node: Child) -> Sequence[tuple]:
    """The edge splits of a walk node's graph, its edges in _edges order."""
    masks = node[0]
    return split_pass(len(masks), _edges(masks))


def _node_floors(node: Child) -> list[tuple[int, int]]:
    """Floors (a0, b0) on the edge splits (n_u, n_v) of a walk node's graph,
    its edges in _edges order: a0 = popcount(adj[u] & ~adj[v]) <= n_u and
    likewise b0 <= n_v (indices.split_term_bounds)."""
    masks = node[0]
    return [
        ((masks[u] & ~masks[v]).bit_count(), (masks[v] & ~masks[u]).bit_count())
        for u, v in _edges(masks)
    ]


# ------------------------------------------------------------------ trees ----

def _level_sequences(n: int) -> Iterator[list[int]]:
    """The canonical level sequence of every free tree on n vertices, once
    each, in decreasing lexicographic order. The yielded list is reused.

    A sequence is canonical when its root is a centre and, if the tree has
    two centres, the first subtree T (vertices 1 to m - 1) is no larger than
    the rest R (the root and vertices m onwards), in size and then in
    sequence: rooting at T's root would swap the two. When a sequence fails,
    every later one keeps T until T itself steps, and none of them passes,
    since R's depth cannot grow and R only decreases; so the successor is
    taken at T's last vertex."""
    if n <= 2:
        yield list(range(n))
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the centred path
    while True:
        m = seq.index(1, 2)  # the root's second child
        deep, rest = max(seq[1:m]), max(seq[m:])
        if rest == deep or rest == deep - 1 and (
            (m - 1, [x - 1 for x in seq[1:m]]) <= (n - m + 1, [0] + seq[m:])
        ):
            yield seq
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:  # the star is the last
                return
        else:
            p = m - 1
        # Beyer-Hedetniemi successor at p: repeat the subtree of p's parent q
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - p + q]
        if p < m and seq[q] > 1:
            # the copies all hang below T, leaving the root one child; the
            # greatest canonical sequence below ends in a path as deep as T
            h = max(seq)
            seq[n - h:] = range(1, h + 1)


def _trees(n: int, max_degree: Optional[int], res: int = 0, mod: int = 1) -> Iterator[list[int]]:
    """The parent of every vertex (-1 for the root), numbered in preorder,
    of each tree on n vertices with no degree above max_degree whose level
    sequence's index is res mod mod. A vertex's parent is the nearest
    earlier vertex one level up. Each tree gets a new list, so a caller may
    keep it; a sequence is dropped at the first vertex that takes a parent
    over the bound."""
    cap = n if max_degree is None else max_degree
    for seq in islice(_level_sequences(n), res, None, mod):
        parent = [-1] * n
        degree = [0] + [1] * (n - 1)  # every vertex but the root has a parent
        latest = [0] * n  # the last vertex seen at each level
        for v in range(1, n):
            level = seq[v]
            u = parent[v] = latest[level - 1]
            degree[u] += 1
            if degree[u] > cap:
                break
            latest[level] = v
        else:
            yield parent


def _tree_graph(parent: list[int]) -> Graph:
    """The tree with these parent links, labeled as they are."""
    return build_graph(len(parent), ((u, v) for v, u in enumerate(parent) if v))


def _subtree_splits(parent: Sequence[int]) -> list[tuple[int, int, int]]:
    """The edge splits of the tree with these parent links, numbered in
    preorder from root 0, as (v, n_v, n_u) for the edge from each non-root v
    to its parent u. The edge is a bridge, so n_v is the size s of v's
    subtree and n_u = n - s; the sizes are summed in reverse preorder."""
    n = len(parent)
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    return [(v, size[v], n - size[v]) for v in range(1, n)]


def _tree_key(parent: list[int]) -> str:
    """The canonical key of the tree with these parent links."""
    n = len(parent)
    adj = [0] * n
    for v in range(1, n):
        u = parent[v]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _canon.canon_full(n, adj).key


def _classes(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> tuple[
    Iterator[tuple[int, Any]],
    Callable[[Any], str],
    Callable[[Any], Sequence[tuple]],
    Optional[Callable[[Any], list[tuple[int, int]]]],
]:
    """Shard res of mod of the classes of cons's class at each order in
    orders, unkeyed and unsorted, as (stream, key_of, splits_of, floors_of):
    stream yields (n, candidate), key_of(candidate) is its canonical key,
    splits_of(candidate) its edge splits and floors_of(candidate) floors on
    them. A walk class is its walk node, the adjacency masks in walk order
    with their canon_full result, keyed from that result (_node_key), split
    in _edges order (_node_splits) and floored from its masks
    (_node_floors); a tree is its parent links, dealt by level sequence
    (_trees), keyed by _tree_key and split by subtree sizes
    (_subtree_splits), and floors_of is None: those splits take O(n), so a
    bound on them saves nothing. No class is decoded or built as a Graph,
    and the functions are module-level, so a fold that holds one pickles."""
    if not cons.tree_class:
        stream = ((len(node[0]), node) for node in _walk(cons, orders, res, mod))
        return stream, _node_key, _node_splits, _node_floors
    stream = ((k, parent) for k in orders for parent in _trees(k, cons.max_degree, res, mod))
    return stream, _tree_key, _subtree_splits, None


def _shard(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> dict[int, list[str]]:
    """Shard res of mod of the keys of cons's class at each order in orders,
    unsorted."""
    stream, key_of, _, _ = _classes(cons, orders, res, mod)
    keys: dict[int, list[str]] = {k: [] for k in orders}
    for n, candidate in stream:
        keys[n].append(key_of(candidate))
    return keys


def _shard_count(workers: int) -> int:
    """How many shards a run with this many workers cuts its classes into:
    at most workers, and at most the CPU count."""
    return min(workers, os.cpu_count() or 1)


def _map_shards(fn, cons: Constraints, orders: frozenset[int], workers: int) -> list:
    """fn(cons, orders, res, mod) for every shard res of mod of the classes of
    cons's class at the orders, with mod = _shard_count(workers); each shard
    runs in its own process unless mod is 1, and only then is the process
    pool imported. cons.n is not read."""
    mod = _shard_count(workers)
    if mod == 1:
        return [fn(cons, orders, 0, 1)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=mod) as pool:
        return list(pool.map(fn, [cons] * mod, [orders] * mod, range(mod), [mod] * mod))


def check_bound(cons: Constraints, max_n: Optional[int] = None) -> None:
    """Raise EnumerationBoundError when cons.n exceeds the order cap: max_n if
    given, else GGINDEX_MAX_N, else the class default of 14 for trees, 11 for
    bipartite graphs and 10 otherwise."""
    if max_n is None:
        raw = os.environ.get(ENV_MAX_N)
        if raw is not None:
            try:
                max_n = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
        else:
            max_n = 14 if cons.tree_class else 11 if cons.bipartite_only else 10
    if cons.n > max_n:
        raise EnumerationBoundError(cons.n, max_n, cons.describe())


def enumerate_keys(
    *cons: Constraints,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> Iterator[str]:
    """The canonical key of every isomorphism class matching cons, in sorted
    order within each order.

    Given several constraint sets that differ only in n, one walk (for
    trees, one generator run per order) serves them all, and the stream
    holds the classes of each in turn, in the order given. Every order cap
    is checked (see check_bound), in that order, when the function is
    called. Trees are keyed with one canonical search each, and workers shard
    that keying.
    """
    for c in cons:
        check_bound(c, max_n)
    if not cons:
        return iter(())
    if len({c._replace(n=1) for c in cons}) > 1:
        raise ValueError("one walk serves constraints that differ only in n")
    shards = _map_shards(_shard, cons[0], frozenset(c.n for c in cons), workers)
    keys = {k: sorted(key for shard in shards for key in shard[k]) for k in shards[0]}
    return (key for c in cons for key in keys[c.n])


def enumerate_connected(
    *cons: Constraints,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """One Graph per isomorphism class matching cons, in canonical-form order:
    enumerate_keys's keys, each decoded. Emitted graphs carry their canonical
    labeling, so to_graph6 of the k-th graph of an order is exactly the k-th
    key in that order's sort order.
    """
    return map(from_graph6, enumerate_keys(*cons, max_n=max_n, workers=workers))


def enumerate_trees(
    n: int,
    *,
    max_degree: Optional[int] = None,
    max_n: Optional[int] = None,
) -> Iterator[Graph]:
    """One Graph per unlabeled tree on n vertices with no degree above
    max_degree (any, if None), in generation order, with no canonical search.

    Each tree is labeled by the preorder of its canonical level sequence, so
    vertex 0 is a centre; canonical_form gives its class key, and
    enumerate_connected(Constraints(n, max_degree=max_degree, cyclomatic=0))
    the trees in canonical-form order instead. The order cap (see
    check_bound) is checked when the function is called.
    """
    check_bound(Constraints(n, max_degree=max_degree, cyclomatic=0), max_n)
    return map(_tree_graph, _trees(n, max_degree))
