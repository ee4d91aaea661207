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
sequences before any graph is built. A tree class's canonical keys come from
one canon_full call per generated tree.

Every other class comes from a walk. Each node of the walk is one class's
representative together with generators of its automorphism group, as found
by the canonical search that keyed it. A parent's automorphism maps one
admissible neighborhood of the new vertex onto another that gives an
isomorphic child, so only the first neighborhood of each orbit of the
parent's group is tried (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).

Every class grows one vertex at a time (canonical augmentation). Level k,
the nodes at depth k of the walk, holds one representative per isomorphism
class of k-vertex graphs in the class. A child survives only if the vertex
just added is, up to automorphism, the canonically last vertex of its own
degree (canon_full with last=), so every class is produced from exactly one
parent class and exactly once overall. The deleted vertex has maximum
degree, so a child whose new vertex has lower degree is rejected before canon
is called. Intermediate graphs may be disconnected, and connectivity is
enforced on the last level by requiring the new vertex to touch every
component. Constraint classes are pruned hereditarily:

  * bipartite: the new neighborhood must hit only one color class per
    component; admissible neighborhoods are generated directly from the
    parent's two-coloring instead of filtered afterwards;
  * bounded degree: saturated vertices are excluded, the neighborhood size
    is capped;
  * fixed cyclomatic number r: children whose cycle count already exceeds r
    are dropped, and the last level keeps exact matches only.

The levels below the last do not depend on the order asked for, so one walk
serves several orders of one class. The walk's classes (bipartite, bounded
degree, cyclomatic number at most r) are closed under deleting a vertex, so
level k holds every k-vertex member, disconnected ones included. Keys do not
depend on the path that found a class. The classes of a lower order k are
therefore the members of level k that are connected and, for cyclomatic
number r, have exactly r; only the last level is grown with the connectivity
and exact-r rules.

The walk is depth-first. Since every class has exactly one parent class and
comes from it once, no level is kept and nothing is deduplicated: working
memory is O(n * branching), one parent's children per depth, plus the keys
output. The walk is cut into res/mod shards as in geng: the nodes at a split
depth two below the largest order are dealt round-robin, and shard res
descends into every mod-th of them. A tree shard keys every mod-th tree of
each order. Shards are deterministic, disjoint and together cover every
class, so a run over several processes maps them over one pool and merges
their keys. Emission is sorted by canonical form within each order, so
output order is a function of the constraint sets alone; worker count
changes wall time, never bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations, islice
from typing import Iterator, Optional, Sequence

from . import canon as _canon
from .bitset import bipartition, components, iter_bits, mask_of, reach
from .formats import graph6_from_bits
from .graphs import Graph, build_graph, from_graph6

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


@dataclass(frozen=True)
class Constraints:
    """Isomorphism-invariant restrictions on the generated class; trees are
    the connected graphs of cyclomatic number 0."""

    n: int
    bipartite_only: bool = False
    max_degree: Optional[int] = None
    cyclomatic: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Constraints.n must be at least 1")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.cyclomatic is not None and self.cyclomatic < 0:
            raise ValueError("cyclomatic number cannot be negative")

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
    vertices in all."""
    k = len(masks)
    allowed = (1 << k) - 1
    cap = k
    if cons.max_degree is not None:
        allowed = mask_of(v for v in range(k) if masks[v].bit_count() < cons.max_degree)
        cap = min(cap, cons.max_degree)
    option_lists = []
    for comp in components(masks, k):
        if cons.bipartite_only:
            sides = bipartition(masks, (comp & -comp).bit_length() - 1)
        else:
            sides = (comp,)
        opts = [] if final else [0]
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
        # the deleted vertex has maximum degree
        deg = s.bit_count()
        if any(x.bit_count() > deg for x in child):
            continue
        res = _canon.canon_full(k + 1, child, last=k)
        if res is not None:
            out[res.key] = (tuple(child), res.generators)
    return out


def _emitted(masks, cons: Constraints) -> bool:
    """Whether a member of a level is one of the classes cons asks for: the
    levels hold every class of the hereditary class, disconnected ones and
    those below a cyclomatic number too."""
    k = len(masks)
    if reach(masks, 0) != (1 << k) - 1:
        return False
    r = cons.cyclomatic
    return r is None or sum(x.bit_count() for x in masks) // 2 - k + 1 == r


def _walk(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> dict[int, list[bytes]]:
    """Unsorted canonical keys of the classes of each order in orders that
    shard res of mod finds, cons naming a class other than trees. The walk is
    depth-first from K1 up to the largest order. The nodes at the split depth
    are dealt round-robin in walk order, and shard res descends only into
    those whose index is res mod mod. Every shard walks the nodes above that
    depth, so all deal the same sequence, but only shard 0 emits them."""
    if cons.tree_class:
        # with no tree rule left, cyclomatic number 0 would prune nothing
        # and the walk would grow every graph
        raise ValueError("trees come from level sequences, not from the walk")
    top = max(orders)
    split = max(1, top - 2)
    keys: dict[int, list[bytes]] = {k: [] for k in orders}
    dealt = 0

    def visit(key: bytes, masks, generators) -> None:
        nonlocal dealt
        k = len(masks)
        if k == split:
            mine = dealt % mod == res
            dealt += 1
            if not mine:
                return
        if k in keys and (k >= split or res == 0) and _emitted(masks, cons):
            keys[k].append(key)
        if k < top:
            children = _expand_parent(masks, generators, cons, k == top - 1)
            for child_key, (child, child_generators) in children.items():
                visit(child_key, child, child_generators)

    visit(_K1, (0,), ())
    return keys


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


def _trees(n: int, max_degree: Optional[int]) -> Iterator[list[int]]:
    """The parent of every vertex (-1 for the root), numbered in preorder,
    of each tree on n vertices with no degree above max_degree. A vertex's
    parent is the nearest earlier vertex one level up."""
    for seq in _level_sequences(n):
        parent = [-1] * n
        degree = [0] * n
        latest = [0] * n  # the last vertex seen at each level
        for v in range(1, n):
            level = seq[v]
            u = parent[v] = latest[level - 1]
            degree[u] += 1
            degree[v] += 1
            latest[level] = v
        if max_degree is None or max(degree) <= max_degree:
            yield parent


def _tree_key(parent: list[int]) -> bytes:
    n = len(parent)
    adj = [0] * n
    for v in range(1, n):
        u = parent[v]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _canon.canon_full(n, adj).key


def _tree_keys(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> dict[int, list[bytes]]:
    """Unsorted canonical keys of the trees of each order in orders whose
    generation index is res mod mod, cons naming the degree bound."""
    return {
        k: [_tree_key(parent) for parent in islice(_trees(k, cons.max_degree), res, None, mod)]
        for k in orders
    }


def _shard(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> dict[int, list[bytes]]:
    """Shard res of mod of the keys of cons's class at each order in orders."""
    return (_tree_keys if cons.tree_class else _walk)(cons, orders, res, mod)


def _sorted_keys(conses: Sequence[Constraints], workers: int = 1) -> list[list[bytes]]:
    """Sorted canonical keys of every class matching each of conses, which
    must differ only in n, from one shard per process: at most workers, and
    at most the CPU count."""
    if not conses:
        return []
    if len({replace(c, n=1) for c in conses}) > 1:
        raise ValueError("one walk serves constraints that differ only in n")
    cons = conses[0]
    orders = frozenset(c.n for c in conses)
    mod = min(workers, os.cpu_count() or 1)
    if mod == 1:
        shards = [_shard(cons, orders, 0, 1)]
    else:
        with ProcessPoolExecutor(max_workers=mod) as pool:
            shards = list(pool.map(_shard, [cons] * mod, [orders] * mod, range(mod), [mod] * mod))
    keys = {k: sorted(key for shard in shards for key in shard[k]) for k in orders}
    return [keys[c.n] for c in conses]


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


def enumerate_connected(
    *cons: Constraints,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """One Graph per isomorphism class matching cons, in canonical-form order.

    Given several constraint sets that differ only in n, one walk (for
    trees, one generator run per order) serves them all, and the stream
    holds the classes of each in turn, in the order given. Every order cap is checked (see check_bound), in that order, when
    the function is called. Emitted graphs carry their canonical labeling, so
    to_graph6 of the k-th graph of an order is exactly the k-th key in that
    order's sort order. Trees are keyed with one canonical search each, and
    workers shard that keying.
    """
    for c in cons:
        check_bound(c, max_n)
    return (
        from_graph6(key.decode("ascii")) for keys in _sorted_keys(cons, workers) for key in keys
    )


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
    return (
        build_graph(n, ((u, v) for v, u in enumerate(parent) if v))
        for parent in _trees(n, max_degree)
    )


def count_classes(
    cons: Constraints,
    *,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> int:
    """Cardinality of the stream without building Graph objects; trees are
    counted without any canonical search."""
    check_bound(cons, max_n)
    if cons.tree_class:
        return sum(1 for _ in _trees(cons.n, cons.max_degree))
    return len(_sorted_keys([cons], workers)[0])
