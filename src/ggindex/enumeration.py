"""Isomorph-free exhaustive generation of small connected graphs.

Each node of the walk is one class's representative together with
generators of its automorphism group, as found by the canonical search that
keyed it. A parent's automorphism maps one admissible neighborhood of the new
vertex onto another that gives an isomorphic child, so only the first
neighborhood of each orbit of the parent's group is tried (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

Every class grows one vertex at a time (canonical augmentation). Level k,
the nodes at depth k of the walk, holds one representative per isomorphism
class of k-vertex graphs in the class. A child survives only if the vertex
just added is, up to automorphism, the canonically last vertex of its own
degree (canon_full with last=), so every class is produced from exactly one
parent class and exactly once overall. The deleted vertex must leave a parent in the class. Trees
(cyclomatic number 0) delete their last leaf: a tree child is
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
last level is grown with the connectivity and exact-r rules.

The walk is depth-first. Since every class has exactly one parent class and
comes from it once, no level is kept and nothing is deduplicated: working
memory is O(n * branching), one parent's children per depth, plus the keys
output. The walk is cut into res/mod shards as in geng: the nodes at a split
depth two below the largest order are dealt round-robin, and shard res
descends into every mod-th of them. Shards are deterministic, disjoint and
together cover every class, so a run over several processes maps them over
one pool and merges their keys. Emission is sorted by canonical form within
each order, so output order is a function of the constraint sets alone;
worker count changes wall time, never bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import canon as _canon
from .bitset import bipartition, components, iter_bits, mask_of, reach
from .formats import graph6_from_bits
from .graphs import Graph, from_graph6

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


def _emitted(masks, cons: Constraints) -> bool:
    """Whether a member of a level is one of the classes cons asks for: the
    levels hold every class of the hereditary class, disconnected ones and
    those below a cyclomatic number too."""
    k = len(masks)
    if reach(masks, 0) != (1 << k) - 1:
        return False
    r = cons.cyclomatic
    return r is None or sum(x.bit_count() for x in masks) // 2 - k + 1 == r


def _shard(cons: Constraints, orders: frozenset[int], res: int, mod: int) -> dict[int, list[bytes]]:
    """Unsorted canonical keys of the classes of each order in orders that
    shard res of mod finds, cons naming the class. The walk is depth-first
    from K1 up to the largest order. The nodes at the split depth are dealt
    round-robin in walk order, and shard res descends only into those whose
    index is res mod mod. Every shard walks the nodes above that depth, so
    all deal the same sequence, but only shard 0 emits them."""
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


def _walk(conses: Sequence[Constraints], workers: int = 1) -> list[list[bytes]]:
    """Sorted canonical keys of every class matching each of conses, which
    must differ only in n, from one walk up to the largest n, cut into one
    shard per process: at most workers, and at most the CPU count."""
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

    Given several constraint sets that differ only in n, one walk serves
    them all, and the stream holds the classes of each in turn, in the order
    given. Every order cap is checked (see check_bound), in that order, when
    the function is called. Emitted graphs carry their canonical labeling, so
    to_graph6 of the k-th graph of an order is exactly the k-th key in that
    order's sort order.
    """
    for c in cons:
        check_bound(c, max_n)
    return (
        from_graph6(key.decode("ascii")) for keys in _walk(cons, workers) for key in keys
    )


def enumerate_trees(
    n: int,
    *,
    max_degree: Optional[int] = None,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> Iterator[Graph]:
    """All unlabeled trees on n vertices (optionally degree-bounded)."""
    return enumerate_connected(
        Constraints(n, max_degree=max_degree, cyclomatic=0), max_n=max_n, workers=workers
    )


def count_classes(
    cons: Constraints,
    *,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> int:
    """Cardinality of the stream without building Graph objects."""
    check_bound(cons, max_n)
    return len(_walk([cons], workers)[0])
