"""Canonical labeling of small simple graphs by refinement and backtracking.

Graphs are handled as adjacency bitmasks: adj[v] has bit u set when uv is an
edge. The canonical key of a graph is the graph6 string of the relabeled
graph chosen by the search, so two graphs receive equal keys exactly when
they are isomorphic, keys sort deterministically, and a key decodes back
into a representative graph with any graph6 reader.

The search first refines the all-equal coloring by iterated neighbor-multiset
splitting (degree refinement and its transitive closure). If the stable
partition still has a non-singleton cell, the first such cell is branched on:
each vertex in it is individualized in turn and the search recurses. Among
all complete labelings consistent with the refinement, the one encoding to
the lexicographically smallest upper-triangle bitstring wins. Leaves compare
by certificate, that bitstring read as a binary number and built from the
neighbor tuples in O(n + m); the certificates of one order all have
n(n-1)/2 bits, so they order as the bitstrings do, and the key is spelled
once, from the best. Three standard prunes keep symmetric graphs from
exploding into n! leaves:

  * twins, vertices with equal open neighborhoods (leaves on one hub, one
    side of a K_{a,b}) or equal closed ones (a clique's vertices), are
    grouped before the search: swapping a vertex with the smallest vertex
    of its twin class is an automorphism, and these transpositions start
    the generator list;
  * every leaf whose bitstring equals the current best, or equals the first
    leaf reached, yields an automorphism; generators are accumulated as they
    are discovered;
  * a sibling vertex is skipped when a known automorphism fixing all
    previously individualized vertices maps it into an already-explored
    sibling, since its subtree would repeat explored work.

A node whose non-singleton cells each hold one twin class is a leaf, with
the labeling a discrete coloring would give: cells in color order, the
vertices of a cell in ascending order. That is the first leaf below the node.
Individualizing a twin splits no other cell, since every vertex outside the
class is adjacent to all of it or to none, so the full search below the node
only orders each class, and all its leaves differ by permutations of twins,
which are automorphisms: they share one bitstring. A pruned subtree is the
image of an explored one, so the first leaf in depth-first order with the
smallest bitstring is never pruned, and the chosen labeling is that leaf
with or without this cut. The key, labeling and orbits are thus those of the
full search, and the twin transpositions give every automorphism the cut
subtrees would have yielded.

Each generator maps one leaf onto another with the same bitstring, so it is
an automorphism, and together they generate the whole automorphism group.
canon_full returns them with the orbits they induce. The isomorph-free
enumerator uses the orbits for its canonical-deletion test (last=, below)
and the generators to try one extension per orbit of a parent's group. Both
are load-bearing there, so the test suite compares them against a brute force on
every graph with up to 5 vertices and on random larger ones, and against
networkx's VF2 automorphisms on symmetric and twin-rich graphs with up to 21
vertices.

The keys depend on the exact color numbering the refinement gives, which is
that of ranking every vertex by (color, sorted tuple of neighbor colors) in
synchronous rounds until nothing changes. The refinement reproduces it with
less work. The first round of the unit coloring ranks by degree. After it,
vertices of one color have equal degree, and for equal-length sorted tuples
A < B exactly when A's vector of per-color neighbor counts is
lexicographically greater than B's. So each round signs a vertex by the
integer with digit (n+1)**(last color - c) per neighbor of color c, ranks a
cell's signatures in descending order, and numbers the pieces of split cells
in place, shifting later colors; the cells before the first one that splits
keep their numbers. A singleton cell cannot split and is not signed.
tests/test_canon.py keeps the round-based ranking as the reference and
checks the two agree at the root and along chains of individualizations.

Canonical positions ascend with degree: the root refinement numbers its
cells by degree first, and the search only splits cells in place.
canon_full(n, adj, last=v, among=A) takes a candidate mask A: vertices of
v's degree, v among them, that every automorphism maps onto itself (the
enumerator passes the child's rarest non-cut degree class). It returns
None unless v is in the orbit of the canonically last vertex w of A, the
last vertex of A in the labeling. An automorphism keeps every vertex in its
root cell, and w lies in the last root cell that holds a vertex of A. The
verdict takes three steps:

  * A = {v}: accept at once, with nothing refined, since v is w;
  * reject as soon as a round of the refinement leaves a vertex of A in a
    later cell than v. Cells only split in place, so it stays after v, and
    v cannot get into w's root cell;
  * otherwise v's root cell is the last one holding a vertex of A, and w
    is in it. If the cell's vertices of A are all twins of v, w is one
    (swapping v with a twin is an automorphism) and v is accepted;
    otherwise the search runs and its orbits give the verdict.

canon_full returns its result unsearched where the verdict needed no
search: CanonResult runs the search the first time its key, labeling, orbits
or generators are read, and only once, refining the unit coloring first
where canon_full did not (no last given, or A = {v}). The enumerator reads
a parent's generators only when two or more of its neighborhoods pass the
degree test, so a class is searched only where its verdict, its key or
such a choice needs it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .bitset import bits
from .formats import graph6_from_bits


@lru_cache(maxsize=16)
def _powers(n: int) -> list[int]:
    """(n+1)**e for e = n-1 down to 0: the signature digits of the colors of
    an n-vertex coloring, read from the end (see _refine)."""
    return [(n + 1) ** e for e in range(n - 1, -1, -1)]


def _refine(
    n: int,
    neigh: list[tuple[int, ...]],
    colors: list[int],
    last: Optional[int] = None,
    rivals: int = 0,
) -> Optional[list[int]]:
    """Stable iso-invariant coloring refinement (1-WL), classes renumbered.

    colors is the all-zero coloring or one in which vertices of one color have
    equal degree. Each round splits every cell by the neighbor colors of its
    vertices and numbers the new cells in order, shifting later colors by the
    cells inserted before them; singleton cells are carried over unsigned.

    With last given and rivals a mask of vertices of last's degree, return
    None as soon as a round leaves one of them in a later cell than last:
    cells only split in place, so that order is final (canon_full's reject,
    module docstring). colors must then be all zero.
    """
    if any(colors):
        colors = list(colors)
    else:
        # the first round of the unit coloring ranks by degree, ascending
        rank = {d: i for i, d in enumerate(sorted({len(nb) for nb in neigh}))}
        colors = [rank[len(nb)] for nb in neigh]
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    powers = _powers(n)
    while len(cells) < n:
        # a vertex's signature has digit (n+1)**(top - c) per neighbor of
        # color c, top the highest color; on equal degrees, a larger
        # signature means a smaller sorted tuple of neighbor colors, so it
        # takes the lower color
        digit = powers[n - len(cells):]
        split: list[list[int]] = []
        first = -1  # the first cell that splits
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            by_sig: dict[int, list[int]] = {}
            for v in cell:
                t = 0
                for u in neigh[v]:
                    t += digit[colors[u]]
                if t in by_sig:
                    by_sig[t].append(v)
                else:
                    by_sig[t] = [v]
            if len(by_sig) == 1:
                split.append(cell)
            else:
                if first < 0:
                    first = len(split)
                split.extend(by_sig[t] for t in sorted(by_sig, reverse=True))
        if first < 0:
            break
        cells = split
        for c in range(first, len(cells)):
            for v in cells[c]:
                colors[v] = c
        if last is not None and any(colors[u] > colors[last] for u in bits(rivals)):
            return None  # a rival ends in a later cell than last
    return colors


def _individualize(colors: list[int], v: int) -> list[int]:
    cv = colors[v]
    return [
        c + 1 if (c > cv or (c == cv and u != v)) else c
        for u, c in enumerate(colors)
    ]


def _orbit_union(
    n: int,
) -> tuple[Callable[[int], int], Callable[[Iterable[Sequence[int]]], None]]:
    """Union-find over vertex orbits: join(perms) merges the orbits of perms,
    find(v) is the smallest vertex in v's orbit so far (path halving, the
    larger root joins the smaller)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(perms: Iterable[Sequence[int]]) -> None:
        for g in perms:
            for v, w in enumerate(g):
                if v != w:
                    a, b = find(v), find(w)
                    if a != b:
                        parent[max(a, b)] = min(a, b)

    return find, join


def _certificate(n: int, neigh: list[tuple[int, ...]], lab: Sequence[int]) -> int:
    """The graph6 payload bits of the graph relabeled by lab (position ->
    vertex) as one integer, column j of the upper triangle shifted in after
    columns 1..j-1, in O(n + m). Certificates of one order compare like the
    bitstrings they spell."""
    pos = [0] * n
    for i, v in enumerate(lab):
        pos[v] = i
    cert = 0
    for j, v in enumerate(lab):
        column = 0
        top = 1 << j >> 1  # the bit of position 0 in column j
        for u in neigh[v]:
            i = pos[u]
            if i < j:
                column |= top >> i
        cert = cert << j | column
    return cert


def _graph6(n: int, cert: int) -> str:
    """The graph6 string whose payload bits spell the certificate cert."""
    return graph6_from_bits(n, bin(cert | 1 << n * (n - 1) // 2)[3:])


# what the search finds: key, labeling, orbits, generators
Found = tuple[str, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


def _search(n: int, adj, neigh: list[tuple[int, ...]], root: list[int]) -> Found:
    """The key, labeling, orbits and generators the search finds below the
    root coloring root."""
    # twin[v] is the smallest vertex with v's open (adj[v]) or closed
    # (adj[v] | 1 << v) neighborhood; no open key equals a closed key, so one
    # dict groups both, and swapping a vertex with its twin is an automorphism
    by_hood: dict[int, int] = {}
    twin = [
        min(by_hood.setdefault(adj[v], v), by_hood.setdefault(adj[v] | 1 << v, v))
        for v in range(n)
    ]
    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    for v, t in enumerate(twin):
        if t != v:
            swap = list(identity)
            swap[v], swap[t] = t, v
            gens.append(tuple(swap))
    gen_seen = {identity, *gens}

    best_cert: int | None = None
    best_lab: tuple[int, ...] = identity
    first_cert: int | None = None
    first_lab: tuple[int, ...] = identity

    def record(lab_a: tuple[int, ...], lab_b: tuple[int, ...]) -> None:
        sigma = [0] * n
        for va, vb in zip(lab_a, lab_b):
            sigma[va] = vb
        tup = tuple(sigma)
        if tup not in gen_seen:
            gen_seen.add(tup)
            gens.append(tup)

    def search(colors: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best_cert, best_lab, first_cert, first_lab
        # a node whose every cell is a singleton or holds twins only is a
        # leaf: its labeling is the first leaf below it (module docstring)
        cell_twin: dict[int, int] = {}
        if all(cell_twin.setdefault(c, t) == t for c, t in zip(colors, twin)):
            lab = tuple(sorted(range(n), key=colors.__getitem__))
            cert = _certificate(n, neigh, lab)
            if first_cert is None:
                first_cert, first_lab = cert, lab
            elif cert == first_cert and lab != first_lab:
                record(first_lab, lab)
            if best_cert is None or cert < best_cert:
                best_cert, best_lab = cert, lab
            elif cert == best_cert and lab != best_lab:
                record(best_lab, lab)
            return
        ncells = max(colors) + 1
        counts = [0] * ncells
        for c in colors:
            counts[c] += 1
        target = next(c for c in range(ncells) if counts[c] > 1)
        cell = [v for v in range(n) if colors[v] == target]
        # orbits of the generators that fix prefix pointwise; gens only
        # grows, so each one is joined once, when a sibling is next tested
        find, join = _orbit_union(n)
        joined = 0
        explored: list[int] = []
        for v in cell:
            if explored:
                if joined < len(gens):
                    join(g for g in gens[joined:] if all(g[p] == p for p in prefix))
                    joined = len(gens)
                rv = find(v)
                if any(find(u) == rv for u in explored):
                    continue
            explored.append(v)
            search(_refine(n, neigh, _individualize(colors, v)), prefix + (v,))

    search(root, ())
    assert best_cert is not None

    find, join = _orbit_union(n)
    join(gens)
    orbits = tuple(find(v) for v in range(n))
    return _graph6(n, best_cert), best_lab, orbits, tuple(gens)


class CanonResult:
    """A graph's canonical key, labeling, orbits and automorphism generators.

    canon_full stores the graph with its root coloring, or with None where
    it refined nothing, and the first time any of the four is read the
    search runs, once, refining the unit coloring first if no root is held.
    A caller that needs only canon_full's verdict (last=) pays for no
    search when the refinement decides it. Two results are equal when their
    four fields are.
    """

    __slots__ = ("_graph", "_found")

    def __init__(
        self,
        n: int,
        adj,
        neigh: Optional[list[tuple[int, ...]]] = None,
        root: Optional[list[int]] = None,
    ) -> None:
        self._graph: Optional[tuple] = (n, adj, neigh, root)
        self._found: Optional[Found] = None

    def _searched(self) -> Found:
        if self._found is None:
            n, adj, neigh, root = self._graph
            if root is None:
                neigh = [bits(adj[v]) for v in range(n)]
                root = _refine(n, neigh, [0] * n)
            self._found = _search(n, adj, neigh, root)
            self._graph = None
        return self._found

    @property
    def key(self) -> str:
        """graph6 of the canonically relabeled graph."""
        return self._searched()[0]

    @property
    def labeling(self) -> tuple[int, ...]:
        """Canonical position -> original vertex."""
        return self._searched()[1]

    @property
    def orbits(self) -> tuple[int, ...]:
        """Orbit id (smallest member) per vertex."""
        return self._searched()[2]

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Automorphisms that generate Aut."""
        return self._searched()[3]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonResult):
            return NotImplemented
        return self._searched() == other._searched()

    __hash__ = None  # equality reads the search, so a result is no dict key

    def __repr__(self) -> str:
        key, labeling, orbits, generators = self._searched()
        return (
            f"CanonResult(key={key!r}, labeling={labeling!r}, orbits={orbits!r},"
            f" generators={generators!r})"
        )


def canon_full(
    n: int, adj, *, last: Optional[int] = None, among: int = 0
) -> Optional[CanonResult]:
    """Canonical key, labeling, orbits and automorphism generators of a graph,
    searched for when first read (CanonResult), so adj must not change until
    then.

    With last given, return None unless vertex last is in the orbit of the
    canonically last vertex of among, a mask of vertices of last's degree
    that holds last and that every automorphism maps onto itself. Nothing
    is refined when among is last alone. Otherwise the refinement rejects
    between its rounds, and on the stable coloring last's root cell
    decides: it accepts when the cell's vertices of among are all twins of
    last, and otherwise the search runs here and its orbits decide (see the
    module docstring).
    """
    if n < 1:
        raise ValueError("canonical form needs at least one vertex")
    if last is not None and not among >> last & 1:
        raise ValueError("among must hold last")
    if last is None or among == 1 << last:
        return CanonResult(n, adj)  # no verdict, or last has no rival
    neigh = [bits(adj[v]) for v in range(n)]
    root = _refine(n, neigh, [0] * n, last, among)
    if root is None:
        return None
    result = CanonResult(n, adj, neigh, root)
    # last's root cell holds the canonically last vertex of among: accept if
    # the cell's vertices of among are all twins of last, else search
    cell = root[last]
    hood = adj[last]
    closed = hood | 1 << last
    if any(
        c == cell and among >> v & 1 and adj[v] != hood and adj[v] | 1 << v != closed
        for v, c in enumerate(root)
    ):
        w = next(u for u in reversed(result.labeling) if among >> u & 1)
        if result.orbits[last] != result.orbits[w]:
            return None
    return result
