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
the lexicographically smallest upper-triangle bitstring wins. Three standard
prunes keep symmetric graphs from exploding into n! leaves:

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
in place, shifting later colors. A singleton cell cannot split and is not
signed. tests/test_canon.py keeps the round-based ranking as the reference
and checks the two agree at the root and along chains of individualizations.

Canonical positions ascend with degree: the root refinement numbers its
cells by degree first, and the search only splits cells in place, so the
canonically last vertex of degree d sits at position #{v : deg v <= d} - 1,
in the last root cell among the vertices of degree d. canon_full(n, adj,
last=v) returns None unless v is in that vertex's orbit for d = deg v, and
the root coloring decides that verdict before any search where it can:

  * v outside that cell: reject, since an automorphism keeps every vertex
    in its root cell. The root refinement stops with this verdict after the
    first round in which the cell after v's cell holds vertices of degree d:
    cells only split in place, so v cannot get back into the last cell of
    its degree;
  * the cell is {v}, or holds only twins of v: accept. The canonically last
    vertex of degree d is in the cell, and swapping v with a twin is an
    automorphism, so the cell is one orbit;
  * otherwise the search runs, and its orbits give the verdict.

canon_full returns its result unsearched where the verdict needed no
search: CanonResult runs the search from the stored root coloring the first
time its key, labeling, orbits or generators are read, and only once. The
enumerator reads a parent's generators only when two or more of its
neighborhoods pass the degree test, so a class is searched only where its
verdict, its key or such a choice needs it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .bitset import bits
from .formats import graph6_from_bits, upper_triangle_bits


def _refine(
    n: int, neigh: list[tuple[int, ...]], colors: list[int], last: Optional[int] = None
) -> Optional[list[int]]:
    """Stable iso-invariant coloring refinement (1-WL), classes renumbered.

    colors is the all-zero coloring or one in which vertices of one color have
    equal degree. Each round splits every cell by the neighbor colors of its
    vertices and numbers the new cells in order, shifting later colors by the
    cells inserted before them; singleton cells are carried over unsigned.
    With last given, return None as soon as the cell after last's cell holds
    vertices of last's degree: cells only split in place, so last can no
    longer end up in the last cell of its degree.
    """
    colors = list(colors)
    if not any(colors):
        # the first round of the unit coloring ranks by degree, ascending
        rank = {d: i for i, d in enumerate(sorted({len(nb) for nb in neigh}))}
        colors = [rank[len(nb)] for nb in neigh]
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    base = n + 1
    while True:
        if last is not None:
            after = colors[last] + 1
            if after < len(cells) and len(neigh[cells[after][0]]) == len(neigh[last]):
                return None
        if len(cells) == n:
            break
        # a vertex's signature has digit base**(top - c) per neighbor of
        # color c, top the highest color; on equal degrees, a larger
        # signature means a smaller sorted tuple of neighbor colors, so it
        # takes the lower color
        powers = [base ** e for e in range(len(cells) - 1, -1, -1)]
        digit = [powers[c] for c in colors]
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            by_sig: dict[int, list[int]] = {}
            for v in cell:
                by_sig.setdefault(sum(map(digit.__getitem__, neigh[v])), []).append(v)
            if len(by_sig) == 1:
                split.append(cell)
            else:
                split.extend(by_sig[s] for s in sorted(by_sig, reverse=True))
        if len(split) == len(cells):
            break
        cells = split
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
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

    best_bits: str | None = None
    best_lab: tuple[int, ...] = identity
    first_bits: str | None = None
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
        nonlocal best_bits, best_lab, first_bits, first_lab
        # a node whose every cell is a singleton or holds twins only is a
        # leaf: its labeling is the first leaf below it (module docstring)
        cell_twin: dict[int, int] = {}
        if all(cell_twin.setdefault(c, t) == t for c, t in zip(colors, twin)):
            lab = tuple(sorted(range(n), key=colors.__getitem__))
            bits = upper_triangle_bits(n, adj, lab)
            if first_bits is None:
                first_bits, first_lab = bits, lab
            elif bits == first_bits and lab != first_lab:
                record(first_lab, lab)
            if best_bits is None or bits < best_bits:
                best_bits, best_lab = bits, lab
            elif bits == best_bits and lab != best_lab:
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
    assert best_bits is not None

    find, join = _orbit_union(n)
    join(gens)
    orbits = tuple(find(v) for v in range(n))
    return graph6_from_bits(n, best_bits), best_lab, orbits, tuple(gens)


class CanonResult:
    """A graph's canonical key, labeling, orbits and automorphism generators.

    canon_full stores the graph with its root coloring, and the search runs
    from there the first time any of the four is read, once. A caller that
    needs only canon_full's verdict (last=) pays for no search when the root
    coloring decides it. Two results are equal when their four fields are.
    """

    __slots__ = ("_graph", "_found")

    def __init__(self, n: int, adj, neigh: list[tuple[int, ...]], root: list[int]) -> None:
        self._graph: Optional[tuple] = (n, adj, neigh, root)
        self._found: Optional[Found] = None

    def _searched(self) -> Found:
        if self._found is None:
            self._found = _search(*self._graph)
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


def canon_full(n: int, adj, *, last: Optional[int] = None) -> Optional[CanonResult]:
    """Canonical key, labeling, orbits and automorphism generators of a graph,
    searched for when first read (CanonResult), so adj must not change until
    then.

    With last given, return None unless vertex last is in the orbit of the
    canonically last vertex of its degree. The root coloring decides that
    verdict unless last's root cell holds a vertex that is not its twin; only
    then does the search run here (see the module docstring).
    """
    if n < 1:
        raise ValueError("canonical form needs at least one vertex")
    neigh = [bits(adj[v]) for v in range(n)]
    root = _refine(n, neigh, [0] * n, last)
    if root is None:
        return None

    result = CanonResult(n, adj, neigh, root)
    if last is not None:
        # last's root cell is one orbit if it holds only twins of last
        cell = root[last]
        hood = adj[last]
        closed = hood | 1 << last
        if any(
            c == cell and adj[v] != hood and adj[v] | 1 << v != closed
            for v, c in enumerate(root)
        ):
            position = sum(len(nb) <= len(neigh[last]) for nb in neigh) - 1
            orbits = result.orbits
            if orbits[last] != orbits[result.labeling[position]]:
                return None
    return result
