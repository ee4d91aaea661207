"""Immutable connected simple graphs on vertices 0..n-1, and the input reader.

The constructor validates and normalizes its input once; after that a Graph
is hashable, comparable and safe to share. Building one takes O(n + m) time
and memory. Per-vertex adjacency bitmasks (arbitrary-size Python ints, so
nothing breaks past 64 vertices) are made on first use, by canon and
graph6; they hold about n^2 / 2 bits in all.

read_graphs is the one reader of input files: it turns the lines of a
graph6 or edge-list file into Graphs, and names the file and line of the
first one it cannot decode or build.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from . import canon as _canon
from . import formats as _formats
from .bitset import iter_bits

DistanceMatrix = tuple[tuple[int, ...], ...]
CanonicalForm = str


class GraphError(ValueError):
    """Invalid graph construction input."""


class Graph:
    """Connected simple undirected graph.

    Edges are stored deduplicated and sorted with the smaller endpoint
    first, so two Graphs over the same labeled edge set compare and hash
    equal regardless of how the edges were supplied. A Graph is not a
    tuple: it never equals its (n, edges) pair. Assigning or deleting any
    attribute raises AttributeError.
    """

    __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {n!r}")
        normalized = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a vertex pair") from None
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphError(f"edge {e!r} has non-integer endpoints")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        edges = tuple(e for e, _ in groupby(normalized))
        # one walk over the touched vertices only: with too few edges to
        # connect n vertices it stops before any n-sized table
        missing = _first_unreachable(edges)
        if missing < n:
            raise GraphError(f"graph is disconnected: vertex {missing} is unreachable from vertex 0")
        self.__dict__.update(n=n, edges=edges)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


def _first_unreachable(edges: Iterable[tuple[int, int]]) -> int:
    """The smallest vertex not reachable from vertex 0 over edges: n when
    they connect 0..n-1, and at most len(edges) + 1, since only that many
    vertices can be reached."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return next(v for v in range(len(seen) + 1) if v not in seen)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validating constructor; rejects self-loops, bad labels, disconnected input."""
    return Graph(n, edges)


def read_graphs(lines: Sequence[str], label: str) -> Iterator[tuple[int, Graph]]:
    """Yield (line, Graph) for each graph in the lines of one input file.

    Sniffing rule: a first nonblank line starting with a digit means
    blank-line-separated edge-list blocks (header "n m"), anything else
    means one graph6 string per line. graph6 size bytes are always at or
    above '?' (63), so the two are never ambiguous. line is where the graph
    starts. A FormatError or GraphError is raised again as the same class,
    its message prefixed with "label:line: ".
    """
    first = next((ln for ln in lines if ln.strip()), None)
    if first is None:
        raise _formats.FormatError(f"{label}: no graphs in input")
    numbered = enumerate(map(str.strip, lines), start=1)
    if first.strip()[0].isdigit():
        decode = _formats.parse_edge_list_block
        # one block per run of nonblank lines, numbered by its first line
        chunks = (
            (start, [text, *(line for _, line in rest)])
            for nonblank, rest in groupby(numbered, key=lambda item: bool(item[1]))
            if nonblank
            for start, text in [next(rest)]
        )
    else:
        decode = _formats.decode_graph6
        chunks = ((lineno, line) for lineno, line in numbered if line)
    for start, chunk in chunks:
        try:
            g = build_graph(*decode(chunk))
        except (_formats.FormatError, GraphError) as exc:
            raise type(exc)(f"{label}:{start}: {exc}") from None
        yield start, g


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; entry [u][v] is the hop distance.

    The value layer does not call this: edge_splits runs its own
    bit-parallel pass. The dense table is the reference the splits are
    checked against."""
    adj = g.adjacency_bits
    n = g.n
    full = (1 << n) - 1
    rows = []
    for s in range(n):
        dist = [0] * n
        seen = 1 << s
        frontier = seen
        d = 0
        while seen != full:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            d += 1
            for v in iter_bits(frontier):
                dist[v] = d
            seen |= frontier
        rows.append(tuple(dist))
    return tuple(rows)


def canonical_form(g: Graph) -> CanonicalForm:
    """Isomorphism-invariant total-order key (graph6 of a canonical relabeling)."""
    return _canon.canon_full(g.n, g.adjacency_bits).key


def to_graph6(g: Graph) -> str:
    return _formats.encode_graph6(g.n, g.adjacency_bits)


def from_graph6(line: str) -> Graph:
    n, edges = _formats.decode_graph6(line)
    return build_graph(n, edges)
