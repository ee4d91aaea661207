"""Distance-based and degree-based bond-additive indices.

For an edge uv, n_u counts the vertices strictly closer to u than to v
(u itself included), and symmetrically for n_v; vertices equidistant from
both endpoints count for neither side. The three indices are edge sums of a
term of one pair (a, b) per edge:

    GG  = sum g(n_u, n_v),    g(a, b) = sqrt((a + b - 2) / (a * b))
    NGG = sum h(n_u, n_v),    h(a, b) = 1 / sqrt(a * b)
    ABC = sum g(d(u), d(v))

TERMS is the table of them, one row per index: the float and the exact term
of a pair, and where a graph's pairs come from, its edge splits (GG, NGG) or
the degrees of its edges' ends (ABC). The index functions, the split sums
verify values classes with, the exact values extremal re-ranks ties by, the
bounds on a split's term (split_term_bounds) and the families' NGG closed
forms all read their terms from it.

Sums run over edges in their stored order (smaller endpoint first, then
lexicographic) and use math.fsum, so results do not depend on labeling or
edge order, and float_tie bounds how far one can be from its exact value.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import Graph
from .radicals import RadicalSum

# The float error of an index value, with u = 2**-53 the unit roundoff:
# - each term (TERMS) is >= 0 and comes from two correctly rounded
#   operations on integers below 2**53 (GG, ABC: divide then sqrt, <= 1.5u
#   relative error; NGG: sqrt then divide, <= 2u), and times = 1.0 adds no
#   rounding;
# - math.fsum rounds the sum of the terms once, so a value is within 3u*V of
#   its exact value V, whatever the number of edges.
# Two exactly equal values, or two whose floats are in the wrong order, thus
# differ by at most 3u(a + b)(1 + O(u)); TIE_RTOL = 8u leaves a 2.6x margin.
# The closed forms verify checks values against have <= 3u each. Pruning
# against a running best stays sound: for values >= 0 and b1 between v and
# the final best B, |v - b1| > TIE_RTOL(v + b1) implies |v - B| > TIE_RTOL(v + B).
TIE_RTOL = 2.0 ** -50

# The slack of a bound on a value (split_term_bounds). A float bound b is the
# math.fsum of table entries >= 0, each within 2u (relative) of its exact
# term bound, so b is within 3u of the exact class bound; the class's float
# value v is within 3u of its exact value, which lies on the bound's side of
# the exact bound. So v <= b(1 + 3u)/(1 - 3u) <= b(1 + 7u) in a max fold, and
# v >= b(1 - 7u) in a min fold.
# Take a max fold with running best B; if
#     B - b > (TIE_RTOL + BOUND_RTOL)(B + b)
# holds in floats, it holds exactly with BOUND_RTOL shrunk by a factor
# 1 - 3u, and then B - v > TIE_RTOL(B + v) since BOUND_RTOL >= 7u(1 + TIE_RTOL)
# covers the gap between b and v. So v is neither above B nor float_tie to it,
# and offering it would only count it; the min case is the mirror image.
# BOUND_RTOL = 32u leaves a 4x margin.
BOUND_RTOL = 2.0 ** -48


def float_tie(a: float, b: float) -> bool:
    """True when the floats a and b of two index values cannot order them."""
    return abs(a - b) <= TIE_RTOL * (abs(a) + abs(b))


# ------------------------------------------------------------ the terms ----

def _gg_term(a: int, b: int, times: float = 1.0) -> float:
    return times * math.sqrt((a + b - 2) / (a * b))


def _ngg_term(a: int, b: int, times: float = 1.0) -> float:
    return times / math.sqrt(a * b)


class Term(NamedTuple):
    """One index's term of a pair (a, b): value(a, b, times) is the float of
    times equal terms and exact(a, b, times) their exact sum. times enters
    the float as its last operation, so times = 1 leaves the term's bits
    alone. splits says where a graph's pairs come from: its edge splits
    (n_u, n_v), or else the degrees (d(u), d(v)) of each edge's ends."""

    value: Callable[..., float]
    exact: Callable[..., RadicalSum]
    splits: bool


# GG's term of a split is ABC's term of the end degrees (arXiv 1609.01406).
_GG = Term(_gg_term, lambda a, b, t=1: RadicalSum.sqrt_rational(a + b - 2, a * b, t), True)
TERMS = {
    "gg": _GG,
    "ngg": Term(_ngg_term, lambda a, b, t=1: RadicalSum.sqrt_rational(1, a * b, t), True),
    "abc": _GG._replace(splits=False),
}


def term_sum(index: str, pairs: Iterable[tuple]) -> float:
    """The float value of index on a graph with these pairs, one
    (edge, a, b) per edge: the math.fsum of the terms."""
    value = TERMS[index].value
    return math.fsum(value(a, b) for _, a, b in pairs)


def exact_sum(index: str, pairs: Iterable[tuple]) -> RadicalSum:
    """The exact value of index on a graph with these pairs."""
    return multiset_exact(index, Counter((a, b) for _, a, b in pairs))


def multiset_value(index: str, multiset: dict[tuple[int, int], int]) -> float:
    """The float value of index on a graph whose pairs are the multiset
    {(a, b): times}: the math.fsum of one value(a, b, times) per entry."""
    value = TERMS[index].value
    return math.fsum(value(a, b, times) for (a, b), times in multiset.items())


def multiset_exact(index: str, multiset: dict[tuple[int, int], int]) -> RadicalSum:
    """The exact value of index on a graph whose pairs are this multiset."""
    exact = TERMS[index].exact
    # summed from the first term: each addition builds a RadicalSum, and a
    # crossover row takes two of these sums
    first, *rest = [exact(a, b, times) for (a, b), times in multiset.items()] or [RadicalSum.zero()]
    return sum(rest, first)


class EdgeSplit(NamedTuple):
    edge: tuple[int, int]
    n_u: int
    n_v: int


def edge_splits(g: Graph) -> tuple[EdgeSplit, ...]:
    """Closer-vertex counts (n_u, n_v) for every edge, in edge order, from
    one split pass (split_pass)."""
    return split_pass(g.n, g.edges)


def split_pass(n: int, edges: Sequence[tuple[int, int]]) -> tuple[EdgeSplit, ...]:
    """Closer-vertex counts (n_u, n_v) for every edge of the connected graph
    on vertices 0..n-1 with these edges, in the order given.

    One bit-parallel pass runs all n breadth-first searches together:
    ball[u] is the bitmask of the vertices within distance k of u, and ORing
    in the balls of u's neighbours takes it to radius k + 1. Across an edge
    uv distances differ by at most one, so a vertex closer to u lies in
    ball[u] but not in ball[v] at exactly one radius k, and no other vertex
    ever does. n_u is thus the sum over the rounds of

        popcount(ball[u] & ~ball[v]) = popcount(ball[u] | ball[v]) - popcount(ball[v]),

    kept as one running total of union sizes per edge and one of ball sizes
    per vertex until every ball is full.

    Pendant trees are peeled off first. A stack removes degree-1 vertices
    until none is left or one vertex remains; removing leaf x from its
    neighbour p adds size[x] (x plus what was peeled onto x) to size[p].
    The edge xp is a bridge, so every vertex on x's side is closer to x and
    every other vertex closer to p: its split is (size[x], n - size[x]).
    The rounds then run on the 2-core that remains, where core vertex c
    starts with a block of size[c] bits in place of one bit. That is exact:
    every path from a core vertex u to a vertex w peeled onto c passes
    through c, so d(u, w) = d(u, c) + d(c, w), w is closer to u than to v
    exactly when c is, and shortest paths between core vertices stay in the
    core. A tree's core has no edge and runs no round; a graph without a
    leaf runs the rounds with one-bit blocks.

    Cost: O(n + m) for the peel, plus O(m_core * diameter_core) operations
    on n-bit masks, with 2 n_core masks in memory.
    """
    # deg[v] counts v's unpeeled edges and incident[v] XORs their indices,
    # so a leaf's one remaining edge is incident[x]; peeled vertices end at 0
    deg = [0] * n
    incident = [0] * n
    for i, (u, v) in enumerate(edges):
        deg[u] += 1
        deg[v] += 1
        incident[u] ^= i
        incident[v] ^= i
    size = [1] * n
    split: list = [None] * len(edges)
    leaves = [v for v in range(n) if deg[v] == 1]
    left = n
    while leaves and left > 1:
        x = leaves.pop()
        i = incident[x]
        u, v = edges[i]
        p = u ^ v ^ x
        s = size[x]
        split[i] = (s, n - s) if x == u else (n - s, s)
        size[p] += s
        deg[x] = 0
        incident[p] ^= i
        deg[p] -= 1
        if deg[p] == 1:
            leaves.append(p)
        left -= 1

    core_edges = [i for i, s in enumerate(split) if s is None]
    if core_edges:
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i in core_edges:
            u, v = edges[i]
            nbrs[u].append(v)
            nbrs[v].append(u)
        # Balls are stored by position in descending-degree order. The
        # vertices with a j-th neighbour are then a prefix of the positions,
        # and a round ORs in column j (their neighbours' positions) with one
        # map.
        order = sorted((v for v in range(n) if deg[v]), key=deg.__getitem__, reverse=True)
        pos = [0] * n
        ball = []
        offset = 0
        for k, v in enumerate(order):
            pos[v] = k
            ball.append(((1 << size[v]) - 1) << offset)
            offset += size[v]
        rows = [[pos[w] for w in nbrs[v]] for v in order]
        columns = []
        k = len(order)
        for j in range(len(rows[0])):
            while len(rows[k - 1]) <= j:
                k -= 1
            columns.append([r[j] for r in rows[:k]])
        eu = [pos[edges[i][0]] for i in core_edges]
        ev = [pos[edges[i][1]] for i in core_edges]

        bit_count = int.bit_count
        union_total = [0] * len(core_edges)
        size_total = [0] * len(order)
        while True:
            sizes = list(map(bit_count, ball))
            if sum(sizes) == len(order) * n:
                break
            size_total = list(map(add, size_total, sizes))
            get = ball.__getitem__
            unions = map(or_, map(get, eu), map(get, ev))
            union_total = list(map(add, union_total, map(bit_count, unions)))
            grown = ball[:]
            for col in columns:
                grown[:len(col)] = map(or_, grown, map(get, col))
            ball = grown
        for i, t, a, b in zip(core_edges, union_total, eu, ev):
            split[i] = (t - size_total[b], t - size_total[a])
    return tuple(EdgeSplit(e, *s) for e, s in zip(edges, split))


def split_term_bounds(
    n: int, index: str, sense: str, bipartite: bool
) -> dict[tuple[int, int], float]:
    """Bounds on one edge's term of the split index (gg or ngg) in a
    connected graph on n vertices, bipartite if so flagged, by the floors
    (a0, b0) of the edge's split: an upper bound for sense "max", a lower
    one for "min", for every a0, b0 >= 1 with a0 + b0 <= n.

    The floors of an edge uv are a0 = popcount(adj[u] & ~adj[v]) =
    1 + |N(u) minus N[v]| (the mask keeps v, which stands for u) and b0
    likewise: every neighbour of u that is neither v nor adjacent to v is
    closer to u, so n_u >= a0 and n_v >= b0.
    No vertex counts for both sides, so n_u + n_v <= n, and in a bipartite
    graph no vertex is equidistant from u and v, so n_u + n_v = n. Every
    split that fits has n_u = x for some x in [a0, n - b0].

    With g(a, b) the GG term, g(a, b)**2 = 1 - (1 - 1/a)(1 - 1/b) <= 1, and g
    does not increase in a while b >= 2, nor in b while a >= 2. So:
      * max GG: g(a0, b0) when both floors are at least 2, else 1;
      * min GG: if a0 >= 2, g(x, n_v) >= g(x, n - x) =
        sqrt((n - 2)/(x(n - x))), and the case b0 >= 2 gives the same
        bound. When a0 = b0 = 1, N[u] = N[v] (closed twins), every other
        vertex is equidistant, the term is g(1, 1) = 0 and so is the bound;
      * max NGG: 1/sqrt(a0 b0), and in a bipartite graph the term is
        1/sqrt(x(n - x)), largest at an end of x's interval;
      * min NGG: n_u n_v <= x(n - x), since n_v <= n - x.
    x(n - x) is largest at the x of the interval nearest n/2. Apart from the
    constants 1 and 0, each entry is the index's term (TERMS) at one extreme
    split: (a0, b0), (x, n - x) or an end of x's interval. Rounding keeps
    the order of exact values, so an entry is the extreme of the float terms
    over the splits that fit, within 2u of the exact bound (see BOUND_RTOL).
    """
    if index not in TERMS or not TERMS[index].splits or sense not in ("min", "max"):
        raise ValueError(f"no split term bounds for {sense} {index}")
    term = TERMS[index].value

    def bound(a: int, b: int) -> float:
        if sense == "min":
            x = min(max(n // 2, a), n - b)  # the x in [a, n - b] nearest n/2
            return 0.0 if index == "gg" and a == b == 1 else term(x, n - x)
        if index == "ngg" and bipartite:
            return max(term(a, n - a), term(n - b, b))
        return 1.0 if index == "gg" and min(a, b) == 1 else term(a, b)

    return {(a, b): bound(a, b) for a in range(1, n) for b in range(1, n - a + 1)}


def index_pairs(index: str, g: Graph) -> Sequence[tuple]:
    """g's pairs for index, one (edge, a, b) per edge in edge order: its
    edge splits, or (edge, d(u), d(v)), as the index's row says."""
    if TERMS[index].splits:
        return edge_splits(g)
    deg = g.degrees
    return [(e, deg[e[0]], deg[e[1]]) for e in g.edges]


def gg_index(g: Graph) -> float:
    return term_sum("gg", edge_splits(g))


def ngg_index(g: Graph) -> float:
    return term_sum("ngg", edge_splits(g))


def abc_index(g: Graph) -> float:
    # term_sum over index_pairs, with no pair list built: the same terms in
    # the same order, so the same bits
    value, deg = TERMS["abc"].value, g.degrees
    return math.fsum(value(deg[u], deg[v]) for u, v in g.edges)


# The index names and their float values. cli and extremal bind this dict
# itself, so replacing an entry (as bench/spans.py does) reaches every caller.
INDEX_FNS = {"gg": gg_index, "ngg": ngg_index, "abc": abc_index}
