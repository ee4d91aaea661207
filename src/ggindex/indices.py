"""Distance-based and degree-based bond-additive indices.

For an edge uv, n_u counts the vertices strictly closer to u than to v
(u itself included), and symmetrically for n_v; vertices equidistant from
both endpoints count for neither side. The three indices are edge sums:

    GG  = sum sqrt((n_u + n_v - 2) / (n_u * n_v))
    NGG = sum 1 / sqrt(n_u * n_v)
    ABC = sum sqrt((d(u) + d(v) - 2) / (d(u) * d(v)))

Sums run over edges in their stored order (smaller endpoint first, then
lexicographic) and use math.fsum, so results are exactly rounded and do not
depend on labeling or edge order.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .graphs import Graph, all_pairs_distances, is_bipartite

DEFAULT_RELATION_RTOL = 1e-12


class EdgeSplit(NamedTuple):
    edge: tuple[int, int]
    n_u: int
    n_v: int


class IndexValues(NamedTuple):
    gg: float
    ngg: float
    abc: float


def edge_splits(g: Graph) -> tuple[EdgeSplit, ...]:
    """Closer-vertex counts (n_u, n_v) for every edge, in edge order."""
    dist = all_pairs_distances(g)
    lt = operator.lt
    gt = operator.gt
    out = []
    for u, v in g.edges:
        du, dv = dist[u], dist[v]
        out.append(EdgeSplit((u, v), sum(map(lt, du, dv)), sum(map(gt, du, dv))))
    return tuple(out)


def gg_sum(splits) -> float:
    return math.fsum(math.sqrt((nu + nv - 2) / (nu * nv)) for _, nu, nv in splits)


def ngg_sum(splits) -> float:
    return math.fsum(1.0 / math.sqrt(nu * nv) for _, nu, nv in splits)


def gg_index(g: Graph) -> float:
    return gg_sum(edge_splits(g))


def ngg_index(g: Graph) -> float:
    return ngg_sum(edge_splits(g))


def abc_index(g: Graph) -> float:
    deg = g.degrees
    return math.fsum(
        math.sqrt((deg[u] + deg[v] - 2) / (deg[u] * deg[v])) for u, v in g.edges
    )


# The index names and their float values. cli and extremal bind this dict
# itself, so replacing an entry (as bench/spans.py does) reaches every caller.
INDEX_FNS = {"gg": gg_index, "ngg": ngg_index, "abc": abc_index}

# The indices that are edge sums over splits; a caller holding a graph's
# splits takes these values from them without another distance pass.
SPLIT_SUMS = {"gg": gg_sum, "ngg": ngg_sum}


def all_indices(g: Graph) -> IndexValues:
    """gg, ngg and abc computed off a single distance pass."""
    splits = edge_splits(g)
    return IndexValues(gg_sum(splits), ngg_sum(splits), abc_index(g))


def check_bipartite_relation(g: Graph, rel_tol: float = DEFAULT_RELATION_RTOL) -> bool:
    """Bipartite input: does GG equal NGG * sqrt(n-2) within rel_tol?

    For non-bipartite input the relation has no reason to hold, and the check
    instead reports whether the structural cause is present: True when some
    edge has n_u + n_v < n, i.e. some vertex is equidistant from two adjacent
    vertices, which can only happen on an odd closed walk.
    """
    splits = edge_splits(g)
    if is_bipartite(g):
        gg, ngg = gg_sum(splits), ngg_sum(splits)
        return abs(gg - ngg * math.sqrt(g.n - 2)) <= rel_tol * abs(gg) if gg else True
    return any(nu + nv < g.n for _, nu, nv in splits)
