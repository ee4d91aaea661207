"""Parametric graph family constructors and their closed-form NGG values.

FAMILIES is the list of families: one row per spec code, giving the
constructor, its arity and, where one exists, the NGG closed form. A spec is
written 'CODE:params' (parse_spec, FamilySpec.text):

    P:n      path on n vertices
    C:n      cycle, n >= 3
    K:n      complete graph
    KB:a,b   complete bipartite K_{a,b}
    S:n      star (center 0), n >= 2
    CP:n     C', odd n >= 5: cycle on n-1 vertices plus one pendant vertex
    CH:n     C'', odd n >= 5: even cycle with a two-edge hook, theta(n-3, 2, 2)
    TH:a,b,c theta graph: two hub vertices joined by internally disjoint
             paths of a, b, c edges; a >= b >= c >= 1, at most one path of
             length one, a+b+c >= 5
    AD:n,d   almost dendrimer tree: breadth-first greedy filling where the
             root takes up to d children and every later vertex up to d-1

Closed forms exist for P, even C, KB, S, CP and CH. Each is written once, as
the multiset of the graph's edge splits (Family.splits): its
((n_u, n_v), times) entries, each pair sorted and listed once. The NGG row of
indices.TERMS turns the entries into the float value (ngg_closed) and the
exact one (ngg_closed_exact), so every closed form has both. A closed form
checks its parameters with the same rule as its constructor. The path's
entries pair the splits (i, n - i) and (n - i, i); a term taken twice is
doubled exactly and math.fsum rounds the same exact sum once, so its value
has the bits of ngg_index of the built path. The pendant (CP) and hook (CH)
families exist for odd order only; they are the two candidate minimizers of
NGG among bipartite graphs of odd order, and nothing here needs an even
variant.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .graphs import Graph, build_graph
from .indices import Entries, multiset_exact, multiset_value
from .radicals import RadicalSum


class FamilyError(ValueError):
    """Invalid family parameters."""


# ------------------------------------------------------- parameter rules ----

def _path_rule(n: int) -> None:
    if n < 1:
        raise FamilyError("path needs n >= 1")


def _cycle_rule(n: int) -> None:
    if n < 3:
        raise FamilyError("cycle needs n >= 3")


def _sides_rule(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise FamilyError("complete bipartite graph needs both sides non-empty")


def _star_rule(n: int) -> None:
    if n < 2:
        raise FamilyError("star needs n >= 2")


def odd_half(n: int, name: str) -> int:
    """k = (n - 1) / 2 for the odd orders n >= 5, where C' and C'' exist."""
    if n < 5 or n % 2 == 0:
        raise FamilyError(f"{name} is defined for odd n >= 5")
    return (n - 1) // 2


# ---------------------------------------------------------- constructors ----

def path(n: int) -> Graph:
    _path_rule(n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _cycle_rule(n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyError("complete graph needs n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    _sides_rule(a, b)
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(n: int) -> Graph:
    _star_rule(n)
    return build_graph(n, [(0, i) for i in range(1, n)])


def cycle_pendant(n: int) -> Graph:
    """Even cycle on vertices 0..n-2 plus the pendant vertex n-1 on vertex 0."""
    odd_half(n, "cycle_pendant")
    edges = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    edges.append((0, n - 1))
    return build_graph(n, edges)


def theta(a: int, b: int, c: int) -> Graph:
    """Two hubs joined by internally disjoint paths of a, b, c edges."""
    if not (a >= b >= c >= 1):
        raise FamilyError("theta needs a >= b >= c >= 1")
    if b == 1:
        raise FamilyError("theta allows at most one path of length one")
    if a + b + c < 5:
        raise FamilyError("theta needs a + b + c >= 5")
    # hubs are 0 and 1; internal path vertices are numbered consecutively
    edges = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return build_graph(nxt, edges)


def cycle_hook(n: int) -> Graph:
    """theta(n-3, 2, 2): an even cycle with a hooked two-edge path across it."""
    odd_half(n, "cycle_hook")
    return theta(n - 3, 2, 2)


def almost_dendrimer(n: int, d: int) -> Graph:
    """Greedy breadth-first tree: root takes up to d children, others d-1.

    Vertices are labeled in breadth-first order, so labels coincide with the
    filling order and degrees are non-increasing along the labeling. At most
    one non-pendant vertex ends up short of its full degree.
    """
    if n < 2:
        raise FamilyError("almost_dendrimer needs n >= 2")
    if d < 2:
        raise FamilyError("almost_dendrimer needs d >= 2")
    # the root's children are 1..d; vertex v >= 1 then takes the next d - 1,
    # so vertex u >= 1 hangs from vertex (u - 2) // (d - 1), or from the root
    return build_graph(n, [(max(0, (u - 2) // (d - 1)), u) for u in range(1, n)])


# ----------------------------------------------------------- closed forms ----
# the edge-split multisets (module docstring), as ((a, b), times), a <= b

def _path_splits(n: int) -> Entries:
    """P_n: its edges split (i, n - i) for 1 <= i <= n - 1, so every pair
    with 2i < n comes twice and, at even n, (n/2, n/2) once. A generator:
    the path's sum builds no list of its terms."""
    _path_rule(n)
    return (((i, n - i), 2 if 2 * i < n else 1) for i in range(1, n // 2 + 1))


def _even_cycle_splits(n: int) -> Entries:
    _cycle_rule(n)
    if n % 2:
        raise FamilyError("closed-form NGG for cycles covers even n only")
    return [((n // 2, n // 2), n)]


def _complete_bipartite_splits(a: int, b: int) -> Entries:
    """K_{a,b}: each of its ab edges splits (b, a), its end on the a side
    closer to that end and to the b - 1 other vertices of the b side; the
    entry lists the smaller side first."""
    _sides_rule(a, b)
    return [((min(a, b), max(a, b)), a * b)]


def _star_splits(n: int) -> Entries:
    _star_rule(n)
    return [((1, n - 1), n - 1)]


def _pendant_splits(n: int) -> Entries:
    """C' at n = 2k+1: the pendant edge splits (1, 2k), and each of the 2k
    cycle edges (k, k+1), the pendant vertex on one side."""
    k = odd_half(n, "cycle_pendant")
    return [((1, 2 * k), 1), ((k, k + 1), 2 * k)]


def _hook_splits(n: int) -> Entries:
    """C'' at n = 2k+1: each of its 2k+2 edges splits (k, k+1)."""
    k = odd_half(n, "cycle_hook")
    return [((k, k + 1), 2 * k + 2)]


def ngg_path_closed(n: int) -> float:
    """NGG of the path: the sum over 1 <= i <= n-1 of the NGG term at the
    split (i, n - i), taken pair by pair with the same bits."""
    return multiset_value("ngg", _path_splits(n))


def path_ngg_limit() -> float:
    """Limit of NGG(path) as n grows: the integral of 1/sqrt(x(1-x)) on (0,1)."""
    return math.pi


# ------------------------------------------------------------ the table ----

class Family(NamedTuple):
    """One family: its constructor and arity, and splits, its NGG closed form
    as the edge-split multiset of the graph with these parameters, if any."""

    build: Callable[..., Graph]
    arity: int = 1
    splits: Optional[Callable[..., Entries]] = None


FAMILIES: dict[str, Family] = {
    "P": Family(path, splits=_path_splits),
    "C": Family(cycle, splits=_even_cycle_splits),
    "K": Family(complete),
    "KB": Family(complete_bipartite, 2, splits=_complete_bipartite_splits),
    "S": Family(star, splits=_star_splits),
    "CP": Family(cycle_pendant, splits=_pendant_splits),
    "CH": Family(cycle_hook, splits=_hook_splits),
    "TH": Family(theta, 3),
    "AD": Family(almost_dendrimer, 2),
}


class _FamilySpecFields(NamedTuple):
    code: str
    params: tuple[int, ...]


class FamilySpec(_FamilySpecFields):
    """A family code and its parameters, each made an int. A NamedTuple whose
    every construction, _make and _replace included, is validated."""

    __slots__ = ()

    def __new__(cls, code: str, params: tuple[int, ...]) -> FamilySpec:
        if code not in FAMILIES:
            raise FamilyError(f"unknown family code {code!r}")
        params = tuple(int(p) for p in params)
        want = FAMILIES[code].arity
        if len(params) != want:
            raise FamilyError(f"family {code} takes {want} parameter(s), got {len(params)}")
        return super().__new__(cls, code, params)

    @classmethod
    def _make(cls, iterable) -> FamilySpec:
        return cls(*iterable)

    @property
    def text(self) -> str:
        return f"{self.code}:{','.join(str(p) for p in self.params)}"


def parse_spec(text: str) -> FamilySpec:
    """Parse 'CODE:params', e.g. 'P:10', 'KB:3,4', 'TH:4,2,2'."""
    head, sep, tail = text.strip().partition(":")
    code = head.strip().upper()
    if not sep or code not in FAMILIES:
        known = " ".join(sorted(FAMILIES))
        raise FamilyError(f"cannot parse family spec {text!r} (known codes: {known})")
    try:
        params = tuple(int(p) for p in tail.split(","))
    except ValueError:
        raise FamilyError(f"non-integer parameter in family spec {text!r}") from None
    return FamilySpec(code, params)


def construct(spec: FamilySpec) -> Graph:
    return FAMILIES[spec.code].build(*spec.params)


def _closed_splits(spec: FamilySpec) -> Entries:
    splits = FAMILIES[spec.code].splits
    if splits is None:
        raise FamilyError(f"no closed-form NGG for family {spec.code}")
    return splits(*spec.params)


def ngg_closed(spec: FamilySpec) -> float:
    """Closed-form NGG of the families that have one: P, even C, KB, S, CP, CH."""
    return multiset_value("ngg", _closed_splits(spec))


def ngg_closed_exact(spec: FamilySpec) -> RadicalSum:
    """The exact value of ngg_closed."""
    return multiset_exact("ngg", _closed_splits(spec))
