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

Closed forms exist for P, even C, KB, S, CP and CH. A closed form checks its
parameters with the same rule as its constructor. The pendant (CP) and hook
(CH) families exist for odd order only; they are the two candidate
minimizers of NGG among bipartite graphs of odd order, and nothing here
needs an even variant. Their closed forms are written once, as NGG terms
scale/sqrt(q), which give both the float value (ngg_closed) and the exact
one (ngg_closed_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .graphs import Graph, build_graph
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

def ngg_path_closed(n: int) -> float:
    """NGG of the path: sum over 1 <= i <= n-1 of 1/sqrt(i(n-i))."""
    _path_rule(n)
    return math.fsum(1.0 / math.sqrt(i * (n - i)) for i in range(1, n))


def path_ngg_limit() -> float:
    """Limit of NGG(path) as n grows: the integral of 1/sqrt(x(1-x)) on (0,1)."""
    return math.pi


def _even_cycle_ngg(n: int) -> float:
    _cycle_rule(n)
    if n % 2:
        raise FamilyError("closed-form NGG for cycles covers even n only")
    return 2.0


def _complete_bipartite_ngg(a: int, b: int) -> float:
    _sides_rule(a, b)
    return math.sqrt(a * b)


def _star_ngg(n: int) -> float:
    _star_rule(n)
    return math.sqrt(n - 1)


def _pendant_terms(n: int) -> tuple[tuple[int, int], ...]:
    """C' at n = 2k+1: 1/sqrt(2k) + 2k/sqrt(k(k+1)), as (scale, q) pairs."""
    k = odd_half(n, "cycle_pendant")
    return (1, 2 * k), (2 * k, k * (k + 1))


def _hook_terms(n: int) -> tuple[tuple[int, int], ...]:
    """C'' at n = 2k+1: (2k+2)/sqrt(k(k+1)), as (scale, q) pairs."""
    k = odd_half(n, "cycle_hook")
    return ((2 * k + 2, k * (k + 1)),)


# ------------------------------------------------------------ the table ----

class Family(NamedTuple):
    """One family: its constructor and arity, and its NGG closed form if any.

    A closed form is either closed, a float function of the parameters, or
    terms, the (scale, q) pairs of an NGG written as a sum of scale/sqrt(q).
    """

    build: Callable[..., Graph]
    arity: int = 1
    closed: Optional[Callable[..., float]] = None
    terms: Optional[Callable[..., tuple[tuple[int, int], ...]]] = None


FAMILIES: dict[str, Family] = {
    "P": Family(path, closed=ngg_path_closed),
    "C": Family(cycle, closed=_even_cycle_ngg),
    "K": Family(complete),
    "KB": Family(complete_bipartite, 2, closed=_complete_bipartite_ngg),
    "S": Family(star, closed=_star_ngg),
    "CP": Family(cycle_pendant, terms=_pendant_terms),
    "CH": Family(cycle_hook, terms=_hook_terms),
    "TH": Family(theta, 3),
    "AD": Family(almost_dendrimer, 2),
}


@dataclass(frozen=True)
class FamilySpec:
    code: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.code not in FAMILIES:
            raise FamilyError(f"unknown family code {self.code!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        want = FAMILIES[self.code].arity
        if len(self.params) != want:
            raise FamilyError(
                f"family {self.code} takes {want} parameter(s), got {len(self.params)}"
            )

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


def ngg_closed(spec: FamilySpec) -> float:
    """Closed-form NGG of the families that have one: P, even C, KB, S, CP, CH.

    A sum of terms is taken left to right, scale / math.sqrt(q) each.
    """
    family = FAMILIES[spec.code]
    if family.terms is not None:
        return sum(scale / math.sqrt(q) for scale, q in family.terms(*spec.params))
    if family.closed is None:
        raise FamilyError(f"no closed-form NGG for family {spec.code}")
    return family.closed(*spec.params)


def ngg_closed_exact(spec: FamilySpec) -> RadicalSum:
    """Exact closed-form NGG of the families written as NGG terms: CP and CH."""
    terms = FAMILIES[spec.code].terms
    if terms is None:
        raise FamilyError(f"no exact closed-form NGG for family {spec.code}")
    first, *rest = (RadicalSum.sqrt_rational(1, q, scale) for scale, q in terms(*spec.params))
    return sum(rest, first)
