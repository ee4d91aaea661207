"""Exhaustive extremal scans over small-graph classes, plus closed-form checks.

find_extremal is a plain fold over a graph stream: track the best objective
value, keep every candidate whose float value may equal it exactly
(indices.float_tie, a window derived from the float error of the sums), then
re-compare the surviving candidates with exact radical arithmetic so that a
genuine tie (two graphs whose index values coincide as algebraic numbers) is
distinguished from float noise. verify runs that fold for every check of a
claim in one pass over each shard's classes, computing each class's value
once per index the checks use, and merges the shards' fold states: a merge
offers one fold's window to the other and adds the counts, and the result is
that of one fold over both streams. Witnesses are reported as graph6 strings
of canonical forms, so they are directly comparable across runs and
platforms.

The fold holds each candidate in its stream's own form and keys none of
them while the stream runs. When the result is taken it keys the window's
candidates once each, with the stream's key function, and a window of
several keys is re-ranked exactly from one candidate per key, from its own
splits, with the stream's split function. enumeration._classes gives a
shard's classes as a stream of (n, candidate) together with the candidate's
key and split functions, so only enumeration knows how a class is held: a
walk class is its walk node, keyed from the canonical search the walk
already holds, a tree its parent links. The splits take their float and
exact values from the index's row of indices.TERMS, the terms the index
functions use. math.fsum rounds the exact sum of the terms, so the floats
are the same bits in any labeling, and the fold builds no Graph and decodes
no key. A walk class also comes with floors on its splits, and a class
whose bound from them cannot reach any fold of its order is counted without
its split pass (_fold_shard). Only the conjecture-1 probe decodes keys, to
test its exact witnesses (is_almost_regular).

CLAIMS is the table of the claims `ggindex verify` checks: for each, the
class to scan and the predicted witnesses and values, or a closed-form row
function. The predicted witnesses and values are family specs looked up in
families.FAMILIES, built with their constructors and valued with their
closed forms; crossover_scan takes each order's C' and C'' split multisets
from the same table once, and both the float columns and the exact
comparison from them. verify runs any claim and produces the
VerificationReport that the CLI serializes.
"""

from __future__ import annotations

from functools import cmp_to_key, partial
from math import fsum
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .enumeration import Constraints, _classes, _map_shards, check_bound
from .families import (
    FAMILIES,
    FamilyError,
    FamilySpec,
    almost_dendrimer,
    construct,
    cycle,
    ngg_closed,
    ngg_path_closed,
    path,
    path_ngg_limit,
    star,
)
from .graphs import Graph, canonical_form, from_graph6
from .indices import (
    BOUND_RTOL,
    INDEX_FNS as _FLOAT_FN,
    TIE_RTOL,
    exact_sum,
    float_tie,
    gg_index,
    index_pairs,
    multiset_exact,
    multiset_value,
    split_term_bounds,
    term_sum,
)
from .radicals import RadicalSum

EVIDENCE_CAVEAT = (
    "exhaustive only at the orders listed; evidence for the large-n claim, not proof"
)


class ExtremalError(ValueError):
    """Raised for empty streams and malformed objectives."""


class _ObjectiveFields(NamedTuple):
    sense: str
    index: str


class Objective(_ObjectiveFields):
    """What a scan looks for: the min or max of one index. A NamedTuple
    whose every construction, _make and _replace included, is validated."""

    __slots__ = ()

    def __new__(cls, sense: str, index: str) -> Objective:
        if sense not in ("min", "max"):
            raise ExtremalError(f"objective sense must be min or max, got {sense!r}")
        if index not in _FLOAT_FN:
            names = ", ".join(_FLOAT_FN)
            raise ExtremalError(f"objective index must be one of {names}, got {index!r}")
        return super().__new__(cls, sense, index)

    @classmethod
    def _make(cls, iterable) -> Objective:
        return cls(*iterable)


def exact_index_value(g: Graph, index: str) -> RadicalSum:
    """The index value as an exact sum of radicals."""
    if index not in _FLOAT_FN:
        raise ExtremalError(f"unknown index {index!r}")
    return exact_sum(index, index_pairs(index, g))


class ExtremalResult(NamedTuple):
    objective: Objective
    value: float
    witnesses: tuple[str, ...]
    exact_witnesses: tuple[str, ...]
    total_classes: int


class _Extremum:
    """The fold behind find_extremal for one objective: the running best
    value, the (value, candidate) offers that float_tie it, the class count,
    and how many of those classes were skipped on a bound (skip). A
    candidate stays in its stream's own form until the result, which keys
    each one left in the window with key_of (canonical_form when None).
    Isomorphic copies therefore each hold a place in the window until then
    and share one key in the result. pairs_of gives a candidate's pairs
    for the objective's index, one (edge, a, b) per edge, for the exact
    re-rank (a Graph's, indices.index_pairs, when None)."""

    def __init__(
        self,
        objective: Objective,
        key_of: Optional[Callable] = None,
        pairs_of: Optional[Callable] = None,
    ) -> None:
        self.objective = objective
        self.want_min = objective.sense == "min"
        self.key_of = key_of or canonical_form
        self.pairs_of = pairs_of or partial(index_pairs, objective.index)
        self.best: Optional[float] = None
        self.window: list[tuple[float, Any]] = []
        self.total = 0
        self.skipped = 0

    def offer(self, v: float, candidate: Any) -> None:
        self.total += 1
        best = self.best
        if best is None or (v < best if self.want_min else v > best):
            best = self.best = v
            self.window = [pair for pair in self.window if float_tie(pair[0], best)]
        if float_tie(v, best):
            self.window.append((v, candidate))

    def out_of_reach(self, bound: float) -> bool:
        """Whether a class whose value the float bound bounds (from above for
        max, from below for min) cannot enter the window or better the best:
        offering it would only count it (see indices.BOUND_RTOL)."""
        best = self.best
        if best is None:
            return False
        gap = bound - best if self.want_min else best - bound
        return gap > (TIE_RTOL + BOUND_RTOL) * (best + bound)

    def skip(self) -> None:
        """Count a class that out_of_reach ruled out, without its value."""
        self.total += 1
        self.skipped += 1

    def merge(self, other: _Extremum) -> None:
        """Fold in a fold of the same objective over another part of the
        stream: other's window is offered again and the counts add. An offer
        other pruned cannot tie the merged best (see indices.TIE_RTOL)."""
        total = self.total + other.total
        for v, candidate in other.window:
            self.offer(v, candidate)
        self.total = total
        self.skipped += other.skipped

    def result(self) -> ExtremalResult:
        """Key the window and re-rank it exactly once the stream is
        exhausted, each key from the pairs of one of its candidates."""
        if self.best is None:
            raise ExtremalError("cannot take an extremum of an empty graph stream")
        keyed = {self.key_of(candidate): candidate for _, candidate in self.window}
        witnesses = tuple(sorted(keyed))
        if len(witnesses) == 1:
            exact_witnesses = witnesses
        else:
            exact = {k: exact_sum(self.objective.index, self.pairs_of(keyed[k])) for k in witnesses}
            pick = min if self.want_min else max
            champion = pick(exact.values(), key=cmp_to_key(RadicalSum.compare))
            exact_witnesses = tuple(k for k, val in exact.items() if val == champion)
        return ExtremalResult(self.objective, self.best, witnesses, exact_witnesses, self.total)


def find_extremal(stream: Iterable[Graph], objective: Objective) -> ExtremalResult:
    """Scan a stream for the extremal index value with exact tie handling.

    Candidates that float_tie the running best are retained; once the stream
    is exhausted they are re-ranked with exact arithmetic and the
    exactly-extremal subset is reported separately. The witness sets depend
    only on the set of graphs in the stream, not on their order. Every tying
    offer, isomorphic copies included, is held until the window is keyed.
    """
    fn = _FLOAT_FN[objective.index]
    fold = _Extremum(objective)
    for g in stream:
        fold.offer(fn(g), g)
    return fold.result()


# ------------------------------------------------------------------ reports ----

class CheckRow(NamedTuple):
    n: int
    passed: bool
    label: str
    value: float
    expected: tuple[str, ...]
    witnesses: tuple[str, ...]
    exact_witnesses: tuple[str, ...]
    classes: int
    note: str = ""


class VerificationReport(NamedTuple):
    claim: str
    rows: tuple[CheckRow | CrossoverRow | AsymptoticRow, ...]
    passed: bool
    caveat: str = ""


def _min_bipartite_families(n: int) -> tuple[FamilySpec, ...]:
    """The families predicted to minimize NGG over bipartite graphs of order n."""
    if n < 4:
        raise ExtremalError(f"the minimum-bipartite table starts at n = 4, got {n}")
    if n < 8:
        codes = ("P",)
    elif n % 2 == 0:
        codes = ("C",)
    elif n < 15:
        codes = ("CP",)
    elif n == 15:
        codes = ("CP", "CH")
    else:
        codes = ("CH",)
    return tuple(FamilySpec(code, (n,)) for code in codes)


def _balanced_bipartite(n: int) -> FamilySpec:
    """K_{floor(n/2), ceil(n/2)}: the predicted maximizer of NGG over bipartite graphs."""
    return FamilySpec("KB", (n // 2, n - n // 2))


def min_bipartite_expected(n: int) -> list[Graph]:
    """Predicted minimizers of NGG over connected bipartite graphs.

    Path below 8, cycle for even n, pendant-cycle for odd 9..15, hooked
    cycle for odd 17 and up. At n = 15 the two odd candidates have exactly
    equal value (both 8/sqrt(14)), so both are expected and uniqueness is
    deliberately not claimed there.
    """
    return [construct(spec) for spec in _min_bipartite_families(n)]


def min_bipartite_closed(n: int) -> float:
    """Closed form of the predicted minimum NGG over bipartite graphs."""
    return ngg_closed(_min_bipartite_families(n)[0])


# ---------------------------------------------------------- closed-form scans ----

class CrossoverRow(NamedTuple):
    n: int
    k: int
    ngg_cycle_pendant: float
    ngg_cycle_hook: float
    comparison: str


def crossover_scan(n_values: Iterable[int]) -> list[CrossoverRow]:
    """Compare the two odd-order minimum candidates with exact arithmetic.

    Each row takes the C' and C'' split multisets (families.FAMILIES) once
    and both columns from them: the floats are the closed forms, and the
    comparison column is decided by exact radical comparison, so the single
    equality (k = 7, n = 15) is reported as equal rather than as a small
    float difference.
    """
    rows = []
    for n in n_values:
        try:
            pendant, hook = (FAMILIES[code].splits(n) for code in ("CP", "CH"))
        except FamilyError:
            raise ExtremalError(f"crossover_scan is defined for odd n >= 5, got {n}") from None
        sign = multiset_exact("ngg", pendant).compare(multiset_exact("ngg", hook))
        comparison = "C' < C''" if sign < 0 else ("equal" if sign == 0 else "C'' < C'")
        pendant_value, hook_value = multiset_value("ngg", pendant), multiset_value("ngg", hook)
        rows.append(CrossoverRow(n, (n - 1) // 2, pendant_value, hook_value, comparison))
    return rows


def crossover_pattern_ok(rows: Sequence[CrossoverRow]) -> bool:
    """True when every row matches: below at k <= 6, equal at k = 7, above after."""
    for row in rows:
        want = "C' < C''" if row.k <= 6 else ("equal" if row.k == 7 else "C'' < C'")
        if row.comparison != want:
            return False
    return True


def _odd_crossover_scan(n_values: Iterable[int]) -> list[CrossoverRow]:
    """crossover_scan over the odd orders >= 5 among n_values."""
    given = list(n_values)
    odd = [n for n in given if n % 2 == 1 and n >= 5]
    if not odd:
        raise ExtremalError(f"crossover wants an odd order >= 5, got {given}")
    return crossover_scan(odd)


class AsymptoticRow(NamedTuple):
    n: int
    ngg_path: float
    residual: float


def asymptotic_check(n_values: Iterable[int]) -> list[AsymptoticRow]:
    """Path NGG against its limit pi; residuals should shrink toward zero."""
    limit = path_ngg_limit()
    rows = []
    for n in n_values:
        value = ngg_path_closed(n)
        rows.append(AsymptoticRow(n, value, limit - value))
    return rows


def residuals_positive_decreasing(rows: Sequence[AsymptoticRow]) -> bool:
    if any(row.residual <= 0 for row in rows):
        return False
    return all(a.residual > b.residual for a, b in zip(rows, rows[1:]))


# ------------------------------------------------------------------- probes ----

def is_almost_regular(g: Graph, k: int) -> bool:
    """k-regular, or k-regular except for a single vertex of degree k - 1."""
    degs = sorted(g.degrees)
    if all(d == k for d in degs):
        return True
    return len(degs) >= 2 and degs[0] == k - 1 and all(d == k for d in degs[1:])


# ------------------------------------------------------------- claim table ----

class Check(NamedTuple):
    """One extremal scan per order: the objective and what it should find.

    expected(n, max_degree) gives the predicted exact witnesses. A check with
    accept instead predicts no witness set: every exact witness g must satisfy
    accept(g, max_degree). value(n), when given, is the predicted extreme value.
    """

    objective: Objective
    expected: Callable[[int, int], Sequence[Graph]] = lambda n, d: ()
    accept: Optional[Callable[[Graph, int], bool]] = None
    value: Optional[Callable[[int], float]] = None
    note: Callable[[int], str] = lambda n: ""


class Claim(NamedTuple):
    """One verify claim: an exhaustive scan or a closed-form row function.

    An exhaustive claim enumerates graph_class(n, max_degree) at each order
    and runs every check on it. A theorem row passes when its exact witnesses
    equal the expected ones, a unique expected witness is also alone in the
    tie window, and the value matches; a probe row only compares witnesses
    and is reported as consistent or counterexample found, with the caveat.
    A closed-form claim maps the orders to rows with scan and passes when
    pattern holds on them. least(max_degree) is the smallest order an
    exhaustive claim speaks of.
    """

    orders: tuple[int, ...]
    graph_class: Optional[Callable[[int, int], Constraints]] = None
    least: Callable[[int], int] = lambda d: 1
    checks: tuple[Check, ...] = ()
    theorem: bool = True
    scan: Optional[Callable[[Iterable[int]], list]] = None
    pattern: Optional[Callable[[Sequence], bool]] = None


# The verify claims in the CLI's order. The rows hold no reference to the
# enumeration, extremal or index functions: verify, _fold_shard and the row
# lambdas look them up as module globals at call time, so wrappers installed
# on those globals (bench/spans.py) see every call.
CLAIMS: dict[str, Claim] = {
    # max NGG over connected bipartite graphs is the balanced complete
    # bipartite graph, uniquely, with value sqrt(floor(n/2) * ceil(n/2))
    "max-bipartite": Claim(
        orders=tuple(range(4, 11)),
        graph_class=lambda n, d: Constraints(n, bipartite_only=True),
        least=lambda d: 2,
        checks=(
            Check(
                Objective("max", "ngg"),
                expected=lambda n, d: [construct(_balanced_bipartite(n))],
                value=lambda n: ngg_closed(_balanced_bipartite(n)),
            ),
        ),
    ),
    "min-bipartite": Claim(
        orders=tuple(range(4, 11)),
        graph_class=lambda n, d: Constraints(n, bipartite_only=True),
        least=lambda d: 4,
        checks=(
            Check(
                Objective("min", "ngg"),
                expected=lambda n, d: min_bipartite_expected(n),
                value=min_bipartite_closed,
                note=lambda n: "exact two-way tie expected" if n == 15 else "",
            ),
        ),
    ),
    # min GG over trees is the path; max GG over trees is the star
    "trees": Claim(
        orders=tuple(range(4, 13)),
        graph_class=lambda n, d: Constraints(n, cyclomatic=0),
        least=lambda d: 2,
        checks=(
            Check(
                Objective("min", "gg"),
                expected=lambda n, d: [path(n)],
                value=lambda n: gg_index(path(n)),
                note=lambda n: "min over trees",
            ),
            Check(
                Objective("max", "gg"),
                expected=lambda n, d: [star(n)],
                value=lambda n: gg_index(star(n)),
                note=lambda n: "max over trees",
            ),
        ),
    ),
    "crossover": Claim(
        orders=tuple(range(5, 100)),
        scan=_odd_crossover_scan,
        pattern=crossover_pattern_ok,
    ),
    "asymptote": Claim(
        orders=(100, 1000, 10000, 100000, 1000000),
        scan=asymptotic_check,
        pattern=residuals_positive_decreasing,
    ),
    # GG maximizers among connected graphs with degree bound D are D-regular
    # or D-regular but for one vertex of degree D - 1; no graph on n <= D
    # vertices has a vertex of degree D
    "conjecture1": Claim(
        orders=tuple(range(5, 9)),
        graph_class=lambda n, d: Constraints(n, max_degree=d),
        least=lambda d: d + 1,
        checks=(Check(Objective("max", "gg"), accept=is_almost_regular),),
        theorem=False,
    ),
    # the GG minimizer in the same class is the cycle
    "conjecture2": Claim(
        orders=tuple(range(6, 11)),
        graph_class=lambda n, d: Constraints(n, max_degree=d),
        least=lambda d: 3,
        checks=(Check(Objective("min", "gg"), expected=lambda n, d: [cycle(n)]),),
        theorem=False,
    ),
    # the GG maximizer among degree-bounded trees is the greedy breadth-first
    # tree built by almost_dendrimer
    "conjecture3": Claim(
        orders=tuple(range(6, 13)),
        graph_class=lambda n, d: Constraints(n, max_degree=d, cyclomatic=0),
        least=lambda d: 2,
        checks=(
            Check(Objective("max", "gg"), expected=lambda n, d: [almost_dendrimer(n, d)]),
        ),
        theorem=False,
    ),
}


def _check_row(
    n: int, max_degree: int, result: ExtremalResult, check: Check, theorem: bool
) -> CheckRow:
    if check.accept is not None:
        expected: tuple[str, ...] = ()
        ok = all(check.accept(from_graph6(key), max_degree) for key in result.exact_witnesses)
    else:
        expected = tuple(sorted(canonical_form(g) for g in check.expected(n, max_degree)))
        ok = result.exact_witnesses == expected
    if theorem:
        if len(expected) == 1:
            ok = ok and result.witnesses == expected
        if check.value is not None:
            ok = ok and float_tie(result.value, check.value(n))
        label = "pass" if ok else "fail"
    else:
        label = "consistent" if ok else "counterexample found"
    return CheckRow(
        n=n,
        passed=ok,
        label=label,
        value=result.value,
        expected=expected,
        witnesses=result.witnesses,
        exact_witnesses=result.exact_witnesses,
        classes=result.total_classes,
        note=check.note(n),
    )


def _fold_shard(
    claim: str, cons: Constraints, orders: frozenset[int], res: int, mod: int
) -> dict[int, list[_Extremum]]:
    """The folds of claim's checks at each order in orders, in the order of
    its checks, over shard res of mod of cons's classes (enumeration._classes).
    Each class is valued once per index the checks use.

    A walk class is bounded before it is split. floors_of gives floors on
    both sides of each edge's split, and each fold's table
    (indices.split_term_bounds) turns them into a bound on the edge's term:
    every split that fits the floors has a term on the table's side of it,
    since the term is monotone in each side and n_u + n_v <= n. The
    math.fsum of those bounds bounds the class's value from the side the
    fold's sense faces. When every fold of the order has a best and none can
    be reached from its bound (_Extremum.out_of_reach), each fold counts the
    class (skip), and neither the split pass nor the sums run. By the
    derivation at indices.BOUND_RTOL such a class's float value is neither
    better than the running best nor float_tie to it, so offering it would
    only have counted it: a skip leaves the fold as the offer would, against
    a shard's own running best as against any other, and merged results do
    not change. Trees have no floors_of and are always split."""
    checks = CLAIMS[claim].checks
    stream, key_of, splits_of, floors_of = _classes(cons, orders, res, mod)
    folds = {n: [_Extremum(c.objective, key_of, splits_of) for c in checks] for n in orders}
    indices = tuple(dict.fromkeys(check.objective.index for check in checks))
    if floors_of is not None:
        tables = {
            n: [
                split_term_bounds(n, c.objective.index, c.objective.sense, cons.bipartite_only)
                for c in checks
            ]
            for n in orders
        }
    for n, candidate in stream:
        if floors_of is not None:
            floors = floors_of(candidate)
            if all(
                fold.out_of_reach(fsum(map(table.__getitem__, floors)))
                for fold, table in zip(folds[n], tables[n])
            ):
                for fold in folds[n]:
                    fold.skip()
                continue
        splits = splits_of(candidate)
        values = {index: term_sum(index, splits) for index in indices}
        for fold in folds[n]:
            fold.offer(values[fold.objective.index], candidate)
    return folds


def verify(
    claim: str,
    n_values: Iterable[int],
    *,
    max_degree: int = 3,
    max_n: Optional[int] = None,
    workers: int = 1,
) -> VerificationReport:
    """Check one claim of CLAIMS at the given orders.

    max_degree is the degree bound of the conjecture probes; the theorem
    claims ignore it. max_n caps the orders as in check_bound, and an order
    below the claim's least one is refused with them, before any class is
    generated, and an empty order list is refused. Every order comes from
    one enumeration (enumeration._classes): one walk, or for the tree claims
    (trees, conjecture3) the level-sequence generator, which runs no
    canonical search; no class is built as a Graph. workers cuts it into
    shards (_map_shards); each shard runs every check's fold over its own
    classes (_fold_shard) and returns only the fold states, which are merged
    here. The folds key only the classes left in their windows, with the
    stream's key function. A walk class whose value, bounded from floors on
    its edges' splits, cannot reach the running best of any fold of its
    order is counted without its split pass (_fold_shard): the floors bound
    each side of each split, the term is monotone in each side, the min-GG
    bound is 0 only on closed twins (indices.split_term_bounds), and the
    float slack (indices.BOUND_RTOL) makes such a skip exactly an offer that
    only counts the class, so the report is the same bytes with or without
    it, at any worker count. Probe outcomes are evidence at the listed
    orders only.
    """
    spec = CLAIMS.get(claim)
    if spec is None:
        raise ExtremalError(f"unknown claim {claim!r}; known claims: {', '.join(CLAIMS)}")
    orders = list(n_values)
    if not orders:
        raise ExtremalError(f"claim {claim} needs at least one order")
    if spec.scan is not None:
        rows = tuple(spec.scan(orders))
        return VerificationReport(claim=claim, rows=rows, passed=spec.pattern(rows))
    if not spec.theorem and max_degree < 2:
        raise ExtremalError("a degree bound below 2 leaves nothing to scan")
    # one walk of the claim's class, built once at the largest order, covers
    # every order; each order's cap and place in the claim's domain are
    # checked, in the order given, before it starts. A repeated order
    # repeats its rows
    walk = spec.graph_class(max(orders), max_degree)
    least = spec.least(max_degree)
    at_bound = "" if spec.theorem else f" at max degree {max_degree}"
    for n in orders:
        check_bound(spec.graph_class(n, max_degree), max_n)
        if n < least:
            raise ExtremalError(f"claim {claim} starts at n = {least}{at_bound}, got n = {n}")
    folds, *others = _map_shards(partial(_fold_shard, claim), walk, frozenset(orders), workers)
    for shard in others:
        for n, shard_folds in shard.items():
            for fold, other in zip(folds[n], shard_folds):
                fold.merge(other)
    rows = tuple(
        _check_row(n, max_degree, fold.result(), check, spec.theorem)
        for n in orders
        for check, fold in zip(spec.checks, folds[n])
    )
    return VerificationReport(
        claim=claim,
        rows=rows,
        passed=all(r.passed for r in rows),
        caveat="" if spec.theorem else EVIDENCE_CAVEAT,
    )
