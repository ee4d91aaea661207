"""End-to-end checks for every extremal claim this package is built to verify.

Each test covers one numbered claim, prints a single PASS/FAIL line (visible
with pytest -s) and enforces the claim's runtime envelope. A failing line
means the library genuinely cannot reproduce the claim; nothing here is
weakened to force green.
"""

import math
import time

import pytest

from ggindex.enumeration import Constraints, enumerate_connected
from ggindex.extremal import (
    asymptotic_check,
    crossover_pattern_ok,
    crossover_scan,
    residuals_positive_decreasing,
    verify,
)
from ggindex.families import (
    complete,
    complete_bipartite,
    cycle,
    ngg_closed,
    parse_spec,
    path,
    star,
)
from ggindex.graphs import canonical_form, to_graph6
from ggindex.indices import edge_splits, gg_index, ngg_index

from oracles import brute_force_classes

# reference 4-decimal NGG values for even paths n = 4..30
PATH_TABLE = {
    4: 1.6547, 6: 1.9349, 8: 2.0997, 10: 2.2114, 12: 2.2934, 14: 2.3570,
    16: 2.4081, 18: 2.4504, 20: 2.4862, 22: 2.5169, 24: 2.5436, 26: 2.5672,
    28: 2.5882, 30: 2.6071,
}


def report(num: int, name: str, ok: bool, t0: float, detail: str = "") -> float:
    elapsed = time.perf_counter() - t0
    tail = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s){tail}")
    return elapsed


def key(g):
    return canonical_form(g).decode("ascii")


def test_criterion_01_path_table():
    t0 = time.perf_counter()
    bad = []
    for n, want in PATH_TABLE.items():
        computed = round(ngg_index(path(n)), 4)
        closed = round(ngg_closed(parse_spec(f"P:{n}")), 4)
        if abs(computed - want) > 1e-4 or abs(closed - want) > 1e-4:
            bad.append((n, computed, closed, want))
    ok = not bad
    elapsed = report(1, "path-table", ok, t0, f"{len(PATH_TABLE)} values, both routes")
    assert ok, f"table mismatches: {bad}"
    assert elapsed < 1.0


def test_criterion_02_bipartite_split_relation():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(2, 10):
        for g in enumerate_connected(Constraints(n, bipartite_only=True)):
            splits = edge_splits(g)
            if any(s.n_u + s.n_v != n for s in splits):
                bad.append(("split", n, to_graph6(g)))
                continue
            gg = math.fsum(
                math.sqrt((s.n_u + s.n_v - 2) / (s.n_u * s.n_v)) for s in splits
            )
            ngg = math.fsum(1.0 / math.sqrt(s.n_u * s.n_v) for s in splits)
            rhs = ngg * math.sqrt(n - 2)
            tol = 1e-12 * abs(gg) if gg else 0.0
            if abs(gg - rhs) > tol:
                bad.append(("relation", n, to_graph6(g)))
            checked += 1
    ok = not bad
    elapsed = report(2, "bipartite-relation", ok, t0, f"{checked} graphs, n <= 9")
    assert ok, f"violations: {bad[:5]}"
    assert elapsed < 120.0


def test_criterion_03_max_bipartite():
    t0 = time.perf_counter()
    rep = verify("max-bipartite", range(4, 11))
    ok = rep.passed
    for row in rep.rows:
        a, b = row.n // 2, row.n - row.n // 2
        ok = ok and row.exact_witnesses == (key(complete_bipartite(a, b)),)
        ok = ok and abs(row.value - math.sqrt(a * b)) <= 1e-9
    elapsed = report(3, "max-bipartite", ok, t0, "n = 4..10, unique balanced biclique")
    assert ok, rep
    assert elapsed < 600.0


def test_criterion_04_min_bipartite():
    t0 = time.perf_counter()
    rep = verify("min-bipartite", range(4, 11))
    ok = rep.passed
    for row in rep.rows:
        # each predicted minimizer is unique at epsilon = 1e-9 in this range
        ok = ok and len(row.witnesses) == 1 and len(row.exact_witnesses) == 1
    elapsed = report(4, "min-bipartite", ok, t0, "n = 4..10, unique predicted witnesses")
    assert ok, rep
    assert elapsed < 600.0


def test_criterion_05_tree_extremes():
    t0 = time.perf_counter()
    rep = verify("trees", range(4, 13))
    ok = rep.passed
    for row in rep.rows:
        want = path(row.n) if row.note == "min over trees" else star(row.n)
        ok = ok and row.exact_witnesses == (key(want),)
    elapsed = report(5, "tree-extremes", ok, t0, "n = 4..12, path min / star max")
    assert ok, rep
    assert elapsed < 60.0


def test_criterion_06_odd_crossover():
    t0 = time.perf_counter()
    rows = crossover_scan(range(5, 100, 2))
    ok = crossover_pattern_ok(rows)
    tie = next(r for r in rows if r.n == 15)
    want = 8 / math.sqrt(14)
    ok = ok and tie.comparison == "equal"
    ok = ok and abs(tie.ngg_cycle_pendant - want) <= 1e-12
    ok = ok and abs(tie.ngg_cycle_hook - want) <= 1e-12
    elapsed = report(6, "odd-crossover", ok, t0, "odd n = 5..99, exact tie at n = 15")
    assert ok, rows
    assert elapsed < 1.0


def test_criterion_07_path_limit_approach():
    t0 = time.perf_counter()
    rows = asymptotic_check([10**k for k in range(2, 7)])
    ok = residuals_positive_decreasing(rows) and rows[-1].residual < 0.01
    elapsed = report(
        7, "path-limit", ok, t0,
        f"pi - ngg positive and shrinking, final residual {rows[-1].residual:.6f}",
    )
    assert ok, rows
    assert elapsed < 10.0


def test_criterion_08_complete_graph_zero():
    t0 = time.perf_counter()
    values = {n: gg_index(complete(n)) for n in range(2, 13)}
    ok = all(v == 0.0 for v in values.values())
    elapsed = report(8, "complete-zero", ok, t0, "gg exactly 0.0 for n = 2..12")
    assert ok, values
    assert elapsed < 1.0


def test_criterion_09_generator_vs_brute_force():
    t0 = time.perf_counter()
    cases = 0
    bad = []
    for n in range(1, 8):
        for cons in (
            Constraints(n),
            Constraints(n, bipartite_only=True),
            Constraints(n, cyclomatic=0),
            Constraints(n, max_degree=3),
        ):
            got = sorted(to_graph6(g) for g in enumerate_connected(cons))
            want = sorted(key(g) for g in brute_force_classes(cons))
            if got != want:
                bad.append((n, cons.describe(), len(got), len(want)))
            cases += 1
    ok = not bad
    elapsed = report(9, "oracle-equivalence", ok, t0, f"{cases} constraint/order cases")
    assert ok, bad
    assert elapsed < 120.0


def test_criterion_10_conjecture_probes():
    t0 = time.perf_counter()
    probe2 = verify("conjecture2", range(6, 11), max_degree=3)
    probe3 = [verify("conjecture3", range(6, 13), max_degree=d) for d in (3, 4)]
    anchors_ok = True
    for n in range(6, 11):
        rep = verify("conjecture3", [n], max_degree=n - 1)
        anchors_ok = anchors_ok and rep.rows[0].exact_witnesses == (key(star(n)),)

    # At degree bound 3 the path undercuts the cycle at n = 6 and 7, so the
    # probe must report exactly those two counterexamples, with the path as
    # the unique minimizer; from n = 8 on the cycle is the unique minimizer.
    mismatches = []
    for row in probe2.rows:
        cyc = (key(cycle(row.n)),)
        if row.n in (6, 7):
            # P_n is bipartite, so GG(P_n) = NGG(P_n) * sqrt(n - 2)
            want = ngg_closed(parse_spec(f"P:{row.n}")) * math.sqrt(row.n - 2)
            row_ok = (
                not row.passed
                and row.label == "counterexample found"
                and row.exact_witnesses == (key(path(row.n)),)
                and row.expected == cyc
                and abs(row.value - want) <= 1e-9
            )
        else:
            row_ok = (
                row.passed
                and row.label == "consistent"
                and row.exact_witnesses == cyc
            )
        if not row_ok:
            mismatches.append(
                f"{probe2.claim} n={row.n}: {row.label}, minimum {row.value:.6f} "
                f"at {','.join(row.exact_witnesses)}"
            )
    failing_n = sorted(row.n for row in probe2.rows if not row.passed)
    if [row.n for row in probe2.rows] != list(range(6, 11)) or failing_n != [6, 7]:
        mismatches.append(f"{probe2.claim} fails at n = {failing_n}, expected [6, 7]")
    for rep in probe3:
        for row in rep.rows:
            if not row.passed:
                mismatches.append(
                    f"{rep.claim} n={row.n}: maximum {row.value:.6f} at "
                    f"{','.join(row.exact_witnesses)} instead of {','.join(row.expected)}"
                )
    if not anchors_ok:
        mismatches.append("conjecture3 at degree bound n - 1 does not pick the star")
    ok = not mismatches and all(r.passed for r in probe3)
    detail = "cycle-min counterexamples at n = 6, 7 only, dendrimer-max, star anchor"
    if mismatches:
        detail = "; ".join(mismatches)
    elapsed = report(10, "conjecture-probes", ok, t0, detail)
    # the scan must report the counterexamples it finds, and only those
    assert ok, "unexpected probe outcome: " + detail
    assert elapsed < 900.0
