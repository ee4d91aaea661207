"""The term table (indices.TERMS) against the sums it replaced, the bounds
built from it, and the float error its derivations rest on.

Every sum over the table is checked bit for bit against the reference sums
in oracles.py, on drawn graphs and on the family graphs and closed forms.
Every split_term_bounds entry is checked, bit for bit, to be the extreme of
its index's float term over the splits that fit its floors, and each row's
float term against its exact term in mpmath."""

import math

import mpmath
import pytest
from conftest import connected_graphs
from hypothesis import given, strategies as st

import oracles
from ggindex import families
from ggindex.extremal import crossover_scan, exact_index_value
from ggindex.families import FAMILIES, construct, ngg_closed, ngg_path_closed, parse_spec
from ggindex.indices import (
    TERMS,
    abc_index,
    edge_splits,
    gg_index,
    index_pairs,
    ngg_index,
    split_term_bounds,
    term_sum,
)

U = 2.0 ** -53


def _same_sums(g) -> None:
    splits = edge_splits(g)
    assert gg_index(g).hex() == oracles.gg_sum(splits).hex()
    assert ngg_index(g).hex() == oracles.ngg_sum(splits).hex()
    assert abc_index(g).hex() == oracles.abc_sum(g).hex()
    # abc_index sums in place what the exact re-rank reads as pairs
    assert abc_index(g).hex() == term_sum("abc", index_pairs("abc", g)).hex()


@given(connected_graphs(min_n=1, max_n=24))
def test_table_sums_are_the_reference_sums_bit_for_bit(g):
    _same_sums(g)
    for index in TERMS:
        assert exact_index_value(g, index) == oracles.exact_sum(g, index)


def _family_specs() -> list[str]:
    specs = [f"{code}:{n}" for code in ("P", "S") for n in range(2, 31)]
    specs += [f"C:{n}" for n in range(3, 31)] + [f"K:{n}" for n in range(1, 11)]
    specs += [f"KB:{a},{b}" for a in range(1, 7) for b in range(1, 7)]
    specs += [f"{code}:{n}" for code in ("CP", "CH") for n in range(5, 42, 2)]
    specs += [f"TH:{a},{b},{c}" for a in range(2, 9) for b in range(2, a + 1) for c in (1, 2)]
    specs += [f"AD:{n},{d}" for n in range(2, 31) for d in (2, 3, 4)]
    return specs


def test_family_graphs_and_closed_forms_are_the_reference_sums_bit_for_bit():
    specs = _family_specs()
    assert {text.split(":")[0] for text in specs} == set(FAMILIES)
    for text in specs:
        g = construct(parse_spec(text))
        _same_sums(g)
    for n in range(1, 300):
        assert ngg_path_closed(n).hex() == oracles.path_ngg_sum(n).hex(), n


@given(st.integers(1, 20_000), st.integers(2, 50_000))
def test_closed_forms_are_the_reference_sums_bit_for_bit(n, k):
    assert ngg_path_closed(n).hex() == oracles.path_ngg_sum(n).hex()
    # C' and C'' at n = 2k + 1, as they were written: scale/sqrt(q) terms
    pendant = oracles.scaled_ngg_sum([(1, 2 * k), (2 * k, k * (k + 1))])
    hook = oracles.scaled_ngg_sum([(2 * k + 2, k * (k + 1))])
    assert ngg_closed(parse_spec(f"CP:{2 * k + 1}")).hex() == pendant.hex()
    assert ngg_closed(parse_spec(f"CH:{2 * k + 1}")).hex() == hook.hex()


# --------------------------------------------------------------- bounds ----

def _extremes(n: int, index: str, sense: str, bipartite: bool) -> dict:
    """The extreme of the index's float term over the splits (x, y) that fit
    each pair of floors (a0, b0): x >= a0, y >= b0 and x + y <= n, with
    x + y = n for a bipartite max NGG."""
    term = TERMS[index].value
    pick = max if sense == "max" else min
    if index == "ngg" and sense == "max" and bipartite:
        return {
            (a, b): pick(term(x, n - x) for x in range(a, n - b + 1))
            for a in range(1, n)
            for b in range(1, n - a + 1)
        }
    # best[a, b] = pick(term(a, b), best[a + 1, b], best[a, b + 1])
    best: dict = {}
    for a in range(n - 1, 0, -1):
        for b in range(n - a, 0, -1):
            inner = [best[k] for k in ((a + 1, b), (a, b + 1)) if k in best]
            best[a, b] = pick([term(a, b), *inner])
    return best


@pytest.mark.parametrize("bipartite", [False, True])
def test_bounds_are_tight_and_bit_identical(bipartite):
    # each entry is the extreme of the float term over the splits that fit,
    # bit for bit, except max GG with a floor of 1 (the term's ceiling 1)
    # and closed twins (the min GG term g(1, 1) = 0)
    for n in range(2, 31):
        for index in ("gg", "ngg"):
            for sense in ("max", "min"):
                table = split_term_bounds(n, index, sense, bipartite)
                extremes = _extremes(n, index, sense, bipartite)
                assert table.keys() == extremes.keys()
                for (a, b), bound in table.items():
                    want = extremes[a, b]
                    if index == "gg" and sense == "max" and min(a, b) == 1:
                        assert bound == 1.0 >= want
                    elif index == "gg" and sense == "min" and a == b == 1:
                        assert bound == 0.0 == want
                    else:
                        assert bound.hex() == want.hex(), (n, index, sense, a, b)


# ----------------------------------------------------------- term error ----

def _exact(index: str, a: int, b: int) -> mpmath.mpf:
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
        for r, c in TERMS[index].exact(a, b).terms.items()
    )


@pytest.mark.parametrize("index, ulps", [("gg", 1.5), ("abc", 1.5), ("ngg", 2.0)])
def test_float_terms_are_within_their_documented_error(index, ulps):
    # the error TIE_RTOL's derivation rests on: two correctly rounded
    # operations per term, <= 1.5u for divide then sqrt, <= 2u for sqrt then
    # divide, relative to the exact term
    value = TERMS[index].value
    worst = 0.0
    with mpmath.workdps(40):
        for a in range(1, 101):
            for b in range(1, 101):
                exact = _exact(index, a, b)
                got = value(a, b)
                if exact == 0:
                    assert got == 0.0
                    continue
                worst = max(worst, float(abs(mpmath.mpf(got) - exact) / exact) / U)
    assert 0.0 < worst <= ulps


def test_crossover_rows_build_each_multiset_once(monkeypatch):
    # a row takes each of C' and C'' once from the family table, for both
    # its float column and its exact comparison
    names = []
    odd_half = families.odd_half

    def counted(n, name):
        names.append((n, name))
        return odd_half(n, name)

    monkeypatch.setattr(families, "odd_half", counted)
    orders = range(5, 42, 2)
    rows = crossover_scan(orders)
    assert [row.n for row in rows] == list(orders)
    assert names == [(n, name) for n in orders for name in ("cycle_pendant", "cycle_hook")]
    assert all(row.k == (row.n - 1) // 2 for row in rows)
