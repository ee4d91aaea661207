import math

import numpy as np
import pytest

from ggindex.families import (
    FAMILIES,
    FamilyError,
    FamilySpec,
    almost_dendrimer,
    complete,
    complete_bipartite,
    construct,
    cycle,
    cycle_hook,
    cycle_pendant,
    ngg_closed,
    ngg_closed_exact,
    ngg_path_closed,
    parse_spec,
    path,
    path_ngg_limit,
    star,
    theta,
)
from ggindex.graphs import canonical_form
from ggindex.indices import gg_index, ngg_index

from oracles import is_bipartite

# reference NGG values for even paths, 4 decimals
PATH_TABLE = {
    4: 1.6547, 6: 1.9349, 8: 2.0997, 10: 2.2114, 12: 2.2934, 14: 2.3570,
    16: 2.4081, 18: 2.4504, 20: 2.4862, 22: 2.5169, 24: 2.5436, 26: 2.5672,
    28: 2.5882, 30: 2.6071,
}


def test_path_table_values():
    for n, want in PATH_TABLE.items():
        assert round(ngg_path_closed(n), 4) == pytest.approx(want, abs=1e-4)
        assert round(ngg_index(path(n)), 4) == pytest.approx(want, abs=1e-4)


def test_parse_spec_round_trips():
    for text in ("P:7", "C:8", "K:5", "KB:3,4", "S:9", "CP:9", "CH:9", "TH:4,2,2", "AD:41,3"):
        spec = parse_spec(text)
        assert spec.text == text
        construct(spec)


def test_parse_spec_rejects_malformed():
    for text in ("", "P", "P:", "Q:5", "KB:3", "TH:1,2", "P:x", "P:7,8"):
        with pytest.raises(FamilyError):
            parse_spec(text)
    # a spec built directly is held to its family's arity too
    for code, params in (("KB", (3,)), ("P", (7, 8)), ("TH", ()), ("kb", (3, 4))):
        with pytest.raises(FamilyError):
            FamilySpec(code, params)


def test_constructor_bounds():
    with pytest.raises(FamilyError):
        cycle(2)
    with pytest.raises(FamilyError):
        cycle_pendant(4)  # even
    with pytest.raises(FamilyError):
        cycle_pendant(3)
    with pytest.raises(FamilyError):
        cycle_hook(3)
    with pytest.raises(FamilyError):
        theta(2, 1, 1)  # two length-one paths would be a multi-edge
    with pytest.raises(FamilyError):
        theta(1, 2, 3)  # not sorted
    with pytest.raises(FamilyError):
        almost_dendrimer(5, 1)


def test_family_shapes():
    assert path(6).m == 5
    assert cycle(6).m == 6
    assert complete(5).m == 10
    assert complete_bipartite(3, 4).m == 12
    assert star(7).degrees[0] == 6
    cp = cycle_pendant(9)
    assert cp.m == 9 and sorted(cp.degrees).count(1) == 1
    ch = cycle_hook(9)
    assert ch.n == 9 and ch.m == 10
    th = theta(3, 3, 2)
    assert th.n == 7 and th.m == 8 and not is_bipartite(th)


def test_small_identities():
    # the hooked cycle at n=5 is K_{2,3}, and at n=7 it is theta(4,2,2)
    assert canonical_form(cycle_hook(5)) == canonical_form(complete_bipartite(2, 3))
    assert canonical_form(cycle_hook(7)) == canonical_form(theta(4, 2, 2))
    assert canonical_form(theta(2, 2, 2)) == canonical_form(complete_bipartite(2, 3))


def test_dendrimer_shapes():
    # figure example: 41 vertices at degree bound 3
    t = almost_dendrimer(41, 3)
    hist = {}
    for d in t.degrees:
        hist[d] = hist.get(d, 0) + 1
    assert t.n == 41 and t.m - t.n + 1 == 0
    assert hist == {3: 19, 2: 1, 1: 21}
    # BFS-levels greedy fill keeps degrees monotone nonincreasing in label order
    assert list(t.degrees) == sorted(t.degrees, reverse=True)
    # anchors
    assert canonical_form(almost_dendrimer(4, 3)) == canonical_form(star(4))
    assert canonical_form(almost_dendrimer(9, 2)) == canonical_form(path(9))
    for n in (5, 8, 12):
        assert canonical_form(almost_dendrimer(n, n - 1)) == canonical_form(star(n))


def test_dendrimer_degree_bound_holds():
    for n in range(2, 30):
        for d in (2, 3, 4, 5):
            t = almost_dendrimer(n, d)
            assert t.n == n and t.m - t.n + 1 == 0
            assert t.max_degree <= d
            internal = [deg for deg in t.degrees if deg > 1]
            off = [deg for deg in internal if deg != d]
            # every non-pendant vertex has degree d, except perhaps one
            assert len(off) <= 1


# for every code with a closed form, specs over a range from its smallest
# valid parameters; INVALID_SPECS holds those just below
CLOSED_FORM_SPECS = {
    "P": [f"P:{n}" for n in range(1, 31)],
    "C": [f"C:{n}" for n in range(4, 31, 2)],
    "KB": [f"KB:{a},{b}" for a in range(1, 7) for b in range(1, 7)],
    "S": [f"S:{n}" for n in range(2, 31)],
    "CP": [f"CP:{n}" for n in range(5, 42, 2)],
    "CH": [f"CH:{n}" for n in range(5, 42, 2)],
}
# parameters every closed-form code's constructor refuses
INVALID_SPECS = [
    "P:0", "P:-3", "C:2", "C:0", "KB:0,3", "KB:3,0", "S:1", "S:0",
    "CP:3", "CP:4", "CP:6", "CP:-1", "CH:3", "CH:4", "CH:8", "CH:-1",
]


def test_closed_forms_match_computed():
    with_closed = {c for c, f in FAMILIES.items() if f.closed or f.terms}
    assert with_closed == set(CLOSED_FORM_SPECS)
    for specs in CLOSED_FORM_SPECS.values():
        for text in specs:
            spec = parse_spec(text)
            assert ngg_closed(spec) == pytest.approx(
                ngg_index(construct(spec)), abs=1e-10
            ), text
    # a constructor and its closed form refuse the same parameters
    for text in INVALID_SPECS:
        spec = parse_spec(text)
        with pytest.raises(FamilyError):
            construct(spec)
        with pytest.raises(FamilyError):
            ngg_closed(spec)
    # families without a closed form, and odd cycles, build but have no value
    for text in ("K:5", "TH:4,2,2", "AD:41,3", "C:3", "C:7"):
        spec = parse_spec(text)
        construct(spec)
        with pytest.raises(FamilyError):
            ngg_closed(spec)
    # the exact C' and C'' forms: the float forms' values, and equal only at n = 15
    for n in range(5, 200, 2):
        pendant, hook = parse_spec(f"CP:{n}"), parse_spec(f"CH:{n}")
        exact = ngg_closed_exact(pendant), ngg_closed_exact(hook)
        assert exact[0].to_float() == pytest.approx(ngg_closed(pendant), abs=1e-12), n
        assert exact[1].to_float() == pytest.approx(ngg_closed(hook), abs=1e-12), n
        assert (exact[0].compare(exact[1]) == 0) == (n == 15), n
    for text in ("P:9", "C:8", "KB:3,4", "S:7"):
        with pytest.raises(FamilyError):
            ngg_closed_exact(parse_spec(text))


def test_closed_form_spot_values():
    assert ngg_closed(parse_spec("C:8")) == 2.0
    assert ngg_closed(parse_spec("KB:3,3")) == pytest.approx(3.0, abs=1e-12)
    assert ngg_closed(parse_spec("S:10")) == pytest.approx(3.0, abs=1e-12)
    assert ngg_closed(parse_spec("CP:5")) == pytest.approx(2.1330, abs=1e-4)
    assert ngg_closed(parse_spec("CH:9")) == pytest.approx(10 / math.sqrt(20), abs=1e-12)
    with pytest.raises(FamilyError):
        ngg_closed(parse_spec("K:6"))
    with pytest.raises(FamilyError):
        ngg_closed(parse_spec("C:7"))


def test_star_gg_closed_form():
    for n in range(3, 12):
        assert gg_index(star(n)) == pytest.approx(
            math.sqrt((n - 1) * (n - 2)), abs=1e-12
        )


def test_path_ngg_is_monotone_and_below_limit():
    ns = np.arange(3, 10_001)
    vals = np.array([ngg_path_closed(int(n)) for n in ns])
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < path_ngg_limit())
    assert path_ngg_limit() == math.pi
