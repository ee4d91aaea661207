import math

import numpy as np
import pytest

from ggindex.families import (
    FamilyError,
    almost_dendrimer,
    complete,
    complete_bipartite,
    construct,
    cycle,
    cycle_hook,
    cycle_pendant,
    ngg_closed,
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


def test_closed_forms_match_computed():
    cases = [
        ("P:9", path(9)),
        ("P:14", path(14)),
        ("C:8", cycle(8)),
        ("C:12", cycle(12)),
        ("KB:3,4", complete_bipartite(3, 4)),
        ("KB:5,5", complete_bipartite(5, 5)),
        ("S:7", star(7)),
        ("CP:9", cycle_pendant(9)),
        ("CP:15", cycle_pendant(15)),
        ("CH:9", cycle_hook(9)),
        ("CH:15", cycle_hook(15)),
    ]
    for text, g in cases:
        assert ngg_closed(parse_spec(text)) == pytest.approx(
            ngg_index(g), abs=1e-10
        ), text


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
