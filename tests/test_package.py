"""The package exports what the program runs, and keys are graph6 text."""

import ggindex
from ggindex.canon import canon_full
from ggindex.families import cycle_hook

# names that no module of the package calls, deleted rather than exported
DELETED = (
    "all_pairs_distances",
    "count_classes",
    "all_indices",
    "IndexValues",
    "check_bipartite_relation",
    "is_bipartite",
    "relabel",
    "two_coloring",
    "parse_objective",
)


def test_public_surface_and_key_type():
    assert all(hasattr(ggindex, name) for name in ggindex.__all__)
    assert not any(name in ggindex.__all__ or hasattr(ggindex, name) for name in DELETED)
    # the dense distance table stays in graphs, the split pass's test reference
    assert callable(ggindex.graphs.all_pairs_distances)
    g = cycle_hook(9)
    key = ggindex.canonical_form(g)
    assert type(key) is str and type(canon_full(g.n, g.adjacency_bits).key) is str
    assert ggindex.from_graph6(key).n == 9
