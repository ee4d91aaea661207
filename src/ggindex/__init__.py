"""Distance-based graph indices with exhaustive small-graph verification.

Computes the GG, NGG, and ABC indices of connected graphs, constructs the
parametric families the extremal results are stated over, enumerates small
graph classes isomorph-free, and checks the extremal claims by exhaustive
scan with exact tie handling.

enumerate_connected streams any class, trees included, canonically labeled
and in canonical-form order. enumerate_trees(n, max_degree=, max_n=) lists
each tree class once from level sequences, in generation order and labeled
by preorder, with no canonical search. canonical_form gives any graph's
class key: the graph6 str of its canonical labeling, as enumerate_connected
sorts and the command line prints it.
"""

from .graphs import Graph, GraphError, build_graph, canonical_form, from_graph6, to_graph6
from .indices import EdgeSplit, abc_index, edge_splits, gg_index, ngg_index
from .families import (
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
    ngg_path_closed,
    parse_spec,
    path,
    path_ngg_limit,
    star,
    theta,
)
from .enumeration import Constraints, EnumerationBoundError, enumerate_connected, enumerate_trees
from .extremal import (
    ExtremalError,
    ExtremalResult,
    Objective,
    VerificationReport,
    asymptotic_check,
    crossover_scan,
    exact_index_value,
    find_extremal,
    min_bipartite_closed,
    min_bipartite_expected,
    verify,
)
from .formats import FormatError, decode_graph6, encode_graph6
from .radicals import RadicalSum, sqrt_decompose

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "build_graph",
    "canonical_form",
    "from_graph6",
    "to_graph6",
    "EdgeSplit",
    "abc_index",
    "edge_splits",
    "gg_index",
    "ngg_index",
    "FamilyError",
    "FamilySpec",
    "almost_dendrimer",
    "complete",
    "complete_bipartite",
    "construct",
    "cycle",
    "cycle_hook",
    "cycle_pendant",
    "ngg_closed",
    "ngg_path_closed",
    "parse_spec",
    "path",
    "path_ngg_limit",
    "star",
    "theta",
    "Constraints",
    "EnumerationBoundError",
    "enumerate_connected",
    "enumerate_trees",
    "ExtremalError",
    "ExtremalResult",
    "Objective",
    "VerificationReport",
    "asymptotic_check",
    "crossover_scan",
    "exact_index_value",
    "find_extremal",
    "min_bipartite_closed",
    "min_bipartite_expected",
    "verify",
    "FormatError",
    "decode_graph6",
    "encode_graph6",
    "RadicalSum",
    "sqrt_decompose",
    "__version__",
]
