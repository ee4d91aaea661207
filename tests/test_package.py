"""The package exports what the program runs, keys are graph6 text, and
start-up leaves mpmath, dataclasses and inspect unloaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Runs in a fresh interpreter: after each step, the step's exit status and
# which of the watched modules are loaded. The commands' own output goes to a
# buffer.
STARTUP_PROBE = """
import contextlib, io, json, sys
WATCHED = ("mpmath", "dataclasses", "inspect")
import ggindex, ggindex.cli
ggindex.cli.build_parser()
steps = [["import and build_parser", None, [m for m in WATCHED if m in sys.modules]]]
for argv in (
    ["verify", "max-bipartite", "--n", "4..6"],
    ["verify", "conjecture1", "--n", "5..6", "--max-degree", "3"],
    ["index", sys.argv[1]],
    ["verify", "crossover", "--n", "5..9"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ggindex.cli.main(argv)
    steps.append([" ".join(argv), code, [m for m in WATCHED if m in sys.modules]])
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def startup_steps(tmp_path_factory):
    """The probe's edge list and steps, each [label, exit status, loaded
    watched modules]."""
    edge_list = tmp_path_factory.mktemp("startup") / "p4.txt"
    edge_list.write_text("4 3\n0 1\n1 2\n2 3\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(edge_list)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert run.returncode == 0, run.stderr
    return edge_list, json.loads(run.stdout)


def test_mpmath_is_loaded_only_by_a_mixed_sign_sign(startup_steps):
    # the start-up path and the commands that sign no mixed-sign radical sum
    # never import mpmath; crossover's first mixed-sign sign does
    edge_list, steps = startup_steps
    assert [[label, code, "mpmath" in loaded] for label, code, loaded in steps] == [
        ["import and build_parser", None, False],
        ["verify max-bipartite --n 4..6", 0, False],
        # n = 5 has a counterexample, which the exit status reports
        ["verify conjecture1 --n 5..6 --max-degree 3", 1, False],
        [f"index {edge_list}", 0, False],
        ["verify crossover --n 5..9", 0, True],
    ]


def test_no_step_imports_dataclasses_or_inspect(startup_steps):
    # the record classes are NamedTuples and a plain Graph class: nothing on
    # the start-up path or in a command generates code through dataclasses,
    # which would pull in inspect, ast and dis
    _, steps = startup_steps
    assert len(steps) == 5
    for label, _, loaded in steps:
        assert not {"dataclasses", "inspect"} & set(loaded), label
