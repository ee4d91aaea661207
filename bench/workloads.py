"""The benchmark's workloads: command lists, expected outputs, known counts.

Each workload is a list of `ggindex` CLI commands run one after the other
(a closed loop with one client). Every command has an expected exit code.
Commands whose output does not depend on the seed also have the sha256 of
their stdout, recorded at the first commit the benchmark ran against; each
can be reproduced with
`PYTHONPATH=src python3 -m ggindex <argv...> | sha256sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import graphgen

# Where values-large writes its seeded inputs, relative to the checkout root.
# The paths appear in the index output, so they stay relative and fixed.
INPUT_DIR = Path("bench") / "out" / "values-large"
G6_INPUT = INPUT_DIR / "graphs.g6"
EDGE_LIST_INPUT = INPUT_DIR / "graphs.txt"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    sha256: Optional[str] = None  # None when the output depends on the seed


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    seeded_inputs: bool = False


def _verify(claim: str, n: str, *extra: str) -> tuple[str, ...]:
    return ("verify", claim, "--n", n, *extra, "--format", "json", "--workers", "1")


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Both conjecture probes report a counterexample at these orders and
        # exit 1 (for conjecture 2 the path beats the cycle at n = 6 and 7).
        # That is the paper's finding, so exit 1 is the expected result.
        Workload(
            "verify-graphs",
            (
                Command(
                    _verify("max-bipartite", "4..9"),
                    0,
                    "0bd60a93285191cc3afb1cd21ee6c36dfb9dc78106ca481a2431a65c74108f75",
                ),
                Command(
                    _verify("conjecture1", "5..8", "--max-degree", "3"),
                    1,
                    "8ee44b4a3712285549a3f12acda4e8191dee88f7cf159b24abfe7b79eab2e8c6",
                ),
                Command(
                    _verify("conjecture2", "6..9", "--max-degree", "3"),
                    1,
                    "3599903a6eaa9ea1a1e622e271399d5a1d81d1248863ac9e0bf6987fdb5d4149",
                ),
            ),
        ),
        # Forest growth. The orders stop below the acceptance tests' n = 12
        # only to keep a pass short; the canon cost per class shows already.
        Workload(
            "verify-trees",
            (
                Command(
                    _verify("trees", "4..10"),
                    0,
                    "55ff1f748a0fec39908f1a4ff31ea2f9eb5f587d633a4f2a87c8d92e9dd2a475",
                ),
                Command(
                    _verify("conjecture3", "6..11", "--max-degree", "3"),
                    0,
                    "a3e22b36d5533f94efb7718bd349b7a7268d51918a9e459e24490a01e9a20f01",
                ),
            ),
        ),
        Workload(
            "values-large",
            (
                Command(
                    ("index", "--splits", "--format", "json", str(G6_INPUT), str(EDGE_LIST_INPUT)),
                    0,
                ),
                Command(
                    ("verify", "crossover", "--n", "5..1999", "--format", "json"),
                    0,
                    "10770e912571e8a928b06e9e279c4e257eebef1d99787fa265a35a84addb30d0",
                ),
            ),
            seeded_inputs=True,
        ),
    )
}


def prepare_inputs(root: Path, seed: int) -> list[tuple[int, graphgen.Edges]]:
    """Write the values-large input files under root; return their graphs in read order."""
    (root / INPUT_DIR).mkdir(parents=True, exist_ok=True)
    return graphgen.write_inputs(
        graphgen.generate(seed), root / G6_INPUT, root / EDGE_LIST_INPUT
    )


# Known class counts, independent of the program, by verify claim and n. The
# conjecture claims count degree-capped classes; these are for --max-degree 3.
CONNECTED_BIPARTITE = {  # OEIS A005142
    4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730, 10: 4032,
}
TREES = {  # OEIS A000055
    4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
}
TREES_MAX_DEGREE_3 = {  # OEIS A000672
    4: 2, 5: 2, 6: 4, 7: 6, 8: 11, 9: 18, 10: 37, 11: 66, 12: 135,
}
CONNECTED_MAX_DEGREE_3 = {  # connected graphs with maximum degree at most 3
    4: 6, 5: 10, 6: 29, 7: 64, 8: 194, 9: 531, 10: 1733,
}
KNOWN_CLASSES = {
    "max-bipartite": CONNECTED_BIPARTITE,
    "trees": TREES,
    "conjecture1": CONNECTED_MAX_DEGREE_3,
    "conjecture2": CONNECTED_MAX_DEGREE_3,
    "conjecture3": TREES_MAX_DEGREE_3,
}
