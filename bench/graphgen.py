"""Seeded input graphs for the values-large workload.

The set is large sparse connected graphs: random recursive spanning trees
with extra random edges, plus a long path, a cycle, an almost-dendrimer and a
theta graph. Orders and edge counts are fixed, and only the structure and the
labeling come from the seed, so the work per run barely depends on the seed.
Every graph is relabeled by a seeded random permutation. Half of the graphs go
to a graph6 file and half to an edge-list file, so both readers of the
program run.

This module does not import the program: it encodes graph6 itself, and the
edge lists it returns feed the independent networkx reference check.
"""

from __future__ import annotations

import random
from pathlib import Path

Edges = list[tuple[int, int]]

# Orders of the random sparse graphs; each gets n // 10 extra edges.
RANDOM_ORDERS = tuple(range(240, 400, 10))
FAMILY_ORDER = 400


def random_sparse(rng: random.Random, n: int, extra: int) -> Edges:
    """Random recursive tree on n vertices plus `extra` random non-tree edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def path_edges(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> Edges:
    return path_edges(n) + [(0, n - 1)]


def almost_dendrimer_edges(n: int, d: int) -> Edges:
    """Breadth-first greedy tree: the root takes d children, later vertices d - 1."""
    capacity = [d] + [d - 1] * (n - 1)
    edges = []
    parent = 0
    for v in range(1, n):
        while capacity[parent] == 0:
            parent += 1
        capacity[parent] -= 1
        edges.append((parent, v))
    return edges


def theta_edges(a: int, b: int, c: int) -> tuple[int, Edges]:
    """Hubs 0 and 1 joined by internally disjoint paths of a, b and c edges."""
    n = 2
    edges = []
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return n, edges


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def generate(seed: int) -> list[tuple[int, Edges]]:
    """The workload's graphs as (n, sorted edge list), the same for the same seed."""
    rng = random.Random(seed)
    raw = [(n, random_sparse(rng, n, n // 10)) for n in RANDOM_ORDERS]
    raw.append((FAMILY_ORDER, path_edges(FAMILY_ORDER)))
    raw.append((FAMILY_ORDER, cycle_edges(FAMILY_ORDER)))
    raw.append((FAMILY_ORDER, almost_dendrimer_edges(FAMILY_ORDER, 3)))
    raw.append(theta_edges(FAMILY_ORDER // 2, FAMILY_ORDER // 3, FAMILY_ORDER // 6))
    rng.shuffle(raw)
    return [(n, relabel(rng, n, edges)) for n, edges in raw]


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 string: size header, then the upper triangle column by column."""
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = 0
    for u, v in edges:
        # bit for (u, v), u < v, sits at column-major position v(v-1)/2 + u
        bits |= 1 << (nbits - 1 - (v * (v - 1) // 2 + u))
    pad = (-nbits) % 6
    bits <<= pad
    total = nbits + pad
    return header + "".join(
        chr(((bits >> shift) & 63) + 63) for shift in range(total - 6, -6, -6)
    )


def write_inputs(
    graphs: list[tuple[int, Edges]], g6_path: Path, edge_list_path: Path
) -> list[tuple[int, Edges]]:
    """Write even-indexed graphs as graph6 and odd-indexed ones as edge lists.

    Returns the graphs in the order `index g6_path edge_list_path` reads them.
    """
    as_g6, as_edges = graphs[0::2], graphs[1::2]
    g6_path.write_text("".join(encode_graph6(n, e) + "\n" for n, e in as_g6), "ascii")
    blocks = []
    for n, edges in as_edges:
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        blocks.append("\n".join(lines) + "\n")
    edge_list_path.write_text("\n".join(blocks), "ascii")
    return as_g6 + as_edges
