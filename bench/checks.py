"""Output-correctness checks. Any problem found counts its command as failed.

A command fails on a wrong exit code or a wrong stdout digest. The first
pass of a run also checks content against sources independent of the
program: `verify` class counts against known sequence values, and every
values-large index record against networkx.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import KNOWN_CLASSES, Command

VALUE_RTOL = 1e-9  # the CLI prints JSON floats with 10 significant digits


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_command(cmd: Command, exit_code: int, stdout: str, sha256: str) -> list[str]:
    """Exit code against cmd's, stdout digest against sha256."""
    problems = []
    if exit_code != cmd.exit_code:
        problems.append(f"exit code {exit_code}, expected {cmd.exit_code}")
    if digest(stdout) != sha256:
        problems.append(f"stdout sha256 {digest(stdout)[:12]}..., expected {sha256[:12]}...")
    return problems


def _option(argv, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_class_counts(argv, stdout: str) -> list[str]:
    """`verify` row class counts against KNOWN_CLASSES."""
    if argv[0] != "verify" or argv[1] not in KNOWN_CLASSES:
        return []
    if argv[1].startswith("conjecture") and _option(argv, "--max-degree") != "3":
        return []
    known = KNOWN_CLASSES[argv[1]]
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc!r}"]
    problems = []
    for row in rows:
        want = known.get(row["n"])
        if want is None:
            problems.append(f"no known class count for n={row['n']}")
        elif row["classes"] != want:
            problems.append(f"n={row['n']}: {row['classes']} classes, expected {want}")
    return problems


def reference_record(n: int, edges) -> dict:
    """gg, ngg, abc and splits of one graph, computed with networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    dist = dict(nx.all_pairs_shortest_path_length(g))
    splits = []
    for u, v in edges:
        du, dv = dist[u], dist[v]
        n_u = sum(1 for w in range(n) if du[w] < dv[w])
        n_v = sum(1 for w in range(n) if dv[w] < du[w])
        splits.append([u, v, n_u, n_v])
    deg = dict(g.degree())
    return {
        "n": n,
        "m": len(edges),
        "gg": math.fsum(math.sqrt((a + b - 2) / (a * b)) for _, _, a, b in splits),
        "ngg": math.fsum(1 / math.sqrt(a * b) for _, _, a, b in splits),
        "abc": math.fsum(
            math.sqrt((deg[u] + deg[v] - 2) / (deg[u] * deg[v])) for u, v in edges
        ),
        "splits": splits,
    }


def check_index_output(stdout: str, graphs) -> list[str]:
    """`index --splits` JSON: one record per input graph, each matching networkx."""
    try:
        records = json.loads(stdout)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable index output: {exc!r}"]
    if len(records) != len(graphs):
        return [f"{len(records)} records for {len(graphs)} input graphs"]
    problems = []
    for i, (rec, graph) in enumerate(zip(records, graphs)):
        ref = reference_record(*graph)
        if (rec["n"], rec["m"]) != (ref["n"], ref["m"]):
            problems.append(f"record {i}: n, m = {rec['n']}, {rec['m']}")
        if rec["splits"] != ref["splits"]:
            problems.append(f"record {i}: splits differ from the networkx reference")
        for key in ("gg", "ngg", "abc"):
            if not math.isclose(rec[key], ref[key], rel_tol=VALUE_RTOL):
                problems.append(f"record {i}: {key} {rec[key]!r}, reference {ref[key]!r}")
    return problems
