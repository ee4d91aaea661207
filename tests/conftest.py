import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ggindex.graphs import Graph, build_graph

# Scans and canonical-form searches have legitimately uneven timings; a
# per-example deadline only produces flaky failures here.
settings.register_profile(
    "ggindex", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# --hypothesis-profile=deep runs ten times the examples of the tests that
# scale their count with the profile's (tests/test_canon.py's _examples)
ggindex = settings.get_profile("ggindex")
settings.register_profile("deep", ggindex, max_examples=10 * ggindex.max_examples)
settings.load_profile("ggindex")


def floyd_warshall(g: Graph) -> list[list[int]]:
    """Independent all-pairs distances for cross-checking the BFS ones."""
    inf = 10 ** 9
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(g.n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return d


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree plus up to `extra` extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((rng.randrange(v), v))))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return build_graph(n, sorted(edges))


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    extra = draw(st.integers(0, n))
    return random_connected_graph(random.Random(seed), n, extra)


@st.composite
def trees(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_connected_graph(random.Random(seed), n, 0)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
