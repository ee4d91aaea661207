import random

import networkx as nx
import pytest
from hypothesis import given

from ggindex.formats import (
    FormatError,
    decode_graph6,
    encode_graph6,
    parse_edge_list_block,
)
from ggindex.graphs import read_graphs

from conftest import connected_graphs


def _masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_k2_is_the_documented_string():
    assert encode_graph6(2, _masks(2, [(0, 1)])) == "A_"


def test_p4_and_empty():
    assert encode_graph6(4, _masks(4, [(0, 1), (1, 2), (2, 3)])) == "Ch"
    assert encode_graph6(1, [0]) == "@"
    assert decode_graph6("@") == (1, [])


def test_header_prefix_accepted():
    assert decode_graph6(">>graph6<<A_") == (2, [(0, 1)])


@given(connected_graphs(max_n=12))
def test_round_trip(g):
    adj = _masks(g.n, g.edges)
    n, edges = decode_graph6(encode_graph6(g.n, adj))
    assert n == g.n
    assert sorted(edges) == list(g.edges)


@given(connected_graphs(max_n=10))
def test_agrees_with_networkx(g):
    ours = encode_graph6(g.n, _masks(g.n, g.edges))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs
    back = nx.from_graph6_bytes(ours.encode())
    assert sorted(back.edges()) == [tuple(e) for e in g.edges]


def test_large_order_header():
    # n = 63 needs the long form '~' + 3 bytes
    n = 63
    edges = [(i, i + 1) for i in range(62)]
    s = encode_graph6(n, _masks(n, edges))
    assert s.startswith("~")
    m, back = decode_graph6(s)
    assert m == 63 and sorted(back) == edges


def _large_graphs(n):
    """A path, a cycle and a seeded sparse graph on n vertices."""
    rng = random.Random(n)
    sparse = {(rng.randrange(v), v) for v in range(1, n)}
    while len(sparse) < n + n // 10:
        sparse.add(tuple(sorted(rng.sample(range(n), 2))))
    path = [(i, i + 1) for i in range(n - 1)]
    return {"path": path, "cycle": path + [(0, n - 1)], "sparse": sorted(sparse)}


@pytest.mark.parametrize("n", [63, 300, 1000])
def test_large_round_trips_agree_with_networkx(n):
    for name, edges in _large_graphs(n).items():
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        ours = encode_graph6(n, _masks(n, edges))
        assert ours == theirs, name
        m, back = decode_graph6(theirs)
        assert m == n and sorted(back) == sorted(edges), name
        back = nx.from_graph6_bytes(ours.encode()).edges()
        assert sorted(tuple(sorted(e)) for e in back) == sorted(edges), name


def test_decode_rejects_garbage():
    with pytest.raises(FormatError, match="empty graph6 string"):
        decode_graph6("")
    with pytest.raises(FormatError, match="needs 1 characters, got 0"):
        decode_graph6("C")  # truncated payload for n=4
    with pytest.raises(FormatError, match=r"invalid graph6 payload byte '\\x14'"):
        decode_graph6("C" + chr(20))  # payload byte out of range
    with pytest.raises(FormatError):
        decode_graph6(chr(30) + "x")  # size byte below '?'
    # a bad byte deep in a long payload is still named
    bad = list(encode_graph6(300, _masks(300, _large_graphs(300)["sparse"])))
    bad[-7] = chr(127)
    with pytest.raises(FormatError, match=r"invalid graph6 payload byte '\\x7f'"):
        decode_graph6("".join(bad))


def read_file(p):
    return [(g.n, list(g.edges)) for _, g in read_graphs(p.read_text().splitlines(), str(p))]


def test_graph6_file_round_trip(tmp_path):
    p = tmp_path / "graphs.g6"
    items = [
        (3, _masks(3, [(0, 1), (1, 2)])),
        (4, _masks(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
    ]
    p.write_text("".join(encode_graph6(n, adj) + "\n" for n, adj in items))
    got = read_file(p)
    assert got[0] == (3, [(0, 1), (1, 2)])
    assert got[1][0] == 4 and len(got[1][1]) == 4


def test_graph6_file_error_names_line(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("A_\n!!!!\n")
    with pytest.raises(FormatError, match=r"bad\.g6:2"):
        read_file(p)


def test_edge_list_round_trip(tmp_path):
    n, edges = parse_edge_list_block(["4 3", "0 1", "1 2", "2 3"])
    assert (n, edges) == (4, [(0, 1), (1, 2), (2, 3)])

    p = tmp_path / "graphs.txt"
    p.write_text("3 2\n0 1\n1 2\n\n2 1\n0 1\n")
    assert read_file(p) == [(3, [(0, 1), (1, 2)]), (2, [(0, 1)])]


def test_edge_list_block_errors():
    with pytest.raises(FormatError, match="header"):
        parse_edge_list_block(["3"])
    with pytest.raises(FormatError, match="m=2"):
        parse_edge_list_block(["3 2", "0 1"])
    with pytest.raises(FormatError):
        parse_edge_list_block(["2 1", "0 x"])
