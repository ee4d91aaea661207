"""graph6 and plain edge-list text encodings.

graph6 layout (bit-exact per the standard format definition): a size header
N(n), then the upper triangle of the adjacency matrix read column by column,
x(0,1), x(0,2), x(1,2), x(0,3), ..., packed big-endian into 6-bit groups,
zero-padded on the right, each group offset by 63 into the printable range.
N(n) is the single byte n+63 for n <= 62 and '~' followed by three bytes
holding n as an 18-bit big-endian value (6 bits per byte, +63) for
63 <= n <= 258047. Larger orders are out of scope here and rejected.

The edge-list text format is: first line "n m", then m lines "u v".

This module holds the single-graph codecs only. It works on (n, edges) pairs
and adjacency bitmasks so it has no dependency on the Graph type; the input
file reader (graphs.read_graphs) and the graph-level wrappers live in
graphs.py.
"""

from __future__ import annotations

from typing import Sequence

GRAPH6_HEADER = ">>graph6<<"
_MAX_N = 258047


class FormatError(ValueError):
    """Malformed graph6 or edge-list input."""


# ---------------------------------------------------------------- graph6 ----

def _size_header(n: int) -> str:
    if n < 0:
        raise FormatError(f"negative vertex count {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= _MAX_N:
        return "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    raise FormatError(f"vertex count {n} exceeds the supported graph6 range (n <= {_MAX_N})")


def _parse_size(s: str) -> tuple[int, str]:
    if not s:
        raise FormatError("empty graph6 string")
    c = ord(s[0])
    if c == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise FormatError("graph6 orders above 258047 are not supported")
        if len(s) < 4:
            raise FormatError("truncated graph6 size header")
        vals = [ord(ch) - 63 for ch in s[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise FormatError("invalid graph6 size header")
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], s[4:]
    if not 63 <= c <= 125:
        raise FormatError(f"invalid graph6 size byte {s[0]!r}")
    return c - 63, s[1:]


# One payload character per 6-bit group, and back.
_SIX_TO_CHAR = {format(v, "06b"): chr(v + 63) for v in range(64)}
_CHAR_TO_SIX = {c: six for six, c in _SIX_TO_CHAR.items()}


def graph6_from_bits(n: int, bits: str) -> str:
    """graph6 string from the column-major upper-triangle bitstring ('0'/'1'
    characters, n(n-1)/2 of them), zero-padded to whole 6-bit groups."""
    bits += "0" * (-len(bits) % 6)
    return _size_header(n) + "".join(
        [_SIX_TO_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)]
    )


def encode_graph6(n: int, adjacency_bits: Sequence[int]) -> str:
    """graph6 string of the labeled graph given by adjacency bitmasks."""
    # column j lists x(0,j) .. x(j-1,j): the low j bits of row j, lowest first
    columns = (
        format(adjacency_bits[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)
    )
    return graph6_from_bits(n, "".join(columns))


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse one graph6 string into (n, edge list)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    n, payload = _parse_size(s)
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(payload) != want:
        raise FormatError(
            f"graph6 payload for n={n} needs {want} characters, got {len(payload)}"
        )
    try:
        bits = "".join(map(_CHAR_TO_SIX.__getitem__, payload))
    except KeyError as exc:
        raise FormatError(f"invalid graph6 payload byte {exc.args[0]!r}") from None
    # column j holds bits start .. start+j-1, one per row i < j
    edges = []
    j, start = 1, 0
    p = bits.find("1", 0, nbits)
    while p >= 0:
        while p >= start + j:
            start += j
            j += 1
        edges.append((p - start, j))
        p = bits.find("1", p + 1, nbits)
    return n, edges


# ------------------------------------------------------------- edge lists ----

def parse_edge_list_block(lines: Sequence[str]) -> tuple[int, list[tuple[int, int]]]:
    """Parse one edge-list block, its lines stripped and nonblank, into (n, edge list)."""
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"expected integer header 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"header says m={m} but block has {len(lines) - 1} edge lines")
    edges = []
    for text in lines[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge 'u v', got {text!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"expected integer edge 'u v', got {text!r}") from None
    return n, edges
