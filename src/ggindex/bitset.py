"""Small helpers for vertex sets stored as Python int bitmasks."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=1 << 12)
def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask in increasing order, as a tuple. The
    walk asks for the same small masks over and over, so the tuples are kept
    in a bounded cache (every mask on 12 vertices fits); large masks belong
    to iter_bits."""
    return tuple(iter_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def components(adj: tuple[int, ...] | list[int], within: int) -> list[int]:
    """The connected components of the subgraph induced on the vertex mask
    within, as masks, ordered by smallest member."""
    out = []
    while within:
        seen = frontier = within & -within
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & within & ~seen
            seen |= frontier
        out.append(seen)
        within ^= seen
    return out


def bipartition(adj: tuple[int, ...] | list[int], start: int) -> tuple[int, int] | None:
    """The two color-class masks of start's component, start's side first, or
    None on an odd cycle (BFS layers alternate sides; an odd cycle shows as
    an edge inside one layer)."""
    sides = [0, 0]
    seen = frontier = 1 << start
    side = 0
    while frontier:
        sides[side] |= frontier
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        if nxt & frontier:
            return None
        frontier = nxt & ~seen
        seen |= frontier
        side ^= 1
    return sides[0], sides[1]
