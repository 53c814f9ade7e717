"""Brute-force enumeration of proper 3-edge-colorings.

This module is deliberately independent of the spin/face machinery: its
only input is adjacency, its only technique is edge-by-edge backtracking,
so agreement with the algebraic path is evidence rather than tautology.
Edges are colored in breadth-first discovery order from vertex 0, which
keeps the constraint propagation tight.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .colorings import TaitColoring
from .errors import EnumerationLimitError, InvalidGraphError, NotBipartiteError
from .graphs import Bipartition, Edge, _neighbor_triples, edges, is_bipartite

__all__ = [
    "count_tait_oracle",
    "enumerate_tait_oracle",
    "bipartite_tait_construct",
    "is_proper_coloring",
]


def _check_cubic(adjacency: Sequence[Sequence[int]]) -> None:
    n = len(adjacency)
    if not n:
        raise InvalidGraphError("graph has no vertices")
    for v, triple in enumerate(adjacency):
        if len(triple) != 3 or len(set(triple)) != 3 or v in triple:
            raise InvalidGraphError(f"vertex {v} is not simple cubic: neighbors {triple}")
        for w in triple:
            if not 0 <= w < n or v not in adjacency[w]:
                raise InvalidGraphError(f"adjacency is not symmetric at edge {v}-{w}")
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        raise InvalidGraphError("graph is not connected")


def _bfs_edge_order(adjacency: Sequence[Sequence[int]]) -> list[Edge]:
    order: list[Edge] = []
    listed: set[Edge] = set()
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            e = (v, w) if v < w else (w, v)
            if e not in listed:
                listed.add(e)
                order.append(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return order


# The color bits 1 << color an edge may take when the bits in t are used at its ends.
_FREE_BITS = tuple(tuple(b for b in (1, 2, 4) if not t & b) for t in range(8))


def _colorings(adjacency: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Yield color tuples aligned with the BFS edge order, lexicographically.

    Backtracks on an explicit stack, so no edge count meets the recursion
    limit: ``tries[i]`` yields the color bits left for edge i, given those before it.
    """
    order = _bfs_edge_order(adjacency)
    used = [0] * len(adjacency)  # bitmask of colors present at each vertex
    bits = [0] * len(order)  # each edge's color bit, 0 while it has none
    tries = [iter((1, 2, 4))]
    while tries:
        i = len(tries) - 1
        u, v = order[i]
        bit = next(tries[i], 0)  # edge i gives back its color bit for the next one left
        used[u] ^= bits[i] ^ bit
        used[v] ^= bits[i] ^ bit
        bits[i] = bit
        if not bit:
            tries.pop()
        elif i + 1 == len(order):
            yield tuple(b >> 1 for b in bits)  # bits 1, 2, 4 are colors 0, 1, 2
        else:
            u, v = order[i + 1]
            tries.append(iter(_FREE_BITS[used[u] | used[v]]))


def count_tait_oracle(g) -> int:
    """Exact number of proper 3-edge-colorings, by exhaustive backtracking."""
    adjacency = _neighbor_triples(g)
    _check_cubic(adjacency)
    return sum(1 for _ in _colorings(adjacency))


def enumerate_tait_oracle(g, limit: int) -> tuple[TaitColoring, ...]:
    """All proper colorings in canonical edge order, sorted; refuses past ``limit``."""
    adjacency = _neighbor_triples(g)
    _check_cubic(adjacency)
    edge_list = edges(g)
    slot = {e: i for i, e in enumerate(edge_list)}
    bfs_slots = [slot[e] for e in _bfs_edge_order(adjacency)]
    results: list[TaitColoring] = []
    for bfs_colors in _colorings(adjacency):
        if len(results) >= limit:
            raise EnumerationLimitError(f"more than {limit} colorings exist")
        colors = [0] * len(edge_list)
        for i, c in zip(bfs_slots, bfs_colors):
            colors[i] = c
        results.append(TaitColoring(tuple(colors)))
    return tuple(sorted(results, key=lambda t: t.colors))


def is_proper_coloring(g, coloring: TaitColoring) -> bool:
    """True when the three edges at every vertex carry three distinct colors."""
    adjacency = _neighbor_triples(g)
    edge_list = edges(g)
    if len(coloring.colors) != len(edge_list):
        return False
    slot = {e: i for i, e in enumerate(edge_list)}
    for v, triple in enumerate(adjacency):
        seen = set()
        for w in triple:
            e = (v, w) if v < w else (w, v)
            seen.add(coloring.colors[slot[e]])
        if len(seen) != 3:
            return False
    return True


def _perfect_matching(adjacency: Sequence[Sequence[int]]) -> list[int] | None:
    """Partners in the first perfect matching found depth-first, lowest vertex first."""
    n = len(adjacency)
    partner: list[int | None] = [None] * n
    stack: list[tuple[int, int]] = []  # (vertex, slot of its partner) per matched pair
    v, start = 0, 0
    while True:
        while v < n and partner[v] is not None:
            v += 1
        if v == n:
            return partner
        for slot in range(start, len(adjacency[v])):
            w = adjacency[v][slot]
            if partner[w] is None:
                partner[v], partner[w] = w, v
                stack.append((v, slot))
                v, start = v + 1, 0
                break
        else:
            if not stack:
                return None
            v, slot = stack.pop()
            partner[v] = partner[adjacency[v][slot]] = None
            start = slot + 1


def bipartite_tait_construct(g, parts: Bipartition | None = None) -> TaitColoring:
    """Color a perfect matching 0 and alternate 1, 2 around the leftover cycles.

    Removing a perfect matching from a cubic graph leaves a 2-factor; in a
    bipartite graph its cycles are even, so the alternation closes up.
    """
    adjacency = _neighbor_triples(g)
    _check_cubic(adjacency)
    if parts is None:
        parts = is_bipartite(g)
    if parts is None:
        raise NotBipartiteError("graph is not bipartite")
    partner = _perfect_matching(adjacency)
    if partner is None:
        # Bipartite cubic graphs always have one; only corrupt input gets here.
        raise AssertionError("no perfect matching found in a bipartite cubic graph")
    edge_list = edges(g)
    slot = {e: i for i, e in enumerate(edge_list)}
    colors: list[int | None] = [None] * len(edge_list)
    for u, v in enumerate(partner):
        if u < v:
            colors[slot[(u, v)]] = 0
    for start in range(len(adjacency)):
        first = [w for w in adjacency[start] if w != partner[start]]
        e0 = (start, first[0]) if start < first[0] else (first[0], start)
        if colors[slot[e0]] is not None:
            continue
        # Walk the 2-factor cycle through ``start``, alternating 1 and 2.
        prev, current = start, min(first)
        color, steps = 1, 0
        while True:
            e = (prev, current) if prev < current else (current, prev)
            colors[slot[e]] = color
            color = 3 - color
            steps += 1
            nxt = next(
                w for w in adjacency[current] if w != partner[current] and w != prev
            )
            prev, current = current, nxt
            if prev == start or steps > 2 * len(edge_list):
                break
        if steps % 2:
            raise AssertionError("odd 2-factor cycle in a bipartite graph")
    return TaitColoring(tuple(colors))
