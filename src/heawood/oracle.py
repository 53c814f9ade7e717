"""Brute-force enumeration of proper 3-edge-colorings, and a matching
construction for bipartite graphs.

This module is deliberately independent of the spin/face machinery: its
only input is adjacency, its techniques are edge-by-edge backtracking and
augmenting paths, so agreement with the algebraic path is evidence rather
than tautology.  Edges are colored in breadth-first discovery order from
vertex 0, which keeps the constraint propagation tight.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .colorings import TaitColoring
from .errors import EnumerationLimitError, InvalidGraphError
from .graphs import Bipartition, Edge, _checked_bipartition, _neighbor_triples, edges

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


def _perfect_matching(
    adjacency: Sequence[Sequence[int]], part_a: Sequence[int], banned: Sequence[int]
) -> list[int]:
    """Partners in a perfect matching of a regular bipartite graph, no vertex
    matched to its entry in ``banned``.

    Each unmatched vertex of part A roots one breadth-first search for an
    augmenting path, which always exists by Koenig's theorem.
    """
    partner = [-1] * len(adjacency)
    for root in part_a:
        came_from, queue, end = {}, [root], -1  # came_from: part B vertex -> part A vertex
        for a in queue:  # the queue grows while it is walked
            for b in adjacency[a]:
                if b != banned[a] and b not in came_from:
                    came_from[b] = a
                    if partner[b] < 0:
                        end = b
                        break
                    queue.append(partner[b])
            if end >= 0:
                break
        if end < 0:
            raise AssertionError("no augmenting path in a regular bipartite graph")
        while end >= 0:  # flip the path back to the root, whose partner is -1
            a = came_from[end]
            partner[a], partner[end], end = end, a, partner[a]
    return partner


def bipartite_tait_construct(g, parts: Bipartition | None = None) -> TaitColoring:
    """Color one perfect matching 0, a second 1 and the edges left over 2.

    A regular bipartite graph has a perfect matching (Koenig); removing it
    from a cubic one leaves a 2-regular bipartite graph, which has another.
    A given ``parts`` must be the graph's bipartition, else
    ``NotBipartiteError`` is raised.
    """
    adjacency = _neighbor_triples(g)
    _check_cubic(adjacency)
    part_a = sorted(_checked_bipartition(g, parts).part_a)
    first = _perfect_matching(adjacency, part_a, [-1] * len(adjacency))
    second = _perfect_matching(adjacency, part_a, first)
    slot = {e: i for i, e in enumerate(edges(g))}
    colors = [2] * len(slot)
    for a in part_a:
        for color, b in enumerate((first[a], second[a])):
            colors[slot[(a, b) if a < b else (b, a)]] = color
    return TaitColoring(tuple(colors))
