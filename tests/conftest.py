"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import itertools
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from heawood import (
    ContractionError,
    EmbeddedCubicGraph,
    HeawoodVector,
    ImproperColoringError,
    NotAHeawoodVectorError,
    TaitColoring,
    build_main_sle,
    contract_triangle,
    enumerate_heawood_vectors,
    gf3,
    trace_faces,
    validate,
)
from heawood.graphs import Edge
from heawood.spins import _conversion_tables

# The repository root, so that tests can draw random planar embeddings
# from the benchmark's generator (perfbench.graphgen).
ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

# The 6-vertex prism exactly as drawn in the classic figure, 0-based:
# triangles {0,1,2} and {3,4,5}, rungs 0-5, 1-3, 2-4, outer quad (0,1,3,5).
CL3_PAPER = EmbeddedCubicGraph(
    (
        (5, 2, 1),
        (3, 0, 2),
        (4, 1, 0),
        (1, 4, 5),
        (3, 2, 5),
        (3, 4, 0),
    ),
    outer_face_hint=(0, 1, 3, 5),
)

# Relabeling that carries the figure's ids onto circular_ladder(3)'s
# (rim v1 v2 v3 = 0 1 2, hub w1 w2 w3 = 3 4 5).
CL3_PAPER_TO_GENERATOR = (0, 1, 2, 4, 5, 3)

# The three 2-element dependence witnesses of the figure, 0-based.
CL3_ZEBRA_PAIRS = (frozenset({0, 5}), frozenset({1, 3}), frozenset({2, 4}))

# Cubic graph with a bridge 4-9: two K4-minus-an-edge blobs, each repaired
# by an extra vertex, so every vertex is cubic but 4 and 9 are cut vertices.
DUMBBELL = EmbeddedCubicGraph(
    (
        (2, 3, 4),
        (2, 3, 4),
        (0, 1, 3),
        (0, 1, 2),
        (0, 1, 9),
        (7, 8, 9),
        (7, 8, 9),
        (5, 6, 8),
        (5, 6, 7),
        (5, 6, 4),
    )
)


@pytest.fixture
def cl3_paper() -> EmbeddedCubicGraph:
    return CL3_PAPER


def kernel_scan(matrix, nonzero_only: bool = False) -> set[tuple[int, ...]]:
    """All solutions of matrix . x = 0 over GF(3) by scanning all 3**cols vectors."""
    mat = np.asarray(matrix, dtype=np.int64)
    n = mat.shape[1]
    total = 3**n
    vecs = np.empty((total, n), dtype=np.int64)
    for j in range(n):
        vecs[:, j] = (np.arange(total) // (3 ** (n - 1 - j))) % 3
    ok = ((vecs @ mat.T) % 3 == 0).all(axis=1)
    if nonzero_only:
        ok &= (vecs != 0).all(axis=1)
    return {tuple(int(x) for x in row) for row in vecs[ok]}


def brute_force_rank(matrix) -> int:
    """Rank over GF(3) via the kernel: rank = cols - log3(#solutions)."""
    mat = np.asarray(matrix, dtype=np.int64)
    count = len(kernel_scan(mat))
    dim = 0
    while 3**dim < count:
        dim += 1
    assert 3**dim == count, "kernel size must be a power of 3"
    return mat.shape[1] - dim


def triangle_contractions(g):
    """Every contraction of a triangular face of ``g`` that is defined."""
    for face in trace_faces(g):
        if len(face) == 3:
            try:
                yield contract_triangle(g, face.face_id)
            except ContractionError:
                pass


def row_of_face(system, face_id: int) -> int | None:
    """Matrix row holding this face's equation, or None for the dropped face."""
    try:
        return system.row_face_ids.index(face_id)
    except ValueError:
        return None


def negated(vector: HeawoodVector) -> HeawoodVector:
    return HeawoodVector(tuple(3 - s for s in vector.spins))


def nullspace_basis(matrix) -> list[np.ndarray]:
    """Kernel basis, one vector per free column, in free-column order."""
    solution = gf3.solve_parametric(matrix)
    return list(solution.substitute_batch(np.eye(len(solution.free_cols), dtype=np.uint8)))


def reference_nonsingular(blocks) -> np.ndarray:
    """Which matrices of a ``(count, r, r)`` stack are invertible, eliminating all at once.

    The former library test behind linear-mode minimal defining sets, kept
    as the reference they are checked against.
    """
    mat = gf3.as_gf3(blocks, 3)
    if mat.shape[1] != mat.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mat.shape}")
    count, size, _ = mat.shape
    every = np.arange(count)
    ok = np.ones(count, dtype=bool)
    for k in range(size):
        nonzero = mat[:, k:, k] != 0
        ok &= nonzero.any(axis=1)
        pivot = k + nonzero.argmax(axis=1)
        mat[every, k], mat[every, pivot] = mat[every, pivot], mat[every, k]
        # Nonzero elements are their own inverses; singular blocks just zero a row.
        mat[:, k] = (mat[:, k] * mat[:, k, k, None]) % 3
        factors = (3 - mat[:, k + 1 :, k]) % 3
        mat[:, k + 1 :] = (mat[:, k + 1 :] + factors[:, :, None] * mat[:, None, k]) % 3
    return ok


# Vertex masks per heawood-mode step: at most 2**8 vectors on 16 vertices keep it ~4 MB.
_MASK_CHUNK = 1 << 12


def reference_minimal_defining_sets(g, mode="linear", max_size=None) -> tuple[frozenset[int], ...]:
    """Minimal defining sets by column bases (linear) and sorted masked vectors (heawood).

    The former library search, kept as the differential reference for the
    agreement-mask table.  Linear mode takes the complements of the column
    bases of the main system, found by one batched elimination of every
    rank-sized column block of its reduced form.  Heawood mode tabulates,
    for every vertex mask, whether the Heawood vectors masked to it are
    distinct, sorting chunk by chunk.  Argument checks are left to the
    library.
    """
    n_vertices = g.n_vertices
    limit = n_vertices if max_size is None else int(max_size)
    if mode == "linear":
        reduced = build_main_sle(g).reduced
        rank = reduced.rank
        if limit < n_vertices - rank:
            return ()
        bases = np.array(list(itertools.combinations(range(n_vertices), rank)), dtype=np.intp)
        blocks = reduced.rref[:rank, bases].transpose(1, 0, 2)
        everything = frozenset(range(n_vertices))
        found = [everything.difference(b) for b in bases[reference_nonsingular(blocks)].tolist()]
    else:
        vectors = enumerate_heawood_vectors(g)
        codes = [sum(1 << v for v, s in enumerate(vec.spins) if s == 2) for vec in vectors]
        codes = np.array(codes, dtype=np.int32)
        masks = np.arange(1 << n_vertices, dtype=np.int32)
        defining = np.empty(masks.size, dtype=bool)
        for start in range(0, masks.size, _MASK_CHUNK):
            seen = np.sort(masks[start : start + _MASK_CHUNK, None] & codes, axis=1)
            defining[start : start + _MASK_CHUNK] = (seen[:, 1:] != seen[:, :-1]).all(axis=1)
        minimal = defining.copy()
        for v in range(n_vertices):
            # Masks with bit v set sit at [:, 1], the same masks without it at [:, 0].
            minimal.reshape(-1, 2, 1 << v)[:, 1] &= ~defining.reshape(-1, 2, 1 << v)[:, 0]
        found = [
            frozenset(v for v in range(n_vertices) if mask >> v & 1)
            for mask in np.flatnonzero(minimal).tolist()
        ]
    return tuple(sorted((s for s in found if len(s) <= limit), key=lambda s: (len(s), sorted(s))))


def _sign_patterns(k: int) -> np.ndarray:
    """All 2**k rows over {1, 2}, in lexicographic order."""
    if k == 0:
        return np.ones((1, 0), dtype=np.uint8)
    bits = (np.arange(2**k, dtype=np.int64)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (bits + 1).astype(np.uint8)


def reference_enumeration(g) -> tuple[HeawoodVector, ...]:
    """Heawood vectors by back-substituting all 2**(#free) sign patterns.

    The former library enumeration, kept as the differential reference:
    every everywhere-nonzero assignment of the free columns is tried, and
    those whose pivot spins include a 0 are discarded.
    """
    solution = build_main_sle(g).reduced.parametric()
    full = solution.substitute_batch(_sign_patterns(len(solution.free_cols)))
    keep = (full != 0).all(axis=1)
    spin_tuples = sorted(tuple(int(x) for x in row) for row in full[keep])
    return tuple(HeawoodVector(s) for s in spin_tuples)


# Start vertices, spread over the labels, from which the counting sweep
# tries a greedy order: one start alone made the cost depend on labelling.
_ORDER_STARTS = 4


def reference_sweep_count(g: EmbeddedCubicGraph) -> int:
    """Number of proper 3-edge-colorings by a frontier sweep over the vertices.

    The former library count, kept as the differential reference for the
    face elimination: a sweep over the vertices keeps, per distinct tuple of
    partial spin sums mod 3 of the open faces, the exact number of spin
    assignments that reach it, and drops those in which a face closing at
    the current vertex sums to nonzero.  All n+2 faces are checked, the
    redundant one included.  It has no size limit.
    """
    assert validate(g).ok
    faces = trace_faces(g)
    sizes = [len(face) for face in faces]
    vertex_faces: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for face in faces:
        for v in face.vertex_cycle:
            vertex_faces[v].append(face.face_id)
    best_order: list[int] = []
    best_score = None
    for k in range(_ORDER_STARTS):
        start = g.n_vertices * k // _ORDER_STARTS
        found = _greedy_order(g, vertex_faces, sizes, start, best_score)
        if found is not None:
            best_order, best_score = found
    return 3 * _count_heawood_vectors(vertex_faces, sizes, best_order)


def _greedy_order(
    g: EmbeddedCubicGraph,
    vertex_faces: list[list[int]],
    sizes: list[int],
    start: int,
    bound: int | None,
) -> tuple[list[int], int] | None:
    """A min-frontier sweep order from ``start`` and its score, sum of 3**width.

    Each step takes, among the unswept neighbours of swept vertices, the one
    that opens the fewest faces net of those it closes, then the one with
    the most swept neighbours, then the one on the open face with the fewest
    unswept vertices left, then the one discovered first.  Returns None once
    the score reaches ``bound``.
    """
    remaining = list(sizes)
    swept_neighbours = [0] * g.n_vertices
    discovered = {start}
    candidates = [start]
    order: list[int] = []
    width = score = 0

    def rank(v: int) -> tuple[int, int, int]:
        growth, nearest_close = 0, g.n_vertices
        for f in vertex_faces[v]:
            left = remaining[f]
            if left == sizes[f]:
                growth += 1
            else:
                growth -= left == 1
                nearest_close = min(nearest_close, left)
        return growth, -swept_neighbours[v], nearest_close

    while candidates:
        v = min(candidates, key=rank)
        width += rank(v)[0]
        score += 3**width
        if bound is not None and score >= bound:
            return None
        candidates.remove(v)
        order.append(v)
        for f in vertex_faces[v]:
            remaining[f] -= 1
        for w in g.rotations[v]:
            swept_neighbours[w] += 1
            if w not in discovered:
                discovered.add(w)
                candidates.append(w)
    return order, score


def _count_heawood_vectors(
    vertex_faces: list[list[int]], sizes: list[int], order: list[int]
) -> int:
    """Number of spin vectors, swept in ``order``, that satisfy every face."""
    # Each open face holds a slot of the state tuple from its first swept
    # vertex to its last; a closed face's slot is reset to 0 and reused.
    remaining = list(sizes)
    slot_of: dict[int, int] = {}
    free: list[int] = []
    n_slots = 0
    steps: list[tuple[list[int], list[int]]] = []
    for v in order:
        touched: list[int] = []
        closing: list[int] = []
        for f in vertex_faces[v]:
            remaining[f] -= 1
            if f not in slot_of:
                if free:
                    slot_of[f] = free.pop()
                else:
                    slot_of[f] = n_slots
                    n_slots += 1
            (touched if remaining[f] else closing).append(slot_of[f])
        for f in vertex_faces[v]:
            if not remaining[f]:
                free.append(slot_of.pop(f))
        steps.append((touched, closing))

    states = {(0,) * n_slots: 1}
    for touched, closing in steps:
        following: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            if closing:
                # A face closes at 0 mod 3 only if its sum so far is -s.
                partial = state[closing[0]]
                if partial == 0 or any(state[k] != partial for k in closing):
                    continue
                spins = (3 - partial,)
            else:
                spins = (1, 2)
            for s in spins:
                after = list(state)
                for k in touched:
                    after[k] = (after[k] + s) % 3
                for k in closing:
                    after[k] = 0
                key = tuple(after)
                following[key] = following.get(key, 0) + count
        states = following
    return sum(states.values())


def reference_heawood_to_tait(
    g: EmbeddedCubicGraph,
    vector: HeawoodVector,
    seed_edge: Edge,
    seed_color: int,
) -> TaitColoring:
    """Propagate edge colors from one seeded edge using the vertex spin steps.

    The former library conversion, kept as the differential reference for
    the compiled propagation plan: a fresh breadth-first search per vector.

    Breadth-first over edges through shared vertices; reaching all 3n edges
    without conflict is exactly what certifies ``vector`` against every
    face equation, so a conflict raises ``NotAHeawoodVectorError``.
    """
    edge_list, edge_index, incident = _conversion_tables(g)
    if len(vector.spins) != g.n_vertices:
        raise ValueError(f"vector has {len(vector.spins)} spins for {g.n_vertices} vertices")
    if seed_color not in (0, 1, 2):
        raise ValueError(f"seed color must be 0, 1 or 2, got {seed_color}")
    u, v = seed_edge
    seed = (u, v) if u < v else (v, u)
    if seed not in edge_index:
        raise ValueError(f"unknown seed edge {seed_edge}")

    colors: list[int | None] = [None] * len(edge_list)
    colors[edge_index[seed]] = seed_color
    queue: deque[int] = deque([edge_index[seed]])
    while queue:
        e = queue.popleft()
        c = colors[e]
        for vertex in edge_list[e]:
            triple = incident[vertex]
            k = triple.index(e)
            step = vector.spins[vertex]
            for j in (1, 2):
                other = triple[(k + j) % 3]
                expected = (c + j * step) % 3
                if colors[other] is None:
                    colors[other] = expected
                    queue.append(other)
                elif colors[other] != expected:
                    raise NotAHeawoodVectorError(
                        f"color propagation conflicts at edge {edge_list[other]}: "
                        "the given spins are not a Heawood vector"
                    )
    if any(c is None for c in colors):
        raise AssertionError("propagation missed an edge of a connected graph")
    return TaitColoring(tuple(colors))


def reference_tait_to_heawood(g: EmbeddedCubicGraph, coloring: TaitColoring) -> HeawoodVector:
    """Read each vertex's constant counterclockwise color step as its spin.

    The former library conversion, kept as the differential reference for
    the step table.
    """
    edge_list, _, incident = _conversion_tables(g)
    if len(coloring.colors) != len(edge_list):
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for {len(edge_list)} edges"
        )
    spins: list[int] = []
    for vertex in range(g.n_vertices):
        c0, c1, c2 = (coloring.colors[e] for e in incident[vertex])
        if len({c0, c1, c2}) != 3:
            raise ImproperColoringError(f"edges at vertex {vertex} repeat a color")
        step = (c1 - c0) % 3
        if step != (c2 - c1) % 3 or step not in (1, 2):
            # Three distinct colors in cyclic order always advance by a
            # constant nonzero step; hitting this means a bug, not bad input.
            raise AssertionError(f"non-constant color step at vertex {vertex}")
        spins.append(step)
    return HeawoodVector(tuple(spins))
