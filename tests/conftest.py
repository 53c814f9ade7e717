"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from heawood import (
    ContractionError,
    EmbeddedCubicGraph,
    HeawoodVector,
    build_main_sle,
    contract_triangle,
    gf3,
    trace_faces,
)

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
