"""Defining sets and dependence witnesses for the main spin system.

A vertex set S is *linear-defining* when the columns outside S are
linearly independent, i.e. no nonzero kernel vector vanishes on S, so
values on S extend to at most one solution.  The minimal ones are
therefore exactly the complements of the column bases of the system
(matroid duality), and all have size 2n - rank: n - 1, or n when the
graph is bipartite.  A set is *Heawood-defining* when restricting the
enumerated Heawood vectors to S is injective; a linear-defining set is
always Heawood-defining, not conversely.  Supersets of defining sets define.

A *zebra witness* for a vertex set T is a nonzero combination of the kept
face equations whose support (vertices with nonzero coefficient in the
combined equation) lies inside T.  One exists exactly when the columns
outside T have rank below the row count; its support is empty only for
bipartite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from . import gf3
from .errors import SubsetSearchLimitError
from .graphs import EmbeddedCubicGraph, is_bipartite
from .spins import HeawoodSystem, build_main_sle, enumerate_heawood_vectors

__all__ = [
    "VertexSet",
    "ZebraWitness",
    "FreeVariableSet",
    "combination_support",
    "zebra_witness",
    "is_linear_defining",
    "is_heawood_defining",
    "free_variable_defining_set",
    "minimal_defining_sets",
]

VertexSet = frozenset[int]

MAX_SUBSET_SEARCH_VERTICES = 16


@dataclass(frozen=True)
class ZebraWitness:
    """A nonzero row combination supported inside the queried vertex set."""

    row_coefficients: tuple[int, ...]
    support: frozenset[int]


@dataclass(frozen=True)
class FreeVariableSet:
    """The non-pivot columns of the main system; size n-1, or n when bipartite."""

    members: frozenset[int]
    bipartite: bool


def _checked_members(g: EmbeddedCubicGraph, vertices: Iterable[int]) -> frozenset[int]:
    members = frozenset(int(v) for v in vertices)
    for v in members:
        if not 0 <= v < g.n_vertices:
            raise ValueError(f"unknown vertex id {v}")
    return members


def combination_support(system: HeawoodSystem, coefficients) -> frozenset[int]:
    """Vertices whose column is nonzero in ``coefficients . matrix``."""
    combined = gf3.row_combination(system.matrix, coefficients)
    return frozenset(int(v) for v in np.nonzero(combined)[0])


def zebra_witness(g: EmbeddedCubicGraph, vertices: Iterable[int]) -> ZebraWitness | None:
    """Some witness supported inside ``vertices``, or None when none exists.

    Any valid witness is returned, not a minimal one: the coefficients are
    the first basis vector of the left kernel of the outside columns, whose
    first free coefficient is 1 and the other free ones 0.
    """
    system = build_main_sle(g)
    members = _checked_members(g, vertices)
    outside = sorted(set(range(system.n_vertices)) - members)
    kernel = gf3.solve_parametric(system.matrix[:, outside].T)
    if not kernel.free_cols:
        return None
    first = [1] + [0] * (len(kernel.free_cols) - 1)
    coefficients = tuple(int(x) for x in kernel.substitute(first))
    support = combination_support(system, coefficients)
    if not support <= members:
        raise AssertionError("witness support leaked outside the queried set")
    if not support and is_bipartite(g) is None:
        raise AssertionError("empty-support combination in a non-bipartite graph")
    return ZebraWitness(coefficients, support)


def is_linear_defining(g: EmbeddedCubicGraph, vertices: Iterable[int]) -> bool:
    """True when the columns outside the set are linearly independent."""
    system = build_main_sle(g)
    members = _checked_members(g, vertices)
    outside = sorted(set(range(system.n_vertices)) - members)
    return gf3.column_submatrix_rank(system.matrix, outside) == len(outside)


def is_heawood_defining(g: EmbeddedCubicGraph, vertices: Iterable[int]) -> bool:
    """True when no two Heawood vectors agree on the set."""
    members = sorted(_checked_members(g, vertices))
    vectors = enumerate_heawood_vectors(g)
    restrictions = [tuple(vec.spins[v] for v in members) for vec in vectors]
    return len(set(restrictions)) == len(restrictions)


def free_variable_defining_set(g: EmbeddedCubicGraph) -> FreeVariableSet:
    """The free columns of the main system; always linear-defining."""
    system = build_main_sle(g)
    pivot = set(system.reduced.pivot_cols)
    members = frozenset(v for v in range(system.n_vertices) if v not in pivot)
    return FreeVariableSet(members, is_bipartite(g) is not None)


def minimal_defining_sets(
    g: EmbeddedCubicGraph,
    mode: Literal["linear", "heawood"] = "linear",
    max_size: int | None = None,
) -> tuple[frozenset[int], ...]:
    """All inclusion-minimal defining sets of size <= max_size.

    A set fails to define exactly when two distinct solutions agree on all
    of it.  Each mode lists, per such pair, the mask of vertices where the
    two agree: in linear mode the zero set of every nonzero kernel vector
    of the main system, in heawood mode the agreement of every pair of
    Heawood vectors.  One table marks those masks, and every mask below
    one, as failing; a defining mask is minimal when no mask one vertex
    smaller is defining.  Linear-mode sets all have size 2n - rank.  Sets
    come sorted by size, then by sorted members.  Refuses graphs above the
    supported size instead of silently truncating.
    """
    if mode not in ("linear", "heawood"):
        raise ValueError(f"mode must be 'linear' or 'heawood', got {mode!r}")
    n_vertices = g.n_vertices
    if n_vertices > MAX_SUBSET_SEARCH_VERTICES:
        raise SubsetSearchLimitError(
            f"subset search supports at most {MAX_SUBSET_SEARCH_VERTICES} vertices, "
            f"got {n_vertices}"
        )
    limit = n_vertices if max_size is None else int(max_size)
    if limit < 0:
        raise ValueError("max_size must be non-negative")
    if mode == "linear":
        kernel = build_main_sle(g).reduced.parametric()
        free = len(kernel.free_cols)
        if limit < free:
            return ()
        agree = kernel.substitute_batch(np.indices((3,) * free).reshape(free, -1).T[1:]) == 0
    else:
        spins = np.array([vec.spins for vec in enumerate_heawood_vectors(g)], dtype=np.uint8)
        first, second = np.triu_indices(len(spins), 1)
        agree = spins[first] == spins[second]
    fails = np.zeros(1 << n_vertices, dtype=bool)
    fails[agree @ (1 << np.arange(n_vertices))] = True
    for v in range(n_vertices):
        # Masks with bit v set sit at [:, 1], the same masks without it at [:, 0].
        fails.reshape(-1, 2, 1 << v)[:, 0] |= fails.reshape(-1, 2, 1 << v)[:, 1]
    minimal = ~fails
    for v in range(n_vertices):
        minimal.reshape(-1, 2, 1 << v)[:, 1] &= fails.reshape(-1, 2, 1 << v)[:, 0]
    bits = np.flatnonzero(minimal)[:, None] >> np.arange(n_vertices) & 1
    sizes = bits.sum(axis=1)
    keep = sizes <= limit
    bits, sizes = bits[keep], sizes[keep]
    # Of two sets of one size, the one holding the lowest vertex where they
    # differ sorts first: the one whose mask, bits reversed, is larger.
    reversed_masks = bits @ (1 << np.arange(n_vertices)[::-1])
    order = np.lexsort((-reversed_masks, sizes))
    members = np.nonzero(bits[order])[1].tolist()
    ends = np.cumsum(sizes[order]).tolist()
    return tuple(frozenset(members[start:end]) for start, end in zip([0, *ends], ends))
