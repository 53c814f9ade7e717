"""Face equation systems over GF(3), spin vectors, and their coloring twins.

Every face of an embedded cubic graph on 2n vertices yields one equation:
the spins of its vertices sum to 0 mod 3.  All 2n face-membership columns
sum to zero over the full face set (each vertex lies on exactly three
faces), so one equation is redundant; dropping a single face leaves the
*main* system of n+1 equations in 2n spin variables.  The dropped face is
the one matching ``outer_face_hint`` when present, else the face with the
lexicographically smallest cycle -- ranks and solution sets do not depend
on the choice.

A Heawood vector is an everywhere-nonzero solution, one spin per vertex, +1
stored as 1 and -1 as 2.  Spins drive edge colors: walking the three edges of
vertex v in counterclockwise rotation order advances the color by the constant
step sigma(v).  A breadth-first propagation from a seeded edge, compiled once
per graph and seed and replayed per vector, gives a vector's proper
3-edge-coloring; a 27-entry table reads the spins back off any coloring.

Counting does not enumerate.  ``count_tait_colorings_heawood`` writes each
face equation as a character sum over Z3, which leaves one small integer
factor per vertex over its three faces, and sums the face characters out
one at a time (bucket elimination on the face system that Penrose uses to
count Tait colorings), in an order planned on the face graph before any
table is built.  Its cost follows 3**width, the width being the most faces
one step joins (about the treewidth of the dual triangulation, O(sqrt n) on
planar graphs), not the number of colorings.  Listing the vectors
(``enumerate_heawood_vectors``) drops a branch of free spins as soon as a
pivot spin it fixes is 0, so its work follows the surviving branches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf3
from .colorings import TaitColoring
from .errors import (
    ContractionError,
    EnumerationLimitError,
    InvalidGraphError,
    ImproperColoringError,
    NotAHeawoodVectorError,
    NotBipartiteError,
)
from .graphs import (
    _per_graph,
    Bipartition,
    Edge,
    EmbeddedCubicGraph,
    Face,
    edges,
    incident_edges_ccw,
    is_bipartite,
    trace_faces,
    validate,
)

__all__ = [
    "HeawoodSystem",
    "HeawoodVector",
    "build_main_sle",
    "sle_rank",
    "enumerate_heawood_vectors",
    "count_tait_colorings_heawood",
    "heawood_to_tait",
    "tait_to_heawood",
    "bipartite_heawood_vector",
    "contract_triangle",
]

# Maps values equal to a spin (2.0, numpy ints, True) to the int; 1.5 or "1" miss.
_SPINS = {1: 1, 2: 2}

# Most faces one counting elimination step may keep in its table of 3**width
# cells: on 2 vCPUs, counts of width 12 took up to 4.3 s and 0.21 GB, one of
# width 13 took 7.7 s and 0.43 GB.
MAX_ELIMINATION_WIDTH = 12

# At 9*c0 + 3*c1 + c2, the spin of a vertex whose edges have colors c0, c1, c2
# in rotation order: the constant step c1 - c0, or 0 when a color repeats.
_STEP_OF_COLORS = tuple(
    (b - a) % 3 if len({a, b, c}) == 3 else 0 for a in range(3) for b in range(3) for c in range(3)
)

# A vertex's factor over the characters a, b, c of its three faces: its spins
# 1 and 2 give w**u + w**(2u) for u = a + b + c, which is 2 if u = 0 mod 3, else -1.
_VERTEX_FACTOR = np.array(
    [[[2 if (a + b + c) % 3 == 0 else -1 for c in range(3)] for b in range(3)] for a in range(3)],
    dtype=object,
)


@dataclass(frozen=True, eq=False)
class HeawoodSystem:
    """The main face-equation system of an embedded cubic graph.

    Row i of ``matrix`` is the 0/1 membership vector of the face with id
    ``row_face_ids[i]``; column j belongs to vertex j (the vertex index map
    is the identity).  ``faces`` keeps all n+2 traced faces, including the
    dropped one.  ``reduced`` is the matrix's reduced row echelon form,
    eliminated on first use and then shared, read-only, by the rank, the
    free columns, the kernel and the column bases.
    """

    matrix: np.ndarray
    faces: tuple[Face, ...]
    row_face_ids: tuple[int, ...]
    dropped_face_id: int

    @property
    def n_vertices(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def dropped_face(self) -> Face:
        return self.faces[self.dropped_face_id]

    @cached_property
    def reduced(self) -> gf3.RrefResult:
        result = gf3.rref(self.matrix)
        result.rref.setflags(write=False)
        return result


@dataclass(frozen=True)
class HeawoodVector:
    """An everywhere-nonzero spin per vertex: +1 stored as 1, -1 as 2."""

    spins: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            spins = tuple(map(_SPINS.__getitem__, self.spins))
        except (KeyError, TypeError):
            raise ValueError(f"spins must be nonzero mod 3 (1 or 2), got {self.spins}") from None
        object.__setattr__(self, "spins", spins)

    @property
    def signs(self) -> tuple[int, ...]:
        """The spins written as +1 / -1."""
        return tuple(1 if s == 1 else -1 for s in self.spins)


@_per_graph
def _valid_faces(g: EmbeddedCubicGraph) -> tuple[Face, ...]:
    """The faces of ``g``, once ``validate`` finds no problem with it."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError("; ".join(report.problems))
    return trace_faces(g)


def _default_dropped_face(g: EmbeddedCubicGraph, faces: tuple[Face, ...]) -> int:
    if g.outer_face_hint is None:
        return min(faces, key=lambda f: f.vertex_cycle).face_id
    # validate has matched the hint to a face, and no two faces of a valid
    # graph share a vertex set, so the first match is the only one.
    hint = frozenset(g.outer_face_hint)
    return next(f.face_id for f in faces if f.vertex_set == hint)


def build_main_sle(
    g: EmbeddedCubicGraph, drop_face_id: int | None = None
) -> HeawoodSystem:
    """Build the main system: one row per kept face, one column per vertex."""
    return _main_sle(g, drop_face_id)


@_per_graph
def _main_sle(g: EmbeddedCubicGraph, drop_face_id: int | None) -> HeawoodSystem:
    faces = _valid_faces(g)
    if drop_face_id is None:
        drop_face_id = _default_dropped_face(g, faces)
    elif not 0 <= drop_face_id < len(faces):
        raise ValueError(f"face id {drop_face_id} out of range for {len(faces)} faces")
    row_face_ids = tuple(f.face_id for f in faces if f.face_id != drop_face_id)
    matrix = np.zeros((len(row_face_ids), g.n_vertices), dtype=np.uint8)
    for row, face_id in enumerate(row_face_ids):
        matrix[row, list(faces[face_id].vertex_cycle)] = 1
    matrix.setflags(write=False)
    return HeawoodSystem(matrix, faces, row_face_ids, drop_face_id)


def sle_rank(g: EmbeddedCubicGraph, drop_face_id: int | None = None) -> int:
    """Rank of the main system: n+1 when non-bipartite, n when bipartite."""
    rank = build_main_sle(g, drop_face_id).reduced.rank
    n = g.n_vertices // 2
    expected = n if is_bipartite(g) is not None else n + 1
    if rank != expected:
        # The rank is forced by bipartiteness; a mismatch means the system
        # matrix was built wrong, not that the input is unusual.
        raise AssertionError(f"rank {rank} contradicts the bipartite dichotomy ({expected})")
    return rank


@_per_graph
def enumerate_heawood_vectors(g: EmbeddedCubicGraph) -> tuple[HeawoodVector, ...]:
    """All Heawood vectors, sorted lexicographically by spins (1 before 2).

    Free spins are fixed one at a time, the next from the pending pivot row
    with the fewest unfixed; a branch dies once a fixed row's pivot spin is 0.
    """
    solution = build_main_sle(g).reduced.parametric()
    coeffs = solution.pivot_from_free
    # Bit j set means free spin j is 2 = -1; it moves each pivot spin by its coefficient.
    ones, twos = gf3._planes(coeffs == 1), gf3._planes(coeffs == 2)
    support = [o | t for o, t in zip(ones, twos)]
    base = (coeffs.sum(axis=1, dtype=np.int64) % 3).tolist()
    live, pending, unfixed = [0], list(range(len(base))), (1 << len(solution.free_cols)) - 1
    while True:
        for i in [i for i in pending if not support[i] & unfixed]:
            pending.remove(i)
            o, t, b = ones[i], twos[i], base[i]
            live = [x for x in live if (b + (x & o).bit_count() - (x & t).bit_count()) % 3]
        if not unfixed:
            break
        row = min(pending, key=lambda i: (support[i] & unfixed).bit_count(), default=None)
        choices = unfixed if row is None else support[row] & unfixed
        bit = choices & -choices
        unfixed ^= bit
        live += [x | bit for x in live]
    full = solution.substitute_batch(gf3._unplanes(live, len(solution.free_cols)) + 1)
    full = full[np.lexsort(full.T[::-1])]
    return tuple(HeawoodVector(tuple(row)) for row in full.tolist())


def count_tait_colorings_heawood(g: EmbeddedCubicGraph) -> int:
    """Number of proper 3-edge-colorings: three per Heawood vector.

    The Heawood vectors are counted, not listed.  With w = exp(2*pi*i/3),
    a face's equation holds exactly when (1/3) * sum over t in Z3 of
    w**(t * its spin sum) is 1, and is 0 otherwise.  Summing every spin
    over {1, 2} then leaves one integer factor per vertex,
    h(a + b + c) over the characters a, b, c of its three faces, with
    h(0) = 2 and h(1) = h(2) = -1.  The count is 3**-(n+2) times the sum of
    the product of these factors over all characters of the n+2 faces.
    A plan on the face graph alone first orders the faces, always one with
    the fewest neighbours left, and raises ``EnumerationLimitError`` before
    any table is built if one would span more than ``MAX_ELIMINATION_WIDTH``
    faces.  Bucket elimination then sums the faces out in that order, in
    exact Python ints.  Time and memory follow 3**width, ``width`` the most
    neighbours a face had when summed out, whatever the number of colorings.
    """
    faces = _valid_faces(g)
    vertex_faces: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for face in faces:
        for v in face.vertex_cycle:
            vertex_faces[v].append(face.face_id)
    neighbours = [
        set().union(*(vertex_faces[v] for v in f.vertex_cycle)) - {f.face_id} for f in faces
    ]
    heap = [(len(around), f) for f, around in enumerate(neighbours)]
    heapq.heapify(heap)
    plan: list[tuple[int, tuple[int, ...]]] = []  # each face and its neighbours when summed out
    step = [-1] * len(faces)  # each face's place in the plan
    while heap:
        width, x = heapq.heappop(heap)
        if step[x] >= 0 or width != len(neighbours[x]):
            continue
        if width > MAX_ELIMINATION_WIDTH:
            raise EnumerationLimitError(
                f"counting elimination is limited to width {MAX_ELIMINATION_WIDTH}; "
                f"the least-neighbour order reaches width {width}"
            )
        step[x], scope = len(plan), tuple(sorted(neighbours[x]))
        plan.append((x, scope))
        for y in scope:
            neighbours[y].update(scope)
            neighbours[y].difference_update((x, y))
            heapq.heappush(heap, (len(neighbours[y]), y))
    # Each table waits in the bucket of its first face in the plan.
    buckets: list[list] = [[] for _ in plan]
    for scope in vertex_faces:
        buckets[min(step[f] for f in scope)].append((scope, _VERTEX_FACTOR))
    for (x, scope), bucket in zip(plan, buckets):
        axis = {f: k for k, f in enumerate((x,) + scope)}
        operands: list = []
        for held_scope, held in bucket:
            operands += [held, [axis[f] for f in held_scope]]
        bucket.clear()  # a summed-out table is freed with this step's operands
        table = np.einsum(*operands, list(range(1, len(scope) + 1)))
        if scope:
            buckets[min(step[f] for f in scope)].append((scope, table))
    # The face graph is connected, so only the last face leaves a scalar.
    vectors, remainder = divmod(table, 3 ** len(faces))
    if remainder:
        raise AssertionError(f"character sum {table} is not a multiple of 3**{len(faces)}")
    return 3 * vectors


@_per_graph
def _conversion_tables(g: EmbeddedCubicGraph):
    """Validate ``g`` once, then keep its edges, their ids and each vertex's edge ids ccw."""
    _valid_faces(g)
    edge_list = edges(g)
    edge_index = {e: i for i, e in enumerate(edge_list)}
    incident = tuple(
        tuple(edge_index[e] for e in incident_edges_ccw(g, v)) for v in range(g.n_vertices)
    )
    return edge_list, edge_index, incident


@_per_graph
def _propagation_plan(g: EmbeddedCubicGraph, seed: int):
    """Breadth-first color propagation from edge id ``seed``, whose order no spin changes.

    Each relation met, colors[other] = colors[e] + j * spins[vertex], goes to
    ``steps`` if it colors a new edge, else to ``checks`` unless ``other`` left
    the queue first and so met it already; both as flat columns other, e, vertex, j.
    """
    edge_list, _, incident = _conversion_tables(g)
    queue, position, steps, checks = [seed], {seed: 0}, [], []
    for e in queue:  # the queue grows while it is walked, first in first out
        for vertex in edge_list[e]:
            triple = incident[vertex]
            k = triple.index(e)
            for j in (1, 2):
                other = triple[(k + j) % 3]
                if other not in position:
                    position[other] = len(queue)
                    queue.append(other)
                    steps.append((other, e, vertex, j))
                elif position[other] > position[e]:
                    checks.append((other, e, vertex, j))
    if len(queue) != len(edge_list):
        raise AssertionError("propagation missed an edge of a connected graph")
    return tuple(zip(*steps)), tuple(zip(*checks))


def heawood_to_tait(
    g: EmbeddedCubicGraph, vector: HeawoodVector, seed_edge: Edge, seed_color: int
) -> TaitColoring:
    """Propagate edge colors from one seeded edge using the vertex spin steps.

    Replays the seed's stored propagation plan: its steps color every edge;
    its checks all hold exactly when ``vector`` meets every face equation,
    and the first broken one raises ``NotAHeawoodVectorError`` naming its edge.
    """
    edge_list, edge_index, _ = _conversion_tables(g)
    if len(vector.spins) != g.n_vertices:
        raise ValueError(f"vector has {len(vector.spins)} spins for {g.n_vertices} vertices")
    if seed_color not in (0, 1, 2):
        raise ValueError(f"seed color must be 0, 1 or 2, got {seed_color}")
    u, v = seed_edge
    seed = (u, v) if u < v else (v, u)
    if seed not in edge_index:
        raise ValueError(f"unknown seed edge {seed_edge}")
    steps, checks = _propagation_plan(g, edge_index[seed])
    # Every other edge is colored by a step before any step or check reads it.
    spins, colors = vector.spins, [seed_color] * len(edge_list)
    for other, e, vertex, j in zip(*steps):
        colors[other] = (colors[e] + j * spins[vertex]) % 3
    for other, e, vertex, j in zip(*checks):
        if colors[other] != (colors[e] + j * spins[vertex]) % 3:
            raise NotAHeawoodVectorError(
                f"color propagation conflicts at edge {edge_list[other]}: "
                "the given spins are not a Heawood vector"
            )
    return TaitColoring(tuple(colors))


def tait_to_heawood(g: EmbeddedCubicGraph, coloring: TaitColoring) -> HeawoodVector:
    """Read each vertex's counterclockwise color step as its spin from ``_STEP_OF_COLORS``."""
    edge_list, _, incident = _conversion_tables(g)
    colors = coloring.colors
    if len(colors) != len(edge_list):
        raise ValueError(f"coloring has {len(colors)} entries for {len(edge_list)} edges")
    spins = [_STEP_OF_COLORS[9 * colors[a] + 3 * colors[b] + colors[c]] for a, b, c in incident]
    if 0 in spins:
        raise ImproperColoringError(f"edges at vertex {spins.index(0)} repeat a color")
    return HeawoodVector(tuple(spins))


def bipartite_heawood_vector(
    g: EmbeddedCubicGraph, parts: Bipartition | None = None
) -> HeawoodVector:
    """Spin +1 on one part, -1 on the other; valid because every face alternates parts."""
    _valid_faces(g)
    if parts is None:
        parts = is_bipartite(g)
    if parts is None:
        raise NotBipartiteError("graph is not bipartite")
    return HeawoodVector(tuple(1 if v in parts.part_a else 2 for v in range(g.n_vertices)))


def contract_triangle(g: EmbeddedCubicGraph, face_id: int) -> EmbeddedCubicGraph:
    """Collapse a triangular face to one vertex, keeping a planar embedding.

    Surviving vertices keep their relative order starting at 0; the new
    vertex gets the highest id, 2n-3.  Its rotation lists the triangle's
    three outward edges in reverse traced-cycle order, which is their
    counterclockwise order around the collapsed triangle.  Heawood vectors
    of the input whose triangle spins all equal s correspond to vectors of
    the result whose new-vertex spin is -s.
    """
    faces = _valid_faces(g)
    if not 0 <= face_id < len(faces):
        raise ValueError(f"face id {face_id} out of range for {len(faces)} faces")
    cycle = faces[face_id].vertex_cycle
    if len(cycle) != 3:
        raise ContractionError(f"face {face_id} has {len(cycle)} vertices, not a triangle")
    a, b, c = cycle
    triangle = {a, b, c}
    outward = {x: next(w for w in g.rotations[x] if w not in triangle) for x in cycle}
    if len(set(outward.values())) != 3:
        raise ContractionError(
            "contraction would create parallel edges: two triangle vertices "
            "share the outside neighbor"
        )
    survivors = [v for v in range(g.n_vertices) if v not in triangle]
    new_id = {old: i for i, old in enumerate(survivors)}
    z = len(survivors)
    rotations = [
        tuple(z if w in triangle else new_id[w] for w in g.rotations[old]) for old in survivors
    ]
    rotations.append((new_id[outward[c]], new_id[outward[b]], new_id[outward[a]]))
    return EmbeddedCubicGraph(tuple(rotations))
