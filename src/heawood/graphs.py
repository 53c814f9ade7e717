"""Cubic graphs as combinatorial embeddings (rotation systems).

An embedded graph stores one counterclockwise-ordered neighbor triple per
vertex; faces are traced on demand, once per graph object, and kept on that
object for its lifetime (never shared between equal objects), so the
rotation system is the single source of truth.

Face tracing rule: after arriving at vertex ``w`` along the dart
``u -> w``, the walk leaves along ``w -> x`` where ``x`` is the neighbor
immediately *after* ``u`` in ``w``'s counterclockwise triple.  Under this
rule every dart lies on exactly one face, internal faces come out in
clockwise vertex order and the outer face counterclockwise.  A planar
rotation system on 2n vertices therefore traces exactly n + 2 faces
(Euler), which is what ``validate`` checks.

The line-oriented text format::

    # comment
    vertices 6
    0: 5 2 1
    ...
    outer: 0 1 3 5

gives the neighbor triple of each vertex in counterclockwise order, with
0-based decimal ids, plus an optional outer-face marker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Sequence

from .errors import FaceTraversalError, GraphFormatError, InvalidGraphError

__all__ = [
    "Edge",
    "Dart",
    "EmbeddedCubicGraph",
    "CubicGraph",
    "Face",
    "Bipartition",
    "ValidationReport",
    "validate",
    "trace_faces",
    "is_bipartite",
    "edges",
    "incident_edges_ccw",
    "relabel",
    "as_cubic",
    "parse_graph",
    "parse_cubic",
    "format_graph",
    "load_graph",
    "load_cubic",
]

Edge = tuple[int, int]
Dart = tuple[int, int]

@dataclass(frozen=True)
class EmbeddedCubicGraph:
    """A cubic graph plus, per vertex, its neighbors in counterclockwise order."""

    rotations: tuple[tuple[int, ...], ...]
    outer_face_hint: tuple[int, ...] | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rotations", tuple(tuple(int(x) for x in triple) for triple in self.rotations)
        )
        if self.outer_face_hint is not None:
            object.__setattr__(
                self, "outer_face_hint", tuple(int(x) for x in self.outer_face_hint)
            )

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)


@dataclass(frozen=True)
class CubicGraph:
    """A cubic graph as bare neighbor triples, no embedding semantics."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "adjacency", tuple(tuple(int(x) for x in triple) for triple in self.adjacency)
        )

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)


@dataclass(frozen=True)
class Face:
    """One traced face cycle, rotated so its smallest vertex comes first."""

    face_id: int
    vertex_cycle: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertex_cycle)

    def __len__(self) -> int:
        return len(self.vertex_cycle)


@dataclass(frozen=True)
class Bipartition:
    part_a: frozenset[int]
    part_b: frozenset[int]


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]
    n_vertices: int
    n_edges: int | None = None
    n_faces: int | None = None
    bipartite: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _neighbor_triples(g) -> tuple[tuple[int, ...], ...]:
    if isinstance(g, EmbeddedCubicGraph):
        return g.rotations
    if isinstance(g, CubicGraph):
        return g.adjacency
    raise TypeError(f"expected EmbeddedCubicGraph or CubicGraph, got {type(g).__name__}")


def _canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _next_dart(rotations: Sequence[Sequence[int]], dart: Dart) -> Dart:
    u, w = dart
    if not 0 <= w < len(rotations):
        raise FaceTraversalError(
            f"vertex {u} lists unknown neighbor {w}; face walk cannot continue"
        )
    triple = rotations[w]
    try:
        k = triple.index(u)
    except ValueError:
        raise FaceTraversalError(
            f"rotation of vertex {w} does not list {u}; face walk cannot continue"
        ) from None
    return (w, triple[(k + 1) % len(triple)])


def _per_graph(fn):
    """Compute ``fn(g, *args)`` once per graph object and keep it in ``g._derived``.

    A raised exception is not kept, so an invalid graph raises on every call.
    """

    @wraps(fn)
    def once(g: EmbeddedCubicGraph, *args):
        key = (once, *args)  # not ``fn``: a module-level name, so a used graph pickles
        if key not in g._derived:
            g._derived[key] = fn(g, *args)
        return g._derived[key]

    return once


@_per_graph
def trace_faces(g: EmbeddedCubicGraph) -> tuple[Face, ...]:
    """All face cycles of the embedding, ids in deterministic discovery order.

    Traced once per graph; the faces are frozen, so callers share one trace.
    """
    rotations = g.rotations
    n_darts = sum(len(t) for t in rotations)
    visited: set[Dart] = set()
    faces: list[Face] = []
    for u in range(len(rotations)):
        for w in rotations[u]:
            start = (u, w)
            if start in visited:
                continue
            cycle: list[int] = []
            dart = start
            for _ in range(n_darts + 1):
                visited.add(dart)
                cycle.append(dart[0])
                dart = _next_dart(rotations, dart)
                if dart == start:
                    break
            else:
                raise FaceTraversalError(
                    "face walk failed to close on its starting dart; "
                    "the rotation system is malformed"
                )
            faces.append(Face(face_id=len(faces), vertex_cycle=_canonical_cycle(cycle)))
    return tuple(faces)


def _reach_and_cut(triples: Sequence[Sequence[int]]) -> tuple[bool, bool]:
    """One lowpoint DFS from vertex 0 of a simple graph: whether it reaches
    every vertex, and whether a vertex it reaches is a cut vertex."""
    n = len(triples)
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    disc[0] = low[0] = 0
    timer = 1
    root_children = 0
    cut = False
    stack: list[list[int]] = [[0, 0]]
    while stack:
        v, slot = stack[-1]
        if slot < len(triples[v]):
            stack[-1][1] += 1
            w = triples[v][slot]
            if disc[w] == -1:
                parent[w] = v
                if v == 0:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                stack.append([w, 0])
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            p = parent[v]
            if p != -1:
                low[p] = min(low[p], low[v])
                cut |= p != 0 and low[v] >= disc[p]
    return timer == n, cut or root_children > 1


def validate(g: EmbeddedCubicGraph) -> ValidationReport:
    """Check every structural requirement; problems are reported, not raised."""
    problems: list[str] = []
    rotations = g.rotations
    n_vertices = g.n_vertices
    if n_vertices == 0:
        return ValidationReport(("graph has no vertices",), 0)
    if n_vertices % 2:
        problems.append(f"vertex count {n_vertices} is odd; a cubic graph has 2n vertices")

    structural_ok = True
    for v, triple in enumerate(rotations):
        if len(triple) != 3:
            problems.append(f"vertex {v} lists {len(triple)} neighbors, expected exactly 3")
            structural_ok = False
            continue
        if v in triple or len(set(triple)) != 3:
            problems.append(f"vertex {v} has a loop or repeated neighbor in {triple}: not simple")
            structural_ok = False
        for w in triple:
            if not 0 <= w < n_vertices:
                problems.append(f"vertex {v} lists unknown neighbor {w}")
                structural_ok = False

    symmetric = structural_ok
    if structural_ok:
        for v, triple in enumerate(rotations):
            for w in triple:
                if v not in rotations[w]:
                    problems.append(f"edge {v}-{w} is one-sided: vertex {w} does not list {v}")
                    symmetric = False

    n_edges = n_faces = None
    bipartite = None
    if symmetric:
        n_edges = 3 * n_vertices // 2
        connected, has_cut_vertex = _reach_and_cut(rotations)
        if not connected:
            problems.append("graph is not connected")
        else:
            bipartite = is_bipartite(g) is not None
            if has_cut_vertex:
                problems.append("graph is not biconnected: it has a cut vertex")
        try:
            faces = trace_faces(g)
            n_faces = len(faces)
            expected = n_vertices // 2 + 2
            if n_vertices % 2 == 0 and n_faces != expected:
                problems.append(
                    f"face tracing gives {n_faces} faces, expected n+2 = {expected}: "
                    "the rotation system is not a planar embedding"
                )
            if g.outer_face_hint is not None:
                hint = frozenset(g.outer_face_hint)
                if not any(f.vertex_set == hint for f in faces):
                    problems.append(
                        f"outer face hint {sorted(hint)} matches no traced face"
                    )
        except FaceTraversalError as exc:
            problems.append(str(exc))

    return ValidationReport(tuple(problems), n_vertices, n_edges, n_faces, bipartite)


def is_bipartite(g) -> Bipartition | None:
    """The 2-coloring with vertex 0 in part A, or None if none exists."""
    triples = _neighbor_triples(g)
    n = len(triples)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in triples[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    part_a = frozenset(v for v in range(n) if color[v] == 0)
    return Bipartition(part_a, frozenset(range(n)) - part_a)


def edges(g) -> tuple[Edge, ...]:
    """All edges as sorted vertex pairs, in sorted order: the canonical indexing."""
    triples = _neighbor_triples(g)
    pairs = {(v, w) if v < w else (w, v) for v, triple in enumerate(triples) for w in triple}
    return tuple(sorted(pairs))


def incident_edges_ccw(g: EmbeddedCubicGraph, v: int) -> tuple[Edge, ...]:
    """The three edges at ``v`` in rotation order, as canonical pairs."""
    if not 0 <= v < g.n_vertices:
        raise InvalidGraphError(f"unknown vertex id {v}")
    return tuple((v, w) if v < w else (w, v) for w in g.rotations[v])


def relabel(g, permutation: Sequence[int]):
    """Apply an old-id -> new-id permutation, preserving rotation order."""
    triples = _neighbor_triples(g)
    n = len(triples)
    perm = [int(x) for x in permutation]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"permutation must be a bijection on 0..{n - 1}")
    new_triples: list[tuple[int, ...]] = [()] * n
    for v, triple in enumerate(triples):
        new_triples[perm[v]] = tuple(perm[w] for w in triple)
    if isinstance(g, EmbeddedCubicGraph):
        hint = None
        if g.outer_face_hint is not None:
            hint = tuple(perm[v] for v in g.outer_face_hint)
        return EmbeddedCubicGraph(tuple(new_triples), hint)
    return CubicGraph(tuple(new_triples))


def as_cubic(g: EmbeddedCubicGraph) -> CubicGraph:
    """Forget the embedding, keeping only adjacency."""
    return CubicGraph(g.rotations)


def parse_graph(text: str) -> EmbeddedCubicGraph:
    """Parse the line-oriented text format (see module docstring)."""
    declared: int | None = None
    triples: dict[int, tuple[int, ...]] = {}
    outer: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices"):
            if declared is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'vertices' header")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphFormatError(f"line {lineno}: expected 'vertices <count>'")
            declared = int(parts[1])
        elif line.startswith("outer:"):
            if outer is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'outer' line")
            try:
                outer = tuple(int(x) for x in line[len("outer:"):].split())
            except ValueError:
                raise GraphFormatError(f"line {lineno}: outer vertices must be integers") from None
        else:
            head, sep, rest = line.partition(":")
            if not sep:
                raise GraphFormatError(f"line {lineno}: expected '<id>: <a> <b> <c>'")
            try:
                v = int(head)
                neighbors = tuple(int(x) for x in rest.split())
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex ids must be integers") from None
            if len(neighbors) != 3:
                raise GraphFormatError(
                    f"line {lineno}: vertex {v} lists {len(neighbors)} neighbors, expected 3"
                )
            if v in triples:
                raise GraphFormatError(f"line {lineno}: duplicate line for vertex {v}")
            triples[v] = neighbors
    if declared is None:
        raise GraphFormatError("missing 'vertices <count>' header")
    # Compare sizes first, so that nothing sized by the header is built.
    if len(triples) != declared or sorted(triples) != list(range(declared)):
        raise GraphFormatError(
            f"vertex lines cover {sorted(triples)} but the header declares 0..{declared - 1}"
        )
    return EmbeddedCubicGraph(tuple(triples[v] for v in range(declared)), outer)


def parse_cubic(text: str) -> CubicGraph:
    """Parse the same text format, ignoring rotation-order semantics."""
    return as_cubic(parse_graph(text))


def format_graph(g) -> str:
    """Serialize a graph back into the text format."""
    triples = _neighbor_triples(g)
    lines = [f"vertices {len(triples)}"]
    for v, triple in enumerate(triples):
        lines.append(f"{v}: " + " ".join(str(w) for w in triple))
    if isinstance(g, EmbeddedCubicGraph) and g.outer_face_hint is not None:
        lines.append("outer: " + " ".join(str(v) for v in g.outer_face_hint))
    return "\n".join(lines) + "\n"


def load_graph(path) -> EmbeddedCubicGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def load_cubic(path) -> CubicGraph:
    return parse_cubic(Path(path).read_text(encoding="utf-8"))
