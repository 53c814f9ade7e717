"""Seeded inputs: random planar cubic embeddings and fresh relabellings.

Random graphs grow from K4 by *joins*: pick a face, two distinct edges
(v_i, v_i+1) and (v_j, v_j+1) on its traced cycle, subdivide them with new
vertices x and y, and connect x to y across the face.  With the rotations
x: (v_i, y, v_i+1) and y: (v_j, x, v_j+1) the face splits in two and every
other face is only subdivided, so the embedding stays planar, simple and
biconnected, and each join adds two vertices and one face.
"""

from __future__ import annotations

import random

from heawood import EmbeddedCubicGraph, k4, relabel, trace_faces, validate


def _replace(rotations: list[list[int]], v: int, old: int, new: int) -> None:
    rotations[v][rotations[v].index(old)] = new


def _subdivide(face: list[int], u: int, w: int, x: int) -> list[int]:
    """``face`` with ``x`` inserted between its consecutive vertices ``u``, ``w``."""
    k = next(k for k in range(len(face)) if face[k] == u and face[(k + 1) % len(face)] == w)
    return face[:k + 1] + [x] + face[k + 1:]


def random_planar_cubic(n_vertices: int, rng: random.Random) -> EmbeddedCubicGraph:
    """A random biconnected planar cubic embedding on ``n_vertices`` (even, >= 4).

    The faces are traced once, from K4, and then updated by each join, which
    keeps generation linear in the size of the graph.
    """
    if n_vertices < 4 or n_vertices % 2:
        raise ValueError(f"need an even vertex count >= 4, got {n_vertices}")
    rotations = [list(t) for t in k4().rotations]
    faces = [list(f.vertex_cycle) for f in trace_faces(k4())]
    # face_of[(u, w)]: index in ``faces`` of the face walking the dart u -> w.
    face_of = {}
    for index, cycle in enumerate(faces):
        for k, u in enumerate(cycle):
            face_of[u, cycle[(k + 1) % len(cycle)]] = index
    while len(rotations) < n_vertices:
        index = rng.randrange(len(faces))
        cycle = faces[index]
        i, j = rng.sample(range(len(cycle)), 2)
        vi, vi1 = cycle[i], cycle[(i + 1) % len(cycle)]
        vj, vj1 = cycle[j], cycle[(j + 1) % len(cycle)]
        x, y = len(rotations), len(rotations) + 1
        _replace(rotations, vi, vi1, x)
        _replace(rotations, vi1, vi, x)
        _replace(rotations, vj, vj1, y)
        _replace(rotations, vj1, vj, y)
        rotations.append([vi, y, vi1])
        rotations.append([vj, x, vj1])
        # The face splits along x - y; the faces across the two subdivided
        # edges (distinct from it, the graph being biconnected) gain x or y.
        n = len(cycle)
        changed = {
            index: [x, y] + [cycle[(k + j + 1) % n] for k in range((i - j) % n)],
            len(faces): [y, x] + [cycle[(k + i + 1) % n] for k in range((j - i) % n)],
        }
        faces.append([])
        for u, w in ((vi, vi1), (vj, vj1)):
            del face_of[u, w]
        across_i, across_j = face_of.pop((vi1, vi)), face_of.pop((vj1, vj))
        changed[across_i] = _subdivide(faces[across_i], vi1, vi, x)
        changed[across_j] = _subdivide(changed.get(across_j, faces[across_j]), vj1, vj, y)
        for f, new_cycle in changed.items():
            faces[f] = new_cycle
            for k, u in enumerate(new_cycle):
                face_of[u, new_cycle[(k + 1) % len(new_cycle)]] = f
    g = EmbeddedCubicGraph(tuple(map(tuple, rotations)))
    report = validate(g)
    if not report.ok:
        raise AssertionError(f"generator produced an invalid embedding: {report.problems}")
    return g


def fresh_relabelling(
    g: EmbeddedCubicGraph, rng: random.Random
) -> tuple[EmbeddedCubicGraph, list[int]]:
    """The same embedding under a random old -> new vertex permutation.

    Each rotation is also restated from a random starting neighbour (the
    same cyclic order), so even graphs with few relabellings up to
    automorphism, such as K4, yield many distinct representations.
    """
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    moved = relabel(g, perm)
    rotations = []
    for triple in moved.rotations:
        k = rng.randrange(3)
        rotations.append(triple[k:] + triple[:k])
    return EmbeddedCubicGraph(tuple(rotations), moved.outer_face_hint), perm
