"""Embedding validation, face tracing, and the text format."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heawood import (
    EmbeddedCubicGraph,
    FaceTraversalError,
    GraphFormatError,
    InvalidGraphError,
    as_cubic,
    circular_ladder,
    edges,
    format_graph,
    incident_edges_ccw,
    is_bipartite,
    k4,
    parse_graph,
    petersen,
    relabel,
    trace_faces,
    validate,
)
from heawood.graphs import _next_dart

from conftest import CL3_PAPER, DUMBBELL


def cyclic_classes(faces):
    """Faces as sets of cyclic sequences, start-point independent."""
    out = set()
    for f in faces:
        cyc = f.vertex_cycle
        out.add(frozenset(cyc[k:] + cyc[:k] for k in range(len(cyc))))
    return out


class TestValidate:
    def test_cl3_paper_figure(self):
        report = validate(CL3_PAPER)
        assert report.ok
        assert report.n_vertices == 6
        assert report.n_edges == 9
        assert report.n_faces == 5
        assert report.bipartite is False

    def test_k4(self):
        report = validate(k4())
        assert report.ok
        assert (report.n_vertices, report.n_edges, report.n_faces) == (4, 6, 4)

    def test_repeated_neighbor_not_simple(self):
        rotations = list(CL3_PAPER.rotations)
        rotations[0] = (5, 5, 1)
        report = validate(EmbeddedCubicGraph(tuple(rotations)))
        assert not report.ok
        assert any("not simple" in p for p in report.problems)

    def test_asymmetric_rotations(self):
        rotations = list(CL3_PAPER.rotations)
        rotations[0] = (5, 2, 3)  # 0 now lists 3, but 3 does not list 0
        report = validate(EmbeddedCubicGraph(tuple(rotations)))
        assert any("one-sided" in p for p in report.problems)

    def test_cut_vertex_reported(self):
        report = validate(DUMBBELL)
        assert any("biconnected" in p for p in report.problems)

    def test_disconnected_reported(self):
        two_k4 = EmbeddedCubicGraph(
            ((1, 2, 3), (2, 0, 3), (3, 0, 1), (1, 0, 2),
             (5, 6, 7), (6, 4, 7), (7, 4, 5), (5, 4, 6))
        )
        report = validate(two_k4)
        assert any("not connected" in p for p in report.problems)

    def test_nonplanar_rotation_system_fails_euler(self):
        report = validate(EmbeddedCubicGraph(petersen().adjacency))
        assert not report.ok
        assert any("planar embedding" in p for p in report.problems)

    def test_bad_outer_hint_reported(self):
        g = EmbeddedCubicGraph(CL3_PAPER.rotations, outer_face_hint=(0, 1, 2, 3))
        report = validate(g)
        assert any("outer face hint" in p for p in report.problems)

    def test_unknown_neighbor_reported(self):
        report = validate(EmbeddedCubicGraph(((1, 2, 9), (2, 0, 0), (0, 1, 1))))
        assert any("unknown neighbor" in p for p in report.problems)


class TestTraceFaces:
    def test_cl3_face_set_matches_figure(self):
        faces = trace_faces(CL3_PAPER)
        assert {f.vertex_set for f in faces} == {
            frozenset({0, 1, 2}),
            frozenset({1, 2, 3, 4}),
            frozenset({3, 4, 5}),
            frozenset({0, 2, 4, 5}),
            frozenset({0, 1, 3, 5}),
        }

    def test_cl4_all_faces_quadrilateral(self):
        faces = trace_faces(circular_ladder(4))
        assert len(faces) == 6
        assert all(len(f) == 4 for f in faces)

    def test_k4_all_triangles(self):
        faces = trace_faces(k4())
        assert len(faces) == 4
        assert sorted((f.vertex_set for f in faces), key=sorted) == [
            frozenset({0, 1, 2}),
            frozenset({0, 1, 3}),
            frozenset({0, 2, 3}),
            frozenset({1, 2, 3}),
        ]

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(5)])
    def test_dart_partition(self, g):
        faces = trace_faces(g)
        assert sum(len(f) for f in faces) == 3 * g.n_vertices

    @pytest.mark.parametrize("g", [CL3_PAPER, k4()])
    def test_start_dart_irrelevant(self, g):
        # Walking from any dart of a face reproduces the same cyclic sequence.
        for face in trace_faces(g):
            cyc = face.vertex_cycle
            darts = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            for start in darts:
                walk = [start[0]]
                dart = _next_dart(g.rotations, start)
                while dart != start:
                    walk.append(dart[0])
                    dart = _next_dart(g.rotations, dart)
                assert frozenset(
                    tuple(walk[k:] + walk[:k]) for k in range(len(walk))
                ) == frozenset(tuple(cyc[k:] + cyc[:k]) for k in range(len(cyc)))

    def test_malformed_rotation_raises(self):
        g = EmbeddedCubicGraph(((1, 2, 3), (2, 0, 3), (3, 0, 1), (1, 0, 0)))
        with pytest.raises(FaceTraversalError):
            trace_faces(g)

    def test_traversal_error_raised_on_every_call(self):
        # Faces are kept per graph; a failed trace is not, so it fails each time.
        g = EmbeddedCubicGraph(((1, 2, 3), (2, 0, 3), (3, 0, 1), (1, 0, 4)))
        for _ in range(3):
            with pytest.raises(FaceTraversalError, match="unknown neighbor 4"):
                trace_faces(g)
            assert "vertex 3 lists unknown neighbor 4" in validate(g).problems

    @given(st.permutations(range(6)))
    def test_relabeling_equivariance(self, perm):
        g = relabel(CL3_PAPER, perm)
        faces = trace_faces(g)
        original = trace_faces(CL3_PAPER)
        assert sorted(len(f) for f in faces) == sorted(len(f) for f in original)
        relabeled = cyclic_classes(original)
        mapped = {
            frozenset(tuple(perm[v] for v in seq) for seq in cls) for cls in relabeled
        }
        assert cyclic_classes(faces) == mapped


class TestBipartite:
    def test_cl4_bipartite(self):
        parts = is_bipartite(circular_ladder(4))
        assert parts is not None
        assert 0 in parts.part_a
        assert parts.part_a == frozenset({0, 2, 5, 7})

    def test_cl3_not_bipartite(self):
        assert is_bipartite(CL3_PAPER) is None

    def test_k4_not_bipartite(self):
        assert is_bipartite(k4()) is None


class TestEdges:
    def test_cl3_nine_edges(self):
        es = edges(CL3_PAPER)
        assert len(es) == 9
        assert es == tuple(sorted(es))
        assert all(u < v for u, v in es)

    def test_k4_six_edges(self):
        assert len(edges(k4())) == 6

    def test_incident_edges_follow_rotation(self):
        triple = incident_edges_ccw(CL3_PAPER, 1)
        assert triple == ((1, 3), (0, 1), (1, 2))

    def test_incident_edges_unknown_vertex(self):
        with pytest.raises(InvalidGraphError):
            incident_edges_ccw(CL3_PAPER, 6)


class TestTextFormat:
    def test_roundtrip(self):
        text = format_graph(CL3_PAPER)
        assert parse_graph(text) == CL3_PAPER

    def test_roundtrip_without_hint(self):
        g = EmbeddedCubicGraph(CL3_PAPER.rotations)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a prism\n\nvertices 4\n0: 1 2 3\n1: 2 0 3  # inline\n2: 3 0 1\n3: 1 0 2\n"
        g = parse_graph(text)
        assert g.n_vertices == 4

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("0: 1 2 3\n")

    def test_wrong_neighbor_count(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\n0: 1 1\n1: 0 0\n")

    def test_duplicate_vertex_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\n0: 1 1 1\n0: 1 1 1\n")

    def test_vertex_coverage_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 4\n0: 1 2 3\n")

    def test_huge_header_rejected_before_anything_it_sizes(self):
        text = "vertices 1000000000000000000\n0: 1 2 3\n1: 0 2 3\n"
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == (
            "vertex lines cover [0, 1] but the header declares 0..999999999999999999"
        )

    def test_header_allocates_nothing_it_declares(self):
        # A header of a million vertices cost ~40 MB when the expected id
        # list was built before the vertex lines were counted.
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError):
                parse_graph("vertices 1000000\n0: 1 2 3\n1: 0 2 3\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_integer_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\n0: a b c\n1: 0 0 0\n")

    def test_as_cubic_strips_embedding(self):
        c = as_cubic(CL3_PAPER)
        assert c.adjacency == CL3_PAPER.rotations
