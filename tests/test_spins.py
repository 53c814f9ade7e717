"""The main face system, Heawood vectors, and the coloring correspondence."""

import gc
import pickle
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from heawood import (
    ContractionError,
    EmbeddedCubicGraph,
    EnumerationLimitError,
    HeawoodVector,
    ImproperColoringError,
    InvalidGraphError,
    NotAHeawoodVectorError,
    NotBipartiteError,
    TaitColoring,
    bipartite_heawood_vector,
    build_main_sle,
    circular_ladder,
    cln_formula,
    contract_triangle,
    count_tait_colorings_heawood,
    count_tait_oracle,
    edges,
    enumerate_heawood_vectors,
    enumerate_tait_oracle,
    heawood_to_tait,
    is_bipartite,
    is_proper_coloring,
    free_variable_defining_set,
    k4,
    minimal_defining_sets,
    sle_rank,
    tait_to_heawood,
    trace_faces,
    validate,
    zebra_witness,
)
from heawood import gf3, spins
from perfbench.graphgen import fresh_relabelling, random_planar_cubic

from conftest import (
    CL3_PAPER,
    CL3_PAPER_TO_GENERATOR,
    DUMBBELL,
    kernel_scan,
    negated,
    nullspace_basis,
    reference_enumeration,
    reference_heawood_to_tait,
    reference_sweep_count,
    reference_tait_to_heawood,
    row_of_face,
    triangle_contractions,
)

GOLDEN_CL3_VECTORS = ((1, 1, 1, 2, 2, 2), (2, 2, 2, 1, 1, 1))


class _CountingStore(dict):
    """A graph's derived-data store counting, per derived function, its entries.

    ``computed`` counts the entries stored; ``read`` counts the calls, since
    every call of a per-graph function reads its entry once.
    """

    def __init__(self):
        super().__init__()
        self.computed, self.read = Counter(), Counter()

    def __setitem__(self, key, value):
        self.computed[key[0].__name__] += 1
        super().__setitem__(key, value)

    def __getitem__(self, key):
        self.read[key[0].__name__] += 1
        return super().__getitem__(key)


def _counting_store(g):
    """Give the fresh graph ``g`` a counting store before anything is derived from it."""
    assert not g._derived
    store = _CountingStore()
    object.__setattr__(g, "_derived", store)
    return store


class TestBuildMainSle:
    def test_cl3_golden_matrix(self):
        system = build_main_sle(CL3_PAPER)
        assert system.dropped_face.vertex_set == frozenset({0, 1, 3, 5})
        assert system.matrix.shape == (4, 6)
        # Rows follow face-trace order with the outer quad dropped.
        assert [system.faces[i].vertex_cycle for i in system.row_face_ids] == [
            (0, 2, 4, 5),
            (0, 1, 2),
            (1, 3, 4, 2),
            (3, 5, 4),
        ]
        assert system.matrix.tolist() == [
            [1, 0, 1, 0, 1, 1],
            [1, 1, 1, 0, 0, 0],
            [0, 1, 1, 1, 1, 0],
            [0, 0, 0, 1, 1, 1],
        ]

    def test_triangle_row_has_exactly_its_vertices(self):
        system = build_main_sle(CL3_PAPER)
        triangle = next(f for f in system.faces if f.vertex_set == frozenset({0, 1, 2}))
        row = row_of_face(system, triangle.face_id)
        assert list(np.nonzero(system.matrix[row])[0]) == [0, 1, 2]

    def test_k4_rows_have_three_ones(self):
        system = build_main_sle(k4())
        assert system.matrix.shape == (3, 4)
        assert (system.matrix.sum(axis=1) == 3).all()

    def test_cl4_shape(self):
        assert build_main_sle(circular_ladder(4)).matrix.shape == (5, 8)

    def test_default_drop_without_hint_is_smallest_cycle(self):
        g = EmbeddedCubicGraph(CL3_PAPER.rotations)  # no hint
        system = build_main_sle(g)
        assert system.dropped_face.vertex_cycle == (0, 1, 2)

    def test_dropped_row_is_negated_sum_of_kept_rows(self):
        for g in (CL3_PAPER, k4(), circular_ladder(4), circular_ladder(5)):
            system = build_main_sle(g)
            dropped_row = np.zeros(g.n_vertices, dtype=np.int64)
            dropped_row[list(system.dropped_face.vertex_cycle)] = 1
            total = (system.matrix.astype(np.int64).sum(axis=0) + dropped_row) % 3
            assert (total == 0).all()

    def test_invalid_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            build_main_sle(DUMBBELL)

    def test_explicit_drop_out_of_range(self):
        with pytest.raises(ValueError):
            build_main_sle(CL3_PAPER, drop_face_id=7)


class TestRank:
    def test_golden_ranks(self):
        assert sle_rank(CL3_PAPER) == 4
        assert sle_rank(circular_ladder(4)) == 4
        assert sle_rank(k4()) == 3

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4), circular_ladder(5)])
    def test_rank_independent_of_dropped_face(self, g):
        baseline = sle_rank(g)
        for face in trace_faces(g):
            assert sle_rank(g, drop_face_id=face.face_id) == baseline


class TestPerGraphStore:
    def test_used_graph_is_freed_once_dropped(self):
        g, _ = fresh_relabelling(circular_ladder(5), random.Random("freed"))
        assert validate(g).ok
        assert len(trace_faces(g)) == 7
        assert build_main_sle(g).dropped_face_id != 0
        assert build_main_sle(g, drop_face_id=0).dropped_face_id == 0
        vectors = enumerate_heawood_vectors(g)
        seed_edge = edges(g)[0]
        for vec in vectors:
            assert tait_to_heawood(g, heawood_to_tait(g, vec, seed_edge, 1)) == vec
        assert count_tait_colorings_heawood(g) == 3 * len(vectors) == cln_formula(5)
        assert g._derived
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_store_is_not_part_of_the_value(self):
        g, other = circular_ladder(4), circular_ladder(4)
        shown = repr(g)
        enumerate_heawood_vectors(g)
        assert g._derived and not other._derived
        assert g == other and hash(g) == hash(other)
        assert repr(g) == repr(other) == shown
        fields = f"rotations={g.rotations!r}, outer_face_hint={g.outer_face_hint!r}"
        assert shown == f"EmbeddedCubicGraph({fields})"

    def test_used_graph_pickles(self):
        g = circular_ladder(5)
        vectors = enumerate_heawood_vectors(g)
        heawood_to_tait(g, vectors[0], edges(g)[0], 0)
        restored = pickle.loads(pickle.dumps(g))
        assert restored == g and enumerate_heawood_vectors(restored) == vectors


class TestSharedReduction:
    def test_each_system_is_reduced_once(self, monkeypatch):
        # A fresh graph object, so nothing is derived from it yet.
        g, _ = fresh_relabelling(circular_ladder(7), random.Random("reduce once"))
        system = build_main_sle(g)
        reduced = []
        rref = gf3.rref

        def counting_rref(matrix):
            reduced.append(matrix is system.matrix)
            return rref(matrix)

        monkeypatch.setattr(gf3, "rref", counting_rref)
        assert sle_rank(g) == 8
        assert len(free_variable_defining_set(g).members) == 6
        assert 3 * len(enumerate_heawood_vectors(g)) == cln_formula(7)
        assert len(minimal_defining_sets(g, mode="linear", max_size=5)) == 0
        assert reduced == [True]
        assert build_main_sle(g).reduced is system.reduced

    def test_faces_traced_once_per_graph(self):
        g, _ = fresh_relabelling(random_planar_cubic(30, random.Random("trace once")),
                                 random.Random("trace once"))
        store = _counting_store(g)
        report = validate(g)
        assert report.ok and report.n_faces == 17
        assert sle_rank(g) in (15, 16)
        free = free_variable_defining_set(g)
        assert zebra_witness(g, free.members | {min(set(range(30)) - free.members)}) is not None
        assert count_tait_colorings_heawood(g) > 0
        assert trace_faces(g) is trace_faces(g)
        assert store.computed["trace_faces"] == 1

    def test_reduction_is_read_only(self):
        reduced = build_main_sle(circular_ladder(5)).reduced
        assert not reduced.rref.flags.writeable
        with pytest.raises(ValueError):
            reduced.rref[0, 0] = 2
        assert reduced.rref.tobytes() == gf3.rref(build_main_sle(circular_ladder(5)).matrix).rref.tobytes()


class TestEnumerate:
    def test_cl3_paper_golden_vectors(self):
        vectors = enumerate_heawood_vectors(CL3_PAPER)
        assert tuple(v.spins for v in vectors) == GOLDEN_CL3_VECTORS
        assert vectors[0].signs == (1, 1, 1, -1, -1, -1)

    def test_generator_cl3_matches_figure_under_label_map(self):
        vectors = enumerate_heawood_vectors(circular_ladder(3))
        perm = CL3_PAPER_TO_GENERATOR
        expected = set()
        for spins in GOLDEN_CL3_VECTORS:
            mapped = [0] * 6
            for paper_v, spin in enumerate(spins):
                mapped[perm[paper_v]] = spin
            expected.add(tuple(mapped))
        assert {v.spins for v in vectors} == expected

    def test_cl4_counts_and_paired_vectors(self):
        vectors = enumerate_heawood_vectors(circular_ladder(4))
        assert len(vectors) == 8  # (2**4 + 2) / 3 + 2
        spins = {v.spins for v in vectors}
        assert (1, 2, 1, 2, 1, 2, 1, 2) in spins  # rim spin equals its hub spin
        assert (2, 1, 2, 1, 2, 1, 2, 1) in spins

    def test_k4_constant_vectors(self):
        assert {v.spins for v in enumerate_heawood_vectors(k4())} == {
            (1, 1, 1, 1),
            (2, 2, 2, 2),
        }

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4), circular_ladder(5)])
    def test_vectors_satisfy_every_face_including_dropped(self, g):
        faces = trace_faces(g)
        for vec in enumerate_heawood_vectors(g):
            for face in faces:
                assert sum(vec.spins[v] for v in face.vertex_cycle) % 3 == 0

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4), circular_ladder(5)])
    def test_negation_closure_and_canonical_order(self, g):
        vectors = enumerate_heawood_vectors(g)
        spins = [v.spins for v in vectors]
        assert spins == sorted(spins)
        assert {negated(v).spins for v in vectors} == set(spins)

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4)])
    def test_agrees_with_full_scan(self, g):
        scanned = kernel_scan(build_main_sle(g).matrix, nonzero_only=True)
        assert {v.spins for v in enumerate_heawood_vectors(g)} == scanned

    def test_cl3_kernel_is_two_dimensional(self):
        system = build_main_sle(CL3_PAPER)
        assert len(kernel_scan(system.matrix)) == 9  # 3**2
        assert len(nullspace_basis(system.matrix)) == 2

    def test_cl3_free_assignments_that_survive(self):
        # Of the four sign patterns on the two free columns, exactly the
        # constant ones back-substitute to everywhere-nonzero vectors.
        solution = gf3.solve_parametric(build_main_sle(CL3_PAPER).matrix)
        assert solution.free_cols == (4, 5)
        survivors = {
            pattern
            for pattern in [(1, 1), (1, 2), (2, 1), (2, 2)]
            if (solution.substitute(pattern) != 0).all()
        }
        assert survivors == {(1, 1), (2, 2)}

    def test_counts(self):
        assert count_tait_colorings_heawood(CL3_PAPER) == 6
        assert count_tait_colorings_heawood(circular_ladder(4)) == 24
        assert count_tait_colorings_heawood(k4()) == 6


def _named_graphs():
    graphs = [circular_ladder(n) for n in range(3, 13)] + [k4(), CL3_PAPER]
    return graphs + [c for g in graphs for c in triangle_contractions(g)]


class TestPrunedEnumeration:
    """The pruned listing against the 2**(#free) reference and the count."""

    @pytest.mark.parametrize("g", _named_graphs())
    def test_matches_reference_under_relabelling(self, g):
        rng = random.Random(f"enumerate:{g.n_vertices}")
        assert enumerate_heawood_vectors(g) == reference_enumeration(g)
        for _ in range(3):
            relabelled, _ = fresh_relabelling(g, rng)
            assert enumerate_heawood_vectors(relabelled) == reference_enumeration(relabelled)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_embeddings_match_reference(self, seed):
        rng = random.Random(f"enumerate-random:{seed}")
        for n_vertices in range(4, 33, 2):
            g = random_planar_cubic(n_vertices, rng)
            assert enumerate_heawood_vectors(g) == reference_enumeration(g), n_vertices

    # Draws that list in well under a second; 96-vertex draws of the same
    # kind can have 6e5 vectors and take over 15 s.
    @pytest.mark.parametrize(
        "n_vertices, seed", [(48, 0), (56, 3), (64, 3), (72, 3), (80, 3), (88, 1)]
    )
    def test_beyond_the_reference_matches_the_count(self, n_vertices, seed):
        g = random_planar_cubic(n_vertices, random.Random(f"beyond:{n_vertices}:{seed}"))
        system = build_main_sle(g)
        assert len(system.reduced.parametric().free_cols) >= 23
        vectors = enumerate_heawood_vectors(g)
        assert 3 * len(vectors) == count_tait_colorings_heawood(g)
        spins = np.array([v.spins for v in vectors], dtype=np.int64)
        assert ((spins @ system.matrix.T) % 3 == 0).all()
        assert [v.spins for v in vectors] == sorted({v.spins for v in vectors})

    def test_back_substitutes_only_the_survivors(self, monkeypatch):
        g = random_planar_cubic(32, random.Random("survivors"))
        batches = []
        substitute_batch = gf3.ParametricSolution.substitute_batch

        def spy(solution, assignments):
            batches.append(len(assignments))
            return substitute_batch(solution, assignments)

        monkeypatch.setattr(gf3.ParametricSolution, "substitute_batch", spy)
        vectors = enumerate_heawood_vectors(g)
        assert batches == [len(vectors)]
        assert 0 < 3 * len(vectors) == count_tait_colorings_heawood(g)


def _within_the_bound(g, count):
    """The paper's bound: 3 * 2**(n-1) when non-bipartite, 3 * 2**n when bipartite."""
    n = g.n_vertices // 2
    return count <= 3 * 2 ** (n if is_bipartite(g) is not None else n - 1)


class TestCountSweep:
    """The face elimination against enumeration, the oracle, the former
    frontier sweep and closed forms."""

    @pytest.mark.parametrize("g", _named_graphs())
    def test_matches_enumeration_under_relabelling(self, g):
        rng = random.Random(g.n_vertices)
        expected = 3 * len(enumerate_heawood_vectors(g))
        assert count_tait_colorings_heawood(g) == expected
        for _ in range(3):
            relabelled, _ = fresh_relabelling(g, rng)
            assert count_tait_colorings_heawood(relabelled) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_random_embeddings_match_enumeration_and_oracle(self, seed):
        rng = random.Random(f"count-sweep:{seed}")
        for n_vertices in range(4, 29, 2):
            g = random_planar_cubic(n_vertices, rng)
            count = count_tait_colorings_heawood(g)
            assert count == 3 * len(enumerate_heawood_vectors(g)), n_vertices
            if n_vertices <= 20:
                assert count == count_tait_oracle(g), n_vertices

    @pytest.mark.parametrize("n", [50, 101, 200])
    def test_circular_ladders_beyond_enumeration(self, n):
        assert count_tait_colorings_heawood(circular_ladder(n)) == cln_formula(n)

    def test_circular_ladders_match_the_sweep(self):
        rng = random.Random("count-ladders")
        for n in range(3, 201):
            g = circular_ladder(n)
            relabelled, _ = fresh_relabelling(g, rng)
            expected = reference_sweep_count(g)
            assert count_tait_colorings_heawood(g) == expected, n
            assert count_tait_colorings_heawood(relabelled) == expected, n
            assert _within_the_bound(g, expected), n

    @pytest.mark.parametrize("seed", range(8))
    def test_random_embeddings_match_the_sweep_within_the_bound(self, seed):
        rng = random.Random(f"count-reference:{seed}")
        for _ in range(5):
            g = random_planar_cubic(rng.randrange(30, 151, 2), rng)
            relabelled, _ = fresh_relabelling(g, rng)
            expected = reference_sweep_count(g)
            assert count_tait_colorings_heawood(g) == expected, g.n_vertices
            assert count_tait_colorings_heawood(relabelled) == expected, g.n_vertices
            assert _within_the_bound(g, expected), g.n_vertices

    def test_300_vertex_draw_matches_the_sweep(self):
        g = random_planar_cubic(300, random.Random(3))
        relabelled, _ = fresh_relabelling(g, random.Random("count-300"))
        expected = reference_sweep_count(g)
        assert count_tait_colorings_heawood(g) == expected
        assert count_tait_colorings_heawood(relabelled) == expected

    def test_never_enumerates(self, monkeypatch):
        def refuse(g):
            raise AssertionError("counting enumerated the Heawood vectors")

        monkeypatch.setattr(spins, "enumerate_heawood_vectors", refuse)
        assert count_tait_colorings_heawood(circular_ladder(9)) == cln_formula(9)

    def test_draw_too_wide_for_the_sweep_counts(self):
        # The former sweep refused this draw: its best order scored 3**19.4.
        rng = random.Random(3)
        random_planar_cubic(300, rng)
        g = random_planar_cubic(300, rng)
        count = count_tait_colorings_heawood(g)
        # Positive, and a multiple of 6: Heawood vectors pair up by negation.
        assert count > 0 and count % 6 == 0
        assert _within_the_bound(g, count)
        for _ in range(3):
            relabelled, _ = fresh_relabelling(g, rng)
            assert count_tait_colorings_heawood(relabelled) == count
        assert count_tait_colorings_heawood(circular_ladder(1000)) == cln_formula(1000)

    def test_wide_elimination_refused_before_counting(self, monkeypatch):
        widths = []
        einsum = np.einsum

        def spy(*operands):
            widths.append(len(operands[-1]))
            return einsum(*operands)

        monkeypatch.setattr(spins, "MAX_ELIMINATION_WIDTH", 3)
        monkeypatch.setattr(spins.np, "einsum", spy)
        # Every face of cl_50 has at least four neighbouring faces.
        with pytest.raises(EnumerationLimitError, match="limited to width 3; .* width 4$"):
            count_tait_colorings_heawood(circular_ladder(50))
        assert widths == []

    def test_late_wide_step_refused_before_any_table(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(*operands):
            calls.append(len(operands[-1]))
            return einsum(*operands)

        g = random_planar_cubic(200, random.Random(7))
        monkeypatch.setattr(spins, "MAX_ELIMINATION_WIDTH", 6)
        monkeypatch.setattr(spins.np, "einsum", spy)
        # The least-neighbour order first passes width 6 at step 93 of 102.
        with pytest.raises(EnumerationLimitError, match="limited to width 6; .* width 7$"):
            count_tait_colorings_heawood(g)
        assert calls == []

    def test_summed_out_tables_are_freed(self, monkeypatch):
        tables, others_alive = [], []
        einsum = np.einsum

        def spy(*operands):
            own = {id(x) for x in operands[:-1:2]}
            others_alive.append(sum(t() is not None and id(t()) not in own for t in tables))
            table = einsum(*operands)
            if isinstance(table, np.ndarray):
                tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(spins.np, "einsum", spy)
        g = random_planar_cubic(60, random.Random(7))
        assert count_tait_colorings_heawood(g) == count_tait_oracle(g)
        # Only the last step's own operands may be alive when it runs.
        assert len(tables) > 20 and others_alive[-1] == 0

    def test_invalid_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            count_tait_colorings_heawood(DUMBBELL)

    def test_outer_hint_matching_no_face_rejected(self):
        g = EmbeddedCubicGraph(CL3_PAPER.rotations, outer_face_hint=(0, 1, 4))
        with pytest.raises(InvalidGraphError, match="outer face hint"):
            count_tait_colorings_heawood(g)


class TestHeawoodVectorType:
    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            HeawoodVector((1, 0, 2))

    def test_signs_and_negation(self):
        vec = HeawoodVector((1, 2))
        assert vec.signs == (1, -1)
        assert negated(vec).spins == (2, 1)

    @pytest.mark.parametrize(
        "bad", [(1.7, 2.2), (1, 1.5), ("1", "2"), "12", (1, None), (float("nan"),), (3,), (-1,)]
    )
    def test_rejects_non_integral_or_out_of_range(self, bad):
        with pytest.raises(ValueError):
            HeawoodVector(bad)

    def test_integral_entries_become_ints(self):
        for given in [(1.0, 2.0), (np.int64(1), np.uint8(2)), (True, 2), np.array([1, 2])]:
            spins = HeawoodVector(given).spins
            assert spins == (1, 2) and all(type(s) is int for s in spins)


class TestTaitColoringType:
    @pytest.mark.parametrize(
        "bad", [(0.5, 1.9, 2.0), (0, 1, 2.5), ("0", "1", "2"), "012", (0, 1, 3), (0, -1, 2)]
    )
    def test_rejects_non_integral_or_out_of_range(self, bad):
        with pytest.raises(ValueError):
            TaitColoring(bad)

    def test_integral_entries_become_ints(self):
        for given in [(0.0, 1.0, 2.0), (np.int64(0), np.uint8(1), 2), (False, True, 2)]:
            colors = TaitColoring(given).colors
            assert colors == (0, 1, 2) and all(type(c) is int for c in colors)


class TestColoringCorrespondence:
    def test_seed_propagates_to_all_edges(self):
        vec = HeawoodVector(GOLDEN_CL3_VECTORS[0])
        coloring = heawood_to_tait(CL3_PAPER, vec, (0, 1), 0)
        assert len(coloring.colors) == 9
        assert is_proper_coloring(CL3_PAPER, coloring)
        assert coloring.colors[edges(CL3_PAPER).index((0, 1))] == 0

    def test_three_seeds_give_cyclic_shifts(self):
        vec = HeawoodVector(GOLDEN_CL3_VECTORS[0])
        c0 = heawood_to_tait(CL3_PAPER, vec, (0, 1), 0)
        c1 = heawood_to_tait(CL3_PAPER, vec, (0, 1), 1)
        c2 = heawood_to_tait(CL3_PAPER, vec, (0, 1), 2)
        assert c1 == c0.shifted(1)
        assert c2 == c0.shifted(2)

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4)])
    def test_roundtrip_from_vector(self, g):
        e0 = edges(g)[0]
        for vec in enumerate_heawood_vectors(g):
            for color in (0, 1, 2):
                coloring = heawood_to_tait(g, vec, e0, color)
                assert is_proper_coloring(g, coloring)
                assert tait_to_heawood(g, coloring) == vec

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(4)])
    def test_roundtrip_from_coloring(self, g):
        e0 = edges(g)[0]
        slot = edges(g).index(e0)
        for coloring in enumerate_tait_oracle(g, limit=100):
            vec = tait_to_heawood(g, coloring)
            assert heawood_to_tait(g, vec, e0, coloring.colors[slot]) == coloring

    def test_k4_color_swap_changes_vector(self):
        # Swapping two colors globally is not a cyclic shift, so the two
        # colorings generally read off different spin vectors.
        colorings = enumerate_tait_oracle(k4(), limit=10)
        by_vector = {}
        for coloring in colorings:
            by_vector.setdefault(tait_to_heawood(k4(), coloring).spins, []).append(coloring)
        assert len(by_vector) == 2
        swap = {0: 1, 1: 0, 2: 2}
        some = colorings[0]
        swapped = TaitColoring(tuple(swap[c] for c in some.colors))
        assert tait_to_heawood(k4(), swapped) != tait_to_heawood(k4(), some)

    def test_non_vector_propagation_conflict(self):
        bad = HeawoodVector((1, 1, 1, 2, 2, 1))  # violates several faces
        with pytest.raises(NotAHeawoodVectorError):
            heawood_to_tait(CL3_PAPER, bad, (0, 1), 0)

    def test_unknown_seed_edge(self):
        vec = HeawoodVector(GOLDEN_CL3_VECTORS[0])
        with pytest.raises(ValueError):
            heawood_to_tait(CL3_PAPER, vec, (0, 4), 0)

    def test_bad_seed_color(self):
        vec = HeawoodVector(GOLDEN_CL3_VECTORS[0])
        with pytest.raises(ValueError):
            heawood_to_tait(CL3_PAPER, vec, (0, 1), 3)

    def test_improper_coloring_rejected(self):
        improper = TaitColoring((0,) * 9)
        with pytest.raises(ImproperColoringError):
            tait_to_heawood(CL3_PAPER, improper)


    def test_graph_validated_once_for_many_conversions(self, monkeypatch):
        g, _ = fresh_relabelling(circular_ladder(6), random.Random("validate once"))
        checks = []
        real_validate = spins.validate

        def counting_validate(graph):
            checks.append(graph)
            return real_validate(graph)

        monkeypatch.setattr(spins, "validate", counting_validate)
        seed_edge = edges(g)[0]
        for vec in enumerate_heawood_vectors(g):
            assert tait_to_heawood(g, heawood_to_tait(g, vec, seed_edge, 0)) == vec
        # The main system and the conversion tables share one check.
        assert checks == [g]

    def test_invalid_graph_rejected_on_every_call(self):
        vec = HeawoodVector((1,) * DUMBBELL.n_vertices)
        coloring = TaitColoring((0,) * (3 * DUMBBELL.n_vertices // 2))
        for _ in range(3):
            with pytest.raises(InvalidGraphError):
                heawood_to_tait(DUMBBELL, vec, (0, 2), 0)
            with pytest.raises(InvalidGraphError):
                tait_to_heawood(DUMBBELL, coloring)


def _outcome(convert, *args):
    """The result of a conversion, or the type and message of what it raised."""
    try:
        return convert(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _conversion_graphs():
    """Named graphs and their contractions, then 64 draws of 4..60 vertices,
    each under a seeded relabelling."""
    rng = random.Random("conversions")
    draws = [random_planar_cubic(4 + 2 * (i % 29), rng) for i in range(64)]
    return [fresh_relabelling(g, rng)[0] for g in _named_graphs() + draws]


class TestCompiledConversions:
    """The replayed propagation plan and the step table against the former
    per-vector breadth-first search, results and exception messages alike."""

    @pytest.mark.parametrize("part", range(8))
    def test_match_the_reference(self, part):
        for index, g in enumerate(_conversion_graphs()[part::8]):
            rng = random.Random(f"conversions:{part}:{index}")
            n_edges = 3 * g.n_vertices // 2
            edge_list = edges(g)
            valid = list(enumerate_heawood_vectors(g))
            vectors = rng.sample(valid, min(len(valid), 6))
            # Vectors with one or two spins flipped break relations at chosen places.
            for vec in rng.sample(valid, min(len(valid), 4)):
                spins = list(vec.spins)
                for v in rng.sample(range(g.n_vertices), rng.choice((1, 2))):
                    spins[v] = 3 - spins[v]
                vectors.append(HeawoodVector(tuple(spins)))
            vectors += [
                HeawoodVector(tuple(rng.choice((1, 2)) for _ in range(g.n_vertices)))
                for _ in range(6)
            ]
            colorings = []
            for vec in vectors:
                for seed_edge in rng.sample(edge_list, 3):
                    for seed_color in (0, 1, 2):
                        args = (g, vec, seed_edge[::rng.choice((1, -1))], seed_color)
                        got = _outcome(heawood_to_tait, *args)
                        assert got == _outcome(reference_heawood_to_tait, *args)
                        if isinstance(got, TaitColoring):
                            colorings.append(got)
            # Proper colorings, each with one edge recolored, and random ones.
            for coloring in rng.sample(colorings, min(len(colorings), 6)):
                colors = list(coloring.colors)
                colors[rng.randrange(n_edges)] = rng.randrange(3)
                colorings.append(TaitColoring(tuple(colors)))
            colorings += [
                TaitColoring(tuple(rng.randrange(3) for _ in range(n_edges))) for _ in range(10)
            ]
            for coloring in colorings:
                got = _outcome(tait_to_heawood, g, coloring)
                assert got == _outcome(reference_tait_to_heawood, g, coloring)

    def test_input_errors_match_the_reference(self):
        g = CL3_PAPER
        vec = HeawoodVector(GOLDEN_CL3_VECTORS[0])
        for args in [
            (g, HeawoodVector((1,) * 5), (0, 1), 0),
            (g, vec, (0, 1), 3),
            (g, vec, (0, 4), 0),
            (g, vec, (9, 1), 1),
            (DUMBBELL, HeawoodVector((1,) * 10), (0, 2), 0),
        ]:
            assert _outcome(heawood_to_tait, *args) == _outcome(reference_heawood_to_tait, *args)
        for coloring in [TaitColoring((0,) * 8), TaitColoring((0,) * 15)]:
            for graph in (g, DUMBBELL):
                got = _outcome(tait_to_heawood, graph, coloring)
                assert got == _outcome(reference_tait_to_heawood, graph, coloring)

    def test_plan_built_once_per_graph_and_seed(self):
        g, _ = fresh_relabelling(circular_ladder(7), random.Random("plan once"))
        store = _counting_store(g)
        vectors = enumerate_heawood_vectors(g)
        seed_edges = edges(g)[:2]
        for seed_edge in seed_edges:
            for vec in vectors:
                for color in (0, 1, 2):
                    coloring = heawood_to_tait(g, vec, seed_edge, color)
                    assert tait_to_heawood(g, coloring) == vec
        calls = len(seed_edges) * len(vectors) * 3
        assert len(vectors) > 1
        assert store.computed["_propagation_plan"] == len(seed_edges)
        hits = store.read["_propagation_plan"] - store.computed["_propagation_plan"]
        assert hits == calls - len(seed_edges)


class TestBipartiteVector:
    def test_cl4_construction(self):
        g = circular_ladder(4)
        vec = bipartite_heawood_vector(g)
        parts = is_bipartite(g)
        assert all(vec.spins[v] == 1 for v in parts.part_a)
        assert all(vec.spins[v] == 2 for v in parts.part_b)
        assert vec in enumerate_heawood_vectors(g)

    def test_cl6_construction(self):
        g = circular_ladder(6)
        vec = bipartite_heawood_vector(g)
        for face in trace_faces(g):
            assert sum(vec.spins[v] for v in face.vertex_cycle) % 3 == 0

    def test_cl3_rejected(self):
        with pytest.raises(NotBipartiteError):
            bipartite_heawood_vector(CL3_PAPER)


class TestContractTriangle:
    def test_cl3_contracts_to_k4(self):
        faces = trace_faces(CL3_PAPER)
        triangle = next(f for f in faces if f.vertex_set == frozenset({0, 1, 2}))
        contracted = contract_triangle(CL3_PAPER, triangle.face_id)
        report = validate(contracted)
        assert report.ok
        assert report.n_vertices == 4
        assert report.n_faces == 4
        # K4: every pair adjacent.
        assert edges(contracted) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_spin_correspondence(self):
        faces = trace_faces(CL3_PAPER)
        triangle = next(f for f in faces if f.vertex_set == frozenset({0, 1, 2}))
        contracted = contract_triangle(CL3_PAPER, triangle.face_id)
        survivors = [v for v in range(6) if v not in triangle.vertex_set]
        expected = set()
        for vec in enumerate_heawood_vectors(CL3_PAPER):
            triangle_spins = {vec.spins[v] for v in triangle.vertex_cycle}
            assert len(triangle_spins) == 1  # constant on a proper triangle
            s = triangle_spins.pop()
            expected.add(tuple(vec.spins[v] for v in survivors) + (3 - s,))
        assert {v.spins for v in enumerate_heawood_vectors(contracted)} == expected

    def test_other_triangle_also_contracts(self):
        faces = trace_faces(CL3_PAPER)
        triangle = next(f for f in faces if f.vertex_set == frozenset({3, 4, 5}))
        contracted = contract_triangle(CL3_PAPER, triangle.face_id)
        assert validate(contracted).ok

    def test_k4_contraction_creates_parallel_edges(self):
        faces = trace_faces(k4())
        with pytest.raises(ContractionError):
            contract_triangle(k4(), faces[0].face_id)

    def test_quadrilateral_face_rejected(self):
        faces = trace_faces(circular_ladder(4))
        with pytest.raises(ContractionError):
            contract_triangle(circular_ladder(4), faces[0].face_id)
