"""Defining sets, dependence witnesses, and their dualities."""

import itertools
import random

import numpy as np
import pytest

from heawood import (
    SubsetSearchLimitError,
    build_main_sle,
    circular_ladder,
    combination_support,
    enumerate_heawood_vectors,
    free_variable_defining_set,
    is_bipartite,
    is_heawood_defining,
    is_linear_defining,
    k4,
    minimal_defining_sets,
    sle_rank,
    zebra_witness,
)
from heawood import gf3
from perfbench.graphgen import fresh_relabelling, random_planar_cubic

from conftest import (
    CL3_PAPER,
    CL3_ZEBRA_PAIRS,
    kernel_scan,
    reference_minimal_defining_sets,
    row_of_face,
    triangle_contractions,
)


def all_subsets(n):
    for size in range(n + 1):
        yield from map(frozenset, itertools.combinations(range(n), size))


def subset_search(g, mode, max_size=None):
    """Minimal defining sets by testing subsets one by one, smallest first.

    A subset containing an already-found set is skipped, so every defining
    subset that gets through is minimal.
    """
    predicate = is_linear_defining if mode == "linear" else is_heawood_defining
    limit = g.n_vertices if max_size is None else max_size
    found = []
    for candidate in all_subsets(g.n_vertices):
        if len(candidate) > limit:
            break
        if not any(existing <= candidate for existing in found) and predicate(g, candidate):
            found.append(candidate)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def _search_population():
    named = [("k4", k4()), ("cl3_paper", CL3_PAPER)]
    named += [(f"cl_{n}", circular_ladder(n)) for n in range(3, 7)]
    graphs = named + [
        (f"{name}/contracted_{i}", c) for name, g in named for i, c in enumerate(triangle_contractions(g))
    ]
    rng = random.Random("minimal-defining-sets")
    # Four vertices allow only K4, which is already named above.
    for n, copies in ((6, 8), (8, 8), (10, 8), (12, 6)):
        graphs += [(f"random_{n}_{i}", random_planar_cubic(n, rng)) for i in range(copies)]
    return [pytest.param(g, id=name) for name, g in graphs]


def _reference_population():
    # Past 12 vertices subset_search is too slow; the former engine is not.
    graphs = [("cl_7", circular_ladder(7)), ("cl_8", circular_ladder(8))]
    rng = random.Random("minimal-defining-sets past subset search")
    for n in (14, 16):
        graphs += [(f"random_{n}_{i}", random_planar_cubic(n, rng)) for i in range(4)]
    return [pytest.param(name, g, id=name) for name, g in graphs]


class TestCombinationSupport:
    def test_single_face_row(self):
        system = build_main_sle(CL3_PAPER)
        triangle = next(f for f in system.faces if f.vertex_set == frozenset({0, 1, 2}))
        coeffs = [0] * 4
        coeffs[row_of_face(system, triangle.face_id)] = 1
        assert combination_support(system, coeffs) == frozenset({0, 1, 2})

    def test_zero_coefficients(self):
        system = build_main_sle(CL3_PAPER)
        assert combination_support(system, [0, 0, 0, 0]) == frozenset()

    def test_known_combination_for_rung_pair(self):
        # Row order: quad (0,2,4,5), triangle (0,1,2), quad (1,3,4,2),
        # triangle (3,5,4); this combination collapses onto the rung {0, 5}.
        system = build_main_sle(CL3_PAPER)
        assert combination_support(system, (0, 1, 2, 1)) == frozenset({0, 5})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combination_support(build_main_sle(CL3_PAPER), [1, 0])


class TestZebraWitness:
    def test_cl3_rung_pairs_have_witnesses(self):
        for pair in CL3_ZEBRA_PAIRS:
            witness = zebra_witness(CL3_PAPER, pair)
            assert witness is not None
            assert witness.support
            assert witness.support <= pair

    def test_cl3_other_pairs_have_none(self):
        for pair in map(frozenset, itertools.combinations(range(6), 2)):
            if pair not in CL3_ZEBRA_PAIRS:
                assert zebra_witness(CL3_PAPER, pair) is None

    def test_cl3_every_triple_has_witness(self):
        for triple in itertools.combinations(range(6), 3):
            assert zebra_witness(CL3_PAPER, triple) is not None

    def test_witness_coefficients_reproduce_support(self):
        system = build_main_sle(CL3_PAPER)
        witness = zebra_witness(CL3_PAPER, {0, 5})
        combined = gf3.row_combination(system.matrix, witness.row_coefficients)
        assert frozenset(np.nonzero(combined)[0]) == witness.support == frozenset({0, 5})
        assert any(witness.row_coefficients)

    def test_existence_matches_rank_criterion(self):
        system = build_main_sle(CL3_PAPER)
        for subset in all_subsets(6):
            outside = sorted(set(range(6)) - subset)
            deficient = gf3.column_submatrix_rank(system.matrix, outside) < 4
            assert (zebra_witness(CL3_PAPER, subset) is not None) == deficient

    def test_empty_set_nonbipartite_has_none(self):
        assert zebra_witness(CL3_PAPER, frozenset()) is None
        assert zebra_witness(k4(), frozenset()) is None

    @pytest.mark.parametrize("n", [4, 6])
    def test_bipartite_admits_empty_support(self, n):
        witness = zebra_witness(circular_ladder(n), frozenset())
        assert witness is not None
        assert witness.support == frozenset()
        assert any(witness.row_coefficients)

    @pytest.mark.parametrize("g", [CL3_PAPER, k4(), circular_ladder(5)])
    def test_nonbipartite_witnesses_never_empty(self, g):
        for subset in all_subsets(g.n_vertices):
            witness = zebra_witness(g, subset)
            if witness is not None:
                assert witness.support

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            zebra_witness(CL3_PAPER, {0, 99})


class TestLinearDefining:
    def test_cl3_examples(self):
        assert is_linear_defining(CL3_PAPER, {0, 1})
        assert not is_linear_defining(CL3_PAPER, {0, 5})
        assert is_linear_defining(CL3_PAPER, set(range(6)))

    @pytest.mark.parametrize("g", [k4(), CL3_PAPER, circular_ladder(4), circular_ladder(5)])
    def test_three_way_duality(self, g):
        # One predicate, three computations: column independence outside S,
        # no scanned kernel vector vanishing on S, and the witness criterion
        # applied to the complement.
        system = build_main_sle(g)
        n = g.n_vertices
        kernel = [vec for vec in kernel_scan(system.matrix) if any(vec)]
        rows = system.matrix.shape[0]
        for subset in all_subsets(n):
            outside = sorted(set(range(n)) - subset)
            by_columns = gf3.column_submatrix_rank(system.matrix, outside) == len(outside)
            by_kernel = not any(all(vec[v] == 0 for v in subset) for vec in kernel)
            assert is_linear_defining(g, subset) == by_columns == by_kernel

    @pytest.mark.parametrize("g", [CL3_PAPER, k4()])
    def test_monotone(self, g):
        n = g.n_vertices
        for subset in all_subsets(n):
            if is_linear_defining(g, subset):
                for extra in range(n):
                    assert is_linear_defining(g, subset | {extra})
            else:
                for v in subset:
                    assert not is_linear_defining(g, subset - {v})


class TestHeawoodDefining:
    def test_cl3_singletons_define(self):
        for v in range(6):
            assert is_heawood_defining(CL3_PAPER, {v})

    def test_cl3_empty_does_not(self):
        assert not is_heawood_defining(CL3_PAPER, frozenset())

    def test_linear_implies_heawood(self):
        for g in (CL3_PAPER, k4(), circular_ladder(4)):
            for subset in all_subsets(g.n_vertices):
                if is_linear_defining(g, subset):
                    assert is_heawood_defining(g, subset)

    def test_converse_fails_on_cl3_singletons(self):
        for v in range(6):
            assert is_heawood_defining(CL3_PAPER, {v})
            assert not is_linear_defining(CL3_PAPER, {v})

    def test_matches_direct_injectivity(self):
        for g in (CL3_PAPER, k4()):
            vectors = [vec.spins for vec in enumerate_heawood_vectors(g)]
            for subset in all_subsets(g.n_vertices):
                members = sorted(subset)
                seen = {tuple(spins[v] for v in members) for spins in vectors}
                assert is_heawood_defining(g, subset) == (len(seen) == len(vectors))


class TestFreeVariableSet:
    def test_cl3_paper(self):
        free = free_variable_defining_set(CL3_PAPER)
        assert free.members == frozenset({4, 5})
        assert not free.bipartite
        assert len(free.members) == 3 - 1  # n - 1
        assert free.members not in CL3_ZEBRA_PAIRS
        assert is_linear_defining(CL3_PAPER, free.members)

    def test_k4_single_free_variable(self):
        free = free_variable_defining_set(k4())
        assert len(free.members) == 1
        assert not free.bipartite

    def test_cl4_bipartite_branch(self):
        free = free_variable_defining_set(circular_ladder(4))
        assert len(free.members) == 4  # n free variables when bipartite
        assert free.bipartite

    def test_free_set_can_be_non_minimal(self):
        # Singletons already define the solution here, so the free 2-set is
        # a defining set that is not inclusion-minimal.
        free = free_variable_defining_set(CL3_PAPER)
        assert is_heawood_defining(CL3_PAPER, free.members)
        assert any(is_heawood_defining(CL3_PAPER, {v}) for v in free.members)


class TestMinimalDefiningSets:
    def test_cl3_heawood_mode_singletons(self):
        assert minimal_defining_sets(CL3_PAPER, mode="heawood") == tuple(
            frozenset({v}) for v in range(6)
        )

    def test_cl3_linear_mode_pairs(self):
        expected = tuple(
            sorted(
                (
                    pair
                    for pair in map(frozenset, itertools.combinations(range(6), 2))
                    if pair not in CL3_ZEBRA_PAIRS
                ),
                key=sorted,
            )
        )
        assert minimal_defining_sets(CL3_PAPER, mode="linear") == expected

    def test_k4_linear_mode_singletons(self):
        assert minimal_defining_sets(k4(), mode="linear") == tuple(
            frozenset({v}) for v in range(4)
        )

    def test_max_size_cutoff(self):
        assert minimal_defining_sets(CL3_PAPER, mode="linear", max_size=1) == ()

    def test_results_are_minimal_and_defining(self):
        for mode in ("linear", "heawood"):
            predicate = is_linear_defining if mode == "linear" else is_heawood_defining
            for g in (CL3_PAPER, k4(), circular_ladder(4)):
                for s in minimal_defining_sets(g, mode=mode):
                    assert predicate(g, s)
                    for v in s:
                        assert not predicate(g, s - {v})

    def test_size_guard_refuses_large_graphs(self):
        with pytest.raises(SubsetSearchLimitError):
            minimal_defining_sets(circular_ladder(9), mode="linear")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            minimal_defining_sets(CL3_PAPER, mode="fast")

    def test_negative_max_size_rejected(self):
        with pytest.raises(ValueError):
            minimal_defining_sets(CL3_PAPER, mode="heawood", max_size=-1)

    @pytest.mark.parametrize("g", _search_population())
    def test_matches_subset_search(self, g):
        # k = 2n - rank is the size of every minimal linear-defining set.
        k = g.n_vertices - sle_rank(g)
        relabelled, perm = fresh_relabelling(g, random.Random(g.n_vertices))
        for mode in ("linear", "heawood"):
            for max_size in (None, 0, 1, k - 1, k):
                expected = subset_search(g, mode, max_size)
                assert minimal_defining_sets(g, mode, max_size) == expected, (mode, max_size)
                moved = {frozenset(perm[v] for v in s) for s in expected}
                assert set(minimal_defining_sets(relabelled, mode, max_size)) == moved

    @pytest.mark.parametrize("name, g", _reference_population())
    def test_matches_reference_engine(self, name, g):
        k = g.n_vertices - sle_rank(g)
        relabelled, perm = fresh_relabelling(g, random.Random(name))
        for mode in ("linear", "heawood"):
            for max_size in (None, 0, 1, k - 1, k):
                expected = reference_minimal_defining_sets(g, mode, max_size)
                assert minimal_defining_sets(g, mode, max_size) == expected, (mode, max_size)
                moved = {frozenset(perm[v] for v in s) for s in expected}
                assert set(minimal_defining_sets(relabelled, mode, max_size)) == moved
        assert {len(s) for s in minimal_defining_sets(g, "linear")} == {k}

    def test_cl8_linear_mode_finds_3754_sets_of_size_8(self):
        found = minimal_defining_sets(circular_ladder(8), mode="linear")
        assert len(found) == 3754
        assert {len(s) for s in found} == {8}


class TestTheoremConsequences:
    @pytest.mark.parametrize("g", [k4(), CL3_PAPER, circular_ladder(5), circular_ladder(7)])
    def test_every_n_subset_is_dependent(self, g):
        n = g.n_vertices // 2
        assert is_bipartite(g) is None
        for subset in itertools.combinations(range(g.n_vertices), n):
            assert zebra_witness(g, subset) is not None
