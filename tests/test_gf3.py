"""Field arithmetic and exact elimination over GF(3)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heawood import gf3

from conftest import brute_force_rank, kernel_scan


def small_matrices(max_dim: int = 5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: arrays(np.uint8, (r, c), elements=st.integers(0, 2))
        )
    )


class TestScalars:
    def test_field_axioms_exhaustive(self):
        elems = (0, 1, 2)
        for a, b, c in itertools.product(elems, repeat=3):
            assert gf3.add(a, b) == gf3.add(b, a)
            assert gf3.mul(a, b) == gf3.mul(b, a)
            assert gf3.add(gf3.add(a, b), c) == gf3.add(a, gf3.add(b, c))
            assert gf3.mul(gf3.mul(a, b), c) == gf3.mul(a, gf3.mul(b, c))
            assert gf3.mul(a, gf3.add(b, c)) == gf3.add(gf3.mul(a, b), gf3.mul(a, c))
        for a in elems:
            assert gf3.add(a, 0) == a
            assert gf3.mul(a, 1) == a
            assert gf3.add(a, gf3.neg(a)) == 0
            if a != 0:
                assert gf3.mul(a, gf3.inv(a)) == 1
        assert gf3.add(1, 2) == 0  # 2 acts as -1
        assert gf3.sub(0, 1) == 2

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf3.inv(0)

    def test_nonzero_elements(self):
        assert {x for x in range(3) if x != 0} == {1, 2}


class TestRref:
    def test_proportional_rows_rank_one(self):
        # second row is 2 * first: (2, 4 mod 3) = (2, 1)
        result = gf3.rref([[1, 2], [2, 1]])
        assert result.rank == 1

    def test_identity(self):
        result = gf3.rref(np.eye(3, dtype=int))
        assert result.rank == 3
        assert result.pivot_cols == (0, 1, 2)
        assert np.array_equal(result.rref, np.eye(3, dtype=np.uint8))

    def test_zero_matrix(self):
        result = gf3.rref(np.zeros((2, 4), dtype=int))
        assert result.rank == 0
        assert result.pivot_cols == ()

    def test_rref_shape_invariants(self):
        result = gf3.rref([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
        for r, col in enumerate(result.pivot_cols):
            column = result.rref[:, col]
            assert column[r] == 1
            assert (np.delete(column, r) == 0).all()
        assert list(result.pivot_cols) == sorted(result.pivot_cols)

    @given(small_matrices())
    def test_idempotent(self, mat):
        once = gf3.rref(mat)
        twice = gf3.rref(once.rref)
        assert np.array_equal(once.rref, twice.rref)
        assert once.pivot_cols == twice.pivot_cols

    @given(small_matrices())
    def test_row_equivalence_preserves_kernel(self, mat):
        assert kernel_scan(mat) == kernel_scan(gf3.rref(mat).rref)

    @given(small_matrices(max_dim=4))
    def test_rank_equals_transpose_rank(self, mat):
        assert gf3.rref(mat).rank == gf3.rref(mat.T).rank

    @given(small_matrices(max_dim=4))
    def test_rank_against_kernel_scan(self, mat):
        assert gf3.rref(mat).rank == brute_force_rank(mat)


class TestNullspace:
    def test_identity_trivial_kernel(self):
        assert gf3.nullspace_basis(np.eye(2, dtype=int)) == []

    def test_zero_matrix_full_kernel(self):
        basis = gf3.nullspace_basis(np.zeros((1, 3), dtype=int))
        assert len(basis) == 3
        assert [list(v) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @given(small_matrices())
    def test_dimension_and_membership(self, mat):
        basis = gf3.nullspace_basis(mat)
        assert len(basis) == mat.shape[1] - gf3.rref(mat).rank
        for vec in basis:
            assert (gf3.matvec(mat, vec) == 0).all()

    @given(small_matrices(max_dim=4))
    def test_basis_spans_scanned_kernel(self, mat):
        basis = gf3.nullspace_basis(mat)
        spanned = set()
        for coeffs in itertools.product((0, 1, 2), repeat=len(basis)):
            vec = np.zeros(mat.shape[1], dtype=np.int64)
            for c, b in zip(coeffs, basis):
                vec = (vec + c * b.astype(np.int64)) % 3
            spanned.add(tuple(int(x) for x in vec))
        assert spanned == kernel_scan(mat)


class TestColumnSubmatrixRank:
    def test_all_columns(self):
        mat = [[1, 1, 0], [0, 1, 1]]
        assert gf3.column_submatrix_rank(mat, range(3)) == gf3.rref(mat).rank

    def test_empty_selection(self):
        assert gf3.column_submatrix_rank([[1, 1], [0, 1]], []) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gf3.column_submatrix_rank([[1, 1], [0, 1]], [2])

    def test_duplicate_columns_collapse(self):
        mat = [[1, 2], [0, 1]]
        assert gf3.column_submatrix_rank(mat, [0, 0, 1]) == 2


class TestNonsingular:
    @pytest.mark.parametrize("size", range(7))
    def test_matches_column_rank(self, size):
        rng = np.random.default_rng(size)
        blocks = rng.integers(0, 3, size=(300, size, size), dtype=np.uint8)
        # Sparse blocks, and blocks with a row repeated as a multiple of
        # another, make many of them singular.
        blocks[100:200][rng.random((100, size, size)) < 0.6] = 0
        if size >= 2:
            blocks[200:, 1] = (2 * blocks[200:, 0]) % 3
        expected = [gf3.column_submatrix_rank(b, range(size)) == size for b in blocks]
        assert gf3.nonsingular(blocks).tolist() == expected
        if size:
            assert 0 < sum(expected) < len(expected)

    def test_empty_stack(self):
        assert gf3.nonsingular(np.zeros((0, 3, 3), dtype=np.uint8)).shape == (0,)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gf3.nonsingular(np.zeros((2, 2, 3), dtype=np.uint8))


class TestSolveParametric:
    def test_identity_has_no_free_variables(self):
        sol = gf3.solve_parametric(np.eye(3, dtype=int))
        assert sol.free_cols == ()
        assert list(sol.substitute([])) == [0, 0, 0]

    def test_zero_matrix_all_free(self):
        sol = gf3.solve_parametric(np.zeros((2, 3), dtype=int))
        assert sol.free_cols == (0, 1, 2)
        assert list(sol.substitute([1, 2, 1])) == [1, 2, 1]

    @given(small_matrices())
    def test_zero_assignment_gives_zero_vector(self, mat):
        sol = gf3.solve_parametric(mat)
        assert (sol.substitute([0] * len(sol.free_cols)) == 0).all()

    @given(small_matrices(), st.data())
    def test_any_assignment_lands_in_kernel(self, mat, data):
        sol = gf3.solve_parametric(mat)
        values = data.draw(
            st.lists(st.integers(0, 2), min_size=len(sol.free_cols), max_size=len(sol.free_cols))
        )
        vec = sol.substitute(values)
        assert (gf3.matvec(mat, vec) == 0).all()

    def test_batch_agrees_with_single(self):
        mat = [[1, 1, 0, 2], [0, 1, 1, 1]]
        sol = gf3.solve_parametric(mat)
        assignments = list(itertools.product((0, 1, 2), repeat=len(sol.free_cols)))
        batch = sol.substitute_batch(np.array(assignments))
        for row, assignment in zip(batch, assignments):
            assert np.array_equal(row, sol.substitute(assignment))


class TestRowOps:
    def test_row_combination_length_check(self):
        with pytest.raises(ValueError):
            gf3.row_combination([[1, 0], [0, 1]], [1])

    def test_row_combination_value(self):
        combined = gf3.row_combination([[1, 1, 0], [0, 1, 1]], [1, 2])
        assert list(combined) == [1, 0, 2]

    def test_as_gf3_reduces_negatives(self):
        arr = gf3.as_gf3([[-1, 4], [3, -2]])
        assert arr.tolist() == [[2, 1], [0, 1]]
        assert arr.dtype == np.uint8
