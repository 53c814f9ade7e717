"""Field arithmetic and exact elimination over GF(3)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heawood import build_main_sle, circular_ladder, k4
from heawood import gf3
from perfbench.graphgen import random_planar_cubic

from conftest import brute_force_rank, kernel_scan, nullspace_basis, reference_nonsingular


def small_matrices(max_dim: int = 5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: arrays(np.uint8, (r, c), elements=st.integers(0, 2))
        )
    )


# Scalar field operations, as the package's arrays compute them.


def add(a: int, b: int) -> int:
    return (a + b) % 3


def sub(a: int, b: int) -> int:
    return (a - b) % 3


def mul(a: int, b: int) -> int:
    return (a * b) % 3


def neg(a: int) -> int:
    return (-a) % 3


def inv(a: int) -> int:
    """Multiplicative inverse; over GF(3) every nonzero element is its own."""
    if a % 3 == 0:
        raise ZeroDivisionError("0 has no inverse in GF(3)")
    return a % 3


def matvec(matrix, vector) -> np.ndarray:
    """The product ``matrix . vector`` reduced mod 3."""
    return (gf3.as_gf3(matrix).astype(np.int64) @ np.asarray(vector, dtype=np.int64)) % 3


def reference_rref(matrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense Gauss-Jordan mod 3, one whole-matrix update per pivot.

    Sweeps rows top to bottom and columns left to right in plain numpy.  The
    reduced form and its pivot columns are unique for the matrix, so
    ``gf3.rref`` must return the same bytes by any route; this is kept as an
    independent reference for it.
    """
    mat = gf3.as_gf3(matrix).copy()
    n_rows, n_cols = mat.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        nonzero = np.nonzero(mat[row:, col])[0]
        if nonzero.size == 0:
            continue
        pivot = row + int(nonzero[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        if mat[row, col] == 2:
            mat[row] = (mat[row] * 2) % 3
        factors = mat[:, col].copy()
        factors[row] = 0
        mat = (mat + np.outer((3 - factors) % 3, mat[row])) % 3
        pivots.append(col)
        row += 1
    return mat.astype(np.uint8), tuple(pivots)


def reference_nullspace(matrix) -> list[np.ndarray]:
    """Kernel basis read off ``reference_rref``, one vector per free column."""
    reduced, pivot_cols = reference_rref(matrix)
    basis = []
    for free in sorted(set(range(reduced.shape[1])) - set(pivot_cols)):
        vec = np.zeros(reduced.shape[1], dtype=np.uint8)
        vec[free] = 1
        for r, pc in enumerate(pivot_cols):
            vec[pc] = (3 - reduced[r, free]) % 3
        basis.append(vec)
    return basis


def shared_lead_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    """Combinations of a few base rows, so that many rows share a leading column.

    The base rows start after a run of zeros; a quarter of the rows are
    zeroed and another quarter copy or double earlier rows, then all are
    shuffled.
    """
    base = rng.integers(0, 3, size=(int(rng.integers(1, 5)), n_cols))
    base[:, : int(rng.integers(0, n_cols // 2 + 1))] = 0
    rows = (rng.integers(0, 3, size=(n_rows, len(base))) @ base) % 3
    quarter = n_rows // 4
    rows[:quarter] = 0
    rows[quarter : 2 * quarter] = (rows[-quarter:] * rng.integers(1, 3, size=(quarter, 1))) % 3
    rng.shuffle(rows)
    return rows


def assert_same_rref(matrix) -> None:
    expected, pivots = reference_rref(matrix)
    result = gf3.rref(matrix)
    assert result.rref.dtype == np.uint8
    assert result.rref.shape == expected.shape
    assert result.rref.tobytes() == expected.tobytes()
    assert result.pivot_cols == pivots


class TestScalars:
    def test_field_axioms_exhaustive(self):
        elems = (0, 1, 2)
        for a, b, c in itertools.product(elems, repeat=3):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in elems:
            assert add(a, 0) == a
            assert mul(a, 1) == a
            assert add(a, neg(a)) == 0
            if a != 0:
                assert mul(a, inv(a)) == 1
        assert add(1, 2) == 0  # 2 acts as -1
        assert sub(0, 1) == 2

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            inv(0)

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


# Embeddings of 8..400 vertices from one seeded generator stream.
GENERATED_SIZES = (8, 10, 12, 16, 20, 26, 32, 40, 50, 64, 80, 100, 120, 150, 180, 220, 260, 300, 350, 400)


class TestRrefAgainstReference:
    """The bit-sliced kernel against the dense elimination, byte for byte."""

    @pytest.mark.parametrize("n_rows", range(11))
    def test_every_small_shape(self, n_rows):
        rng = np.random.default_rng(n_rows)
        for n_cols in range(11):
            shape = (n_rows, n_cols)
            cases = [rng.integers(0, 3, size=shape) for _ in range(6)]
            sparse = rng.integers(0, 3, size=shape)
            sparse[rng.random(shape) < 0.7] = 0
            repeated = rng.integers(0, 3, size=shape)
            if n_rows >= 2:
                repeated[-1] = (2 * repeated[0]) % 3
                repeated[n_rows // 2] = repeated[0]
            cases += [sparse, repeated, np.zeros(shape, dtype=int), np.full(shape, 2)]
            for mat in cases:
                assert_same_rref(mat)
        # Larger tall and wide matrices whose rows crowd into few leading columns.
        for _ in range(3):
            rows = int(rng.integers(12, 61))
            assert_same_rref(shared_lead_rows(rng, rows, int(rng.integers(1, rows))))
            assert_same_rref(shared_lead_rows(rng, rows, int(rng.integers(rows + 1, 2 * rows))))

    def test_list_and_large_int_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mat = rng.integers(0, 3, size=(rng.integers(1, 8), rng.integers(1, 8)))
            assert_same_rref(mat.tolist())
            shifts = rng.integers(-5, 6, size=mat.shape).tolist()
            shifted = [[x + 3**70 * k for x, k in zip(row, ks)] for row, ks in zip(mat.tolist(), shifts)]
            result = gf3.rref(shifted)
            expected, pivots = reference_rref(mat)
            assert result.rref.tobytes() == expected.tobytes()
            assert result.pivot_cols == pivots

    @pytest.mark.parametrize(
        "g", [k4()] + [circular_ladder(n) for n in (*range(3, 13), 200)],
        ids=["k4"] + [f"cl_{n}" for n in (*range(3, 13), 200)],
    )
    def test_main_systems_of_families(self, g):
        assert_same_rref(build_main_sle(g).matrix)

    def test_generated_main_systems_and_outside_blocks(self):
        rng = random.Random(8)
        for v in GENERATED_SIZES:
            matrix = build_main_sle(random_planar_cubic(v, rng)).matrix
            assert_same_rref(matrix)
            # The workload's zebra sizes n - 2, n - 1 and n, and n + 1.
            for size in (v // 2 - 2, v // 2 - 1, v // 2, v // 2 + 1):
                outside = sorted(set(range(v)) - set(rng.sample(range(v), size)))
                # The left kernel of the outside columns, as zebra_witness asks for it.
                assert_same_rref(matrix[:, outside].T)


class TestNullspace:
    def test_identity_trivial_kernel(self):
        assert nullspace_basis(np.eye(2, dtype=int)) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace_basis(np.zeros((1, 3), dtype=int))
        assert len(basis) == 3
        assert [list(v) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @given(small_matrices(max_dim=7))
    def test_same_vectors_as_reference(self, mat):
        basis = nullspace_basis(mat)
        expected = reference_nullspace(mat)
        assert len(basis) == len(expected)
        for vec, want in zip(basis, expected):
            assert vec.dtype == np.uint8
            assert vec.tobytes() == want.tobytes()

    @given(small_matrices())
    def test_dimension_and_membership(self, mat):
        basis = nullspace_basis(mat)
        assert len(basis) == mat.shape[1] - gf3.rref(mat).rank
        for vec in basis:
            assert (matvec(mat, vec) == 0).all()

    @given(small_matrices(max_dim=4))
    def test_basis_spans_scanned_kernel(self, mat):
        basis = nullspace_basis(mat)
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
        assert reference_nonsingular(blocks).tolist() == expected
        if size:
            assert 0 < sum(expected) < len(expected)

    def test_empty_stack(self):
        assert reference_nonsingular(np.zeros((0, 3, 3), dtype=np.uint8)).shape == (0,)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            reference_nonsingular(np.zeros((2, 2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("bad", [np.array([[[1.5]]]), [[[0.5, 1], [1, 1]]], [[["1"]]]])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            reference_nonsingular(bad)

    def test_integral_values_accepted(self):
        assert reference_nonsingular([[[2.0, 0], [0, -1]], [[3**80, 1], [0, 1]]]).tolist() == [True, False]


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
        assert (matvec(mat, vec) == 0).all()

    @pytest.mark.parametrize("bad", [[2.7], [1.5], ["1"], [float("nan")]])
    def test_substitute_rejects_non_integers(self, bad):
        sol = gf3.solve_parametric([[1, 1]])
        with pytest.raises(ValueError, match="integers"):
            sol.substitute(bad)
        with pytest.raises(ValueError, match="integers"):
            sol.substitute_batch([bad])

    def test_substitute_accepts_integral_values(self):
        sol = gf3.solve_parametric([[1, 1]])
        assert sol.substitute([2.0]).tolist() == [1, 2]
        assert sol.substitute_batch([[3**80 + 1], [-1]]).tolist() == [[2, 1], [1, 2]]

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

    @pytest.mark.parametrize("bad", [[1.5], np.array([0.5]), ["1"], [1j]])
    def test_row_combination_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="integers"):
            gf3.row_combination([[1, 1]], bad)

    def test_row_combination_accepts_integral_values(self):
        assert gf3.row_combination([[1, 1], [0, 1]], [2.0, 3**80 + 2]).tolist() == [2, 1]

    def test_row_combination_value(self):
        combined = gf3.row_combination([[1, 1, 0], [0, 1, 1]], [1, 2])
        assert list(combined) == [1, 0, 2]

    def test_as_gf3_reduces_negatives(self):
        arr = gf3.as_gf3([[-1, 4], [3, -2]])
        assert arr.tolist() == [[2, 1], [0, 1]]
        assert arr.dtype == np.uint8

    def test_as_gf3_accepts_integral_values(self):
        assert gf3.as_gf3([[True, False], [-7, 3**80 + 2]]).tolist() == [[1, 0], [2, 2]]
        assert gf3.as_gf3(np.array([[True, False]])).tolist() == [[1, 0]]
        assert gf3.as_gf3(np.array([[-1, -5]], dtype=np.int8)).tolist() == [[2, 1]]
        assert gf3.as_gf3([[2.0, -1.0]]).tolist() == [[2, 2]]
        assert gf3.as_gf3(np.array([[4.0, -3.0]])).tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "bad",
        [[[1.5, 2]], np.array([[0.5]]), [[3**80, 0.25]], np.array([[np.nan]]),
         [[float("inf")]], [["1"]], np.array([["1"]]), [[1j]]],
    )
    def test_as_gf3_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="integers"):
            gf3.as_gf3(bad)
        with pytest.raises(ValueError):
            gf3.rref(bad)

    @pytest.mark.parametrize("bad", [[1, 2], [[[1]]], [[1, 2], [3]]])
    def test_as_gf3_rejects_other_shapes(self, bad):
        with pytest.raises(ValueError):
            gf3.as_gf3(bad)
