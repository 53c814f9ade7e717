"""Exact linear algebra over the three-element field.

Matrices are dense numpy arrays with entries in {0, 1, 2}, where 2 doubles
as -1.  Everything is integer arithmetic mod 3 -- no floating point -- and
elimination sweeps rows top to bottom, columns left to right, so ranks,
pivot columns and nullspace bases are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "add",
    "sub",
    "mul",
    "neg",
    "inv",
    "as_gf3",
    "RrefResult",
    "rref",
    "nullspace_basis",
    "column_submatrix_rank",
    "nonsingular",
    "ParametricSolution",
    "solve_parametric",
    "row_combination",
    "matvec",
]


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


def as_gf3(matrix) -> np.ndarray:
    """Coerce to a 2-d uint8 array reduced mod 3."""
    arr = np.asarray(matrix, dtype=np.int64) % 3
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return arr.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class RrefResult:
    rref: np.ndarray
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def rref(matrix) -> RrefResult:
    """Reduced row echelon form via Gauss-Jordan elimination mod 3."""
    mat = as_gf3(matrix).copy()
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
        # Add (3 - factor) * pivot row everywhere else: same as subtracting,
        # but stays non-negative so uint8 never wraps.
        factors = mat[:, col].copy()
        factors[row] = 0
        mat = (mat + np.outer((3 - factors) % 3, mat[row])) % 3
        pivots.append(col)
        row += 1
    return RrefResult(rref=mat.astype(np.uint8), pivot_cols=tuple(pivots))


def nullspace_basis(matrix) -> list[np.ndarray]:
    """Kernel basis, one vector per free column, in free-column order."""
    result = rref(matrix)
    reduced = result.rref
    n_cols = reduced.shape[1]
    pivot_set = set(result.pivot_cols)
    basis: list[np.ndarray] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = np.zeros(n_cols, dtype=np.uint8)
        vec[free] = 1
        for r, pc in enumerate(result.pivot_cols):
            vec[pc] = (3 - reduced[r, free]) % 3
        basis.append(vec)
    return basis


def column_submatrix_rank(matrix, cols: Iterable[int]) -> int:
    """Rank of the submatrix formed by the given columns."""
    mat = as_gf3(matrix)
    selected = sorted({int(c) for c in cols})
    for c in selected:
        if not 0 <= c < mat.shape[1]:
            raise IndexError(f"column {c} out of range for {mat.shape[1]} columns")
    if not selected:
        return 0
    return rref(mat[:, selected]).rank


def nonsingular(blocks) -> np.ndarray:
    """Which matrices of a ``(count, r, r)`` stack are invertible, eliminating all at once."""
    mat = (np.asarray(blocks, dtype=np.int64) % 3).astype(np.uint8)
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mat.shape}")
    count, size, _ = mat.shape
    every = np.arange(count)
    ok = np.ones(count, dtype=bool)
    for k in range(size):
        nonzero = mat[:, k:, k] != 0
        ok &= nonzero.any(axis=1)
        pivot = k + nonzero.argmax(axis=1)
        mat[every, k], mat[every, pivot] = mat[every, pivot], mat[every, k]
        # Nonzero elements are their own inverses; singular blocks just zero a row.
        mat[:, k] = (mat[:, k] * mat[:, k, k, None]) % 3
        factors = (3 - mat[:, k + 1 :, k]) % 3
        mat[:, k + 1 :] = (mat[:, k + 1 :] + factors[:, :, None] * mat[:, None, k]) % 3
    return ok


@dataclass(frozen=True, eq=False)
class ParametricSolution:
    """Kernel of a matrix, with pivot variables driven by the free ones.

    A full kernel vector is recovered from any assignment of the free
    variables; the all-zero assignment gives the zero vector.
    """

    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    pivot_from_free: np.ndarray  # shape (len(pivot_cols), len(free_cols))

    @property
    def n_cols(self) -> int:
        return len(self.pivot_cols) + len(self.free_cols)

    def substitute(self, free_values: Sequence[int]) -> np.ndarray:
        return self.substitute_batch(np.asarray(free_values).reshape(1, -1))[0]

    def substitute_batch(self, assignments) -> np.ndarray:
        """Turn each row of free-variable values into a full kernel vector."""
        arr = np.asarray(assignments, dtype=np.int64) % 3
        if arr.ndim != 2 or arr.shape[1] != len(self.free_cols):
            raise ValueError(
                f"expected assignments of shape (*, {len(self.free_cols)}), got {arr.shape}"
            )
        full = np.zeros((arr.shape[0], self.n_cols), dtype=np.uint8)
        if self.free_cols:
            full[:, list(self.free_cols)] = arr
        if self.pivot_cols:
            full[:, list(self.pivot_cols)] = (arr @ self.pivot_from_free.T.astype(np.int64)) % 3
        return full


def solve_parametric(matrix) -> ParametricSolution:
    """Parametrize the kernel of ``matrix`` by its free columns."""
    result = rref(matrix)
    reduced = result.rref
    n_cols = reduced.shape[1]
    pivot_set = set(result.pivot_cols)
    free_cols = tuple(c for c in range(n_cols) if c not in pivot_set)
    coeffs = (3 - reduced[: result.rank][:, list(free_cols)].astype(np.int64)) % 3
    return ParametricSolution(
        pivot_cols=result.pivot_cols,
        free_cols=free_cols,
        pivot_from_free=coeffs.astype(np.uint8),
    )


def row_combination(matrix, coefficients) -> np.ndarray:
    """The row vector ``coefficients . matrix`` reduced mod 3."""
    mat = as_gf3(matrix)
    coeffs = np.asarray(coefficients, dtype=np.int64) % 3
    if coeffs.shape != (mat.shape[0],):
        raise ValueError(f"expected {mat.shape[0]} coefficients, got shape {coeffs.shape}")
    return ((coeffs @ mat.astype(np.int64)) % 3).astype(np.uint8)


def matvec(matrix, vector) -> np.ndarray:
    """The product ``matrix . vector`` reduced mod 3."""
    mat = as_gf3(matrix)
    vec = np.asarray(vector, dtype=np.int64) % 3
    if vec.shape != (mat.shape[1],):
        raise ValueError(f"expected a vector of length {mat.shape[1]}, got shape {vec.shape}")
    return ((mat.astype(np.int64) @ vec) % 3).astype(np.uint8)
