"""Exact linear algebra over the three-element field.

Matrices are dense numpy arrays with entries in {0, 1, 2}, where 2 doubles
as -1.  Everything is integer arithmetic mod 3 -- no floating point -- and
``rref`` returns the unique reduced row echelon form of its matrix, so ranks,
pivot columns and kernel parametrizations are reproducible bit for bit.

``rref`` eliminates on bit-sliced rows (Boothby and Bradshaw): a row is two
Python ints, bit j of ``ones`` set where entry j is 1 and bit j of ``twos``
where it is 2.  Scaling by 2 swaps the planes and adding a row is a dozen
whole-row bitwise operations.  Rows are found by their leading column and,
going back, by one bitset per pivot column, so only rows nonzero in the
pivot column are touched; whatever the order of work, the output is the
unique reduced form, the same bytes as plain Gauss-Jordan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_gf3",
    "RrefResult",
    "rref",
    "column_submatrix_rank",
    "ParametricSolution",
    "solve_parametric",
    "row_combination",
]


def as_gf3(values, ndim: int = 2) -> np.ndarray:
    """A new ``ndim``-d uint8 array of ``values`` reduced mod 3, refusing non-integral entries.

    Integer arrays reduce in one pass.  Nested sequences are read as Python
    objects, so integers of any size reduce exactly, not through a float.
    """
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-d values, got ndim={arr.ndim}")
    if arr.dtype.kind in "biu":
        return (arr % 3).astype(np.uint8, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            reduced = arr % 3
            out = reduced.astype(np.uint8)
        if (reduced == out).all():
            return out
    except (TypeError, ValueError):
        pass
    raise ValueError("matrix entries must be integers")


@dataclass(frozen=True, eq=False)
class RrefResult:
    rref: np.ndarray
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def parametric(self) -> ParametricSolution:
        """The kernel of the reduced matrix, parametrized by its free columns."""
        free_cols = tuple(sorted(set(range(self.rref.shape[1])) - set(self.pivot_cols)))
        coeffs = (3 - self.rref[: self.rank][:, list(free_cols)].astype(np.int64)) % 3
        return ParametricSolution(self.pivot_cols, free_cols, coeffs.astype(np.uint8))


def _planes(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as an int whose bit j is the row's entry j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unplanes(planes: list[int], n_cols: int) -> np.ndarray:
    """The 0/1 array whose row i has the bits of ``planes[i]``, inverse of ``_planes``."""
    width = (n_cols + 7) // 8
    data = b"".join(p.to_bytes(width, "little") for p in planes)
    packed = np.frombuffer(data, np.uint8).reshape(len(planes), width)
    return np.unpackbits(packed, axis=1, count=n_cols, bitorder="little")


def _subtract(o: int, t: int, a: int, b: int, zero_p: int, bit: int) -> tuple[int, int]:
    """Row (o, t) less its entry at ``bit`` times the pivot row (a, b), whose entry there is 1.

    ``zero_p`` is ``~(a | b)``.  Subtracting the pivot row adds it twice where
    the row's entry is 1 (its planes swapped) and once where it is 2.
    Entrywise, a sum is 1 from 1+0, 0+1 or 2+2 and 2 from 2+0, 0+2 or 1+1.
    """
    zero_x = ~(o | t)
    y1, y2 = (b, a) if o & bit else (a, b)
    return (o & zero_p) | (y1 & zero_x) | (t & y2), (t & zero_p) | (y2 & zero_x) | (o & y1)


def rref(matrix) -> RrefResult:
    """The reduced row echelon form mod 3 and its pivot columns, both unique for the matrix.

    The forward pass keeps each nonzero row in a bucket keyed by its lowest
    nonzero column.  A column's first bucketed row becomes its pivot,
    scaled to lead with 1, and is subtracted from the rest of that bucket,
    each result moving to the bucket of its new lowest column (or dropping
    out when zero).  Clearing a pivot from the rows above it changes no
    row at an earlier pivot column, so the back pass reads once, from the
    echelon form, which rows each pivot clears, and visits only those.
    """
    mat = as_gf3(matrix)
    n_rows, n_cols = mat.shape
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n_cols)]
    for o, t in zip(_planes(mat == 1), _planes(mat == 2)):
        if z := o | t:
            buckets[(z & -z).bit_length() - 1].append((o, t))
    ones: list[int] = []
    twos: list[int] = []
    pivots: list[int] = []
    for col, bucket in enumerate(buckets):
        if not bucket:
            continue
        bit = 1 << col
        a, b = bucket[0]
        if b & bit:
            a, b = b, a
        zero_p = ~(a | b)
        for o, t in bucket[1:]:
            o, t = _subtract(o, t, a, b, zero_p, bit)
            if z := o | t:
                buckets[(z & -z).bit_length() - 1].append((o, t))
        bucket.clear()  # spent rows go, so peak memory stays that of the output
        ones.append(a)
        twos.append(b)
        pivots.append(col)
    rank = len(pivots)
    if rank:
        above = _planes(_unplanes([o | t for o, t in zip(ones, twos)], n_cols)[:, pivots].T)
        for k in range(rank - 1, 0, -1):
            bit = 1 << pivots[k]
            a, b, zero_p = ones[k], twos[k], ~(ones[k] | twos[k])
            hits = above[k] & ~(1 << k)
            while hits:
                r = (hits & -hits).bit_length() - 1
                hits &= hits - 1
                ones[r], twos[r] = _subtract(ones[r], twos[r], a, b, zero_p, bit)
    zeros = [0] * (n_rows - rank)
    reduced = _unplanes(ones + zeros, n_cols) + 2 * _unplanes(twos + zeros, n_cols)
    return RrefResult(rref=reduced, pivot_cols=tuple(pivots))


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
        arr = as_gf3(assignments)
        if arr.shape[1] != len(self.free_cols):
            raise ValueError(
                f"expected assignments of shape (*, {len(self.free_cols)}), got {arr.shape}"
            )
        full = np.zeros((arr.shape[0], self.n_cols), dtype=np.uint8)
        if self.free_cols:
            full[:, list(self.free_cols)] = arr
        if self.pivot_cols:
            full[:, list(self.pivot_cols)] = (arr.astype(np.int64) @ self.pivot_from_free.T) % 3
        return full


def solve_parametric(matrix) -> ParametricSolution:
    """Parametrize the kernel of ``matrix`` by its free columns."""
    return rref(matrix).parametric()


def row_combination(matrix, coefficients) -> np.ndarray:
    """The row vector ``coefficients . matrix`` reduced mod 3."""
    mat = as_gf3(matrix)
    coeffs = as_gf3(coefficients, 1)
    if coeffs.shape != (mat.shape[0],):
        raise ValueError(f"expected {mat.shape[0]} coefficients, got shape {coeffs.shape}")
    return ((coeffs.astype(np.int64) @ mat.astype(np.int64)) % 3).astype(np.uint8)
