"""Core sparse-matrix container.

:class:`SparseMatrix` is the library's canonical in-memory representation:
a coordinate (triplet) list kept in row-major sorted order, together with
the logical shape.  It is deliberately independent of the on-wire sparse
*formats* in :mod:`repro.formats` — those model how a matrix is compressed
for transfer to the accelerator, while this class models the matrix itself.

The container is immutable after construction; all transforming operations
return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = ["SparseMatrix"]


def _as_index_array(values: object, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        as_int = array.astype(np.int64)
        if not np.array_equal(as_int, array):
            raise ShapeError(f"{name} must be integers, got dtype {array.dtype}")
        array = as_int
    return np.asarray(array, dtype=np.int64).ravel()


@dataclass(frozen=True)
class SparseMatrix:
    """An immutable sparse matrix stored as sorted COO triplets.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)`` of the logical matrix.
    rows, cols:
        Integer coordinate arrays of equal length.
    vals:
        Float values; entries equal to zero are dropped, and duplicate
        coordinates are summed (last-write-wins is *not* used because the
        paper's workloads never rely on it and summation matches the
        conventional COO semantics).
    """

    shape: tuple[int, int]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows <= 0 or n_cols <= 0:
            raise ShapeError(f"matrix shape must be positive, got {self.shape}")
        rows = _as_index_array(self.rows, "rows")
        cols = _as_index_array(self.cols, "cols")
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ShapeError(
                "rows, cols and vals must have equal length, got "
                f"{rows.size}, {cols.size}, {vals.size}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ShapeError("row indices out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ShapeError("column indices out of bounds")
        rows, cols, vals = _canonicalize(self.shape, rows, cols, vals)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: object) -> "SparseMatrix":
        """Build from a 2-D array-like, dropping exact zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={array.ndim}")
        rows, cols = np.nonzero(array)
        return cls(array.shape, rows, cols, array[rows, cols])

    @classmethod
    def from_triplets(
        cls,
        shape: tuple[int, int],
        triplets: object,
    ) -> "SparseMatrix":
        """Build from an iterable of ``(row, col, value)`` triplets."""
        items = list(triplets)
        if not items:
            return cls.empty(shape)
        rows, cols, vals = zip(*items)
        return cls(shape, np.array(rows), np.array(cols), np.array(vals))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "SparseMatrix":
        """An all-zero matrix of the given shape."""
        zero = np.zeros(0)
        return cls(shape, zero, zero, zero)

    @classmethod
    def identity(cls, n: int, scale: float = 1.0) -> "SparseMatrix":
        """The ``n x n`` identity matrix (optionally scaled)."""
        idx = np.arange(n)
        return cls((n, n), idx, idx, np.full(n, float(scale)))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.vals.size)

    @property
    def density(self) -> float:
        """Fraction of entries that are non-zero."""
        return self.nnz / (self.n_rows * self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self) -> int:  # frozen dataclass with arrays: hash identity
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"SparseMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    # ------------------------------------------------------------------
    # Structure statistics (used by Figure 3 and the hardware model)
    # ------------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        """Per-row non-zero counts, length ``n_rows``."""
        return np.bincount(self.rows, minlength=self.n_rows)

    def col_nnz(self) -> np.ndarray:
        """Per-column non-zero counts, length ``n_cols``."""
        return np.bincount(self.cols, minlength=self.n_cols)

    def nnz_rows(self) -> int:
        """Number of rows holding at least one non-zero."""
        return int(np.unique(self.rows).size)

    def nnz_cols(self) -> int:
        """Number of columns holding at least one non-zero."""
        return int(np.unique(self.cols).size)

    def diagonals(self) -> np.ndarray:
        """Sorted distinct diagonal offsets (``col - row``) holding data."""
        if not self.nnz:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.cols - self.rows)

    def bandwidth(self) -> int:
        """Maximum ``|col - row|`` over stored entries (0 when empty)."""
        if not self.nnz:
            return 0
        return int(np.abs(self.cols - self.rows).max())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.vals
        return dense

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            (self.n_cols, self.n_rows), self.cols, self.rows, self.vals
        )

    def scaled(self, factor: float) -> "SparseMatrix":
        """Return the matrix with every value multiplied by ``factor``."""
        if factor == 0.0:
            return SparseMatrix.empty(self.shape)
        return SparseMatrix(self.shape, self.rows, self.cols, self.vals * factor)

    def submatrix(
        self,
        row_start: int,
        row_stop: int,
        col_start: int,
        col_stop: int,
    ) -> "SparseMatrix":
        """Extract ``[row_start:row_stop, col_start:col_stop]``."""
        if not (0 <= row_start <= row_stop <= self.n_rows):
            raise ShapeError(f"bad row slice [{row_start}:{row_stop}]")
        if not (0 <= col_start <= col_stop <= self.n_cols):
            raise ShapeError(f"bad column slice [{col_start}:{col_stop}]")
        shape = (row_stop - row_start, col_stop - col_start)
        mask = (
            (self.rows >= row_start)
            & (self.rows < row_stop)
            & (self.cols >= col_start)
            & (self.cols < col_stop)
        )
        return SparseMatrix(
            shape,
            self.rows[mask] - row_start,
            self.cols[mask] - col_start,
            self.vals[mask],
        )

    def with_shape(self, shape: tuple[int, int]) -> "SparseMatrix":
        """Re-embed the same triplets in a (larger) shape."""
        return SparseMatrix(shape, self.rows, self.cols, self.vals)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def spmv(self, x: object) -> np.ndarray:
        """Reference sparse matrix-vector product ``A @ x``.

        This is the *functional* ground truth used to validate every
        format's own traversal-based SpMV in :mod:`repro.formats`.
        """
        vector = np.asarray(x, dtype=np.float64).ravel()
        if vector.size != self.n_cols:
            raise ShapeError(
                f"vector length {vector.size} != matrix columns {self.n_cols}"
            )
        out = np.zeros(self.n_rows)
        np.add.at(out, self.rows, self.vals * vector[self.cols])
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        """Element-wise sum with another matrix of the same shape."""
        if other.shape != self.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return SparseMatrix(
            self.shape,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals, other.vals]),
        )


def _canonicalize(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort row-major, sum duplicates, drop explicit zeros.

    O(nnz) for input already in strictly increasing row-major order:
    no sort at all.  Any other input takes one default-kind argsort and
    nothing more: duplicate-free keys are distinct, so that order is
    the stable one, and a repeated coordinate's values are summed in
    input order (:func:`_sum_duplicates`), whatever order the sort put
    them in.  The returned arrays are always new, never the inputs or
    views of them, so the matrix owns its data.
    """
    if not rows.size:
        return rows.copy(), cols.copy(), vals.copy()
    n_cols = shape[1]
    keys = rows * n_cols + cols
    if np.all(keys[1:] > keys[:-1]):
        rows, cols, vals = rows.copy(), cols.copy(), vals.copy()
    else:
        order = np.argsort(keys)
        keys = keys[order]
        new_key = keys[1:] != keys[:-1]
        if not new_key.all():
            return _sum_duplicates(n_cols, keys, order, new_key, vals)
        # splitting the sorted keys streams; gathering rows and cols by
        # ``order`` would be two more random-access passes
        rows = keys // n_cols
        cols = rows * -n_cols
        cols += keys
        vals = vals[order]
    # 0.0 + v == v, so this drops exactly what summation would
    keep = vals != 0.0
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


def _sum_duplicates(
    n_cols: int,
    keys: np.ndarray,
    order: np.ndarray,
    new_key: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum each coordinate's values, in input order, and drop zeros.

    ``keys`` is sorted by ``order``; ``new_key[i]`` says whether
    ``keys[i + 1]`` differs from ``keys[i]``.  ``np.add.at`` adds in
    index order, so scattering each entry's coordinate back to its
    input position sums every coordinate's values in input order, as
    a stable sort would.
    """
    first = np.ones(keys.size, dtype=bool)
    first[1:] = new_key
    coordinate = np.empty(keys.size, dtype=np.int64)
    coordinate[order] = np.cumsum(first) - 1
    unique_keys = keys[first]
    summed = np.zeros(unique_keys.size)
    np.add.at(summed, coordinate, vals)
    keep = summed != 0.0
    unique_keys, summed = unique_keys[keep], summed[keep]
    return unique_keys // n_cols, unique_keys % n_cols, summed
