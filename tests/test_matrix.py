"""Unit tests for the SparseMatrix container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.matrix import SparseMatrix


def _reference_canonicalize(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort row-major, sum duplicates, drop explicit zeros."""
    if not rows.size:
        return rows, cols, vals
    keys = rows * shape[1] + cols
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(unique_keys.size)
    np.add.at(summed, inverse, vals)
    keep = summed != 0.0
    unique_keys, summed = unique_keys[keep], summed[keep]
    return unique_keys // shape[1], unique_keys % shape[1], summed


def _case(shape, triplets):
    rows, cols, vals = zip(*triplets)
    return (
        shape,
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


def _shuffled(shape, nnz, seed, duplicates=0):
    """``nnz`` distinct random positions (plus ``duplicates`` repeats of
    some of them), in random order."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(shape[0] * shape[1], size=nnz, replace=False)
    flat = np.concatenate([flat, rng.choice(flat, size=duplicates)])
    rng.shuffle(flat)
    vals = rng.uniform(-2.0, 2.0, size=flat.size)
    return shape, flat // shape[1], flat % shape[1], vals


_ORDER_DEPENDENT = [(1e16, 1.0, -1e16, 1.0), (1.0, 1e16, 1.0, -1e16)]


def _heavy_duplicates(shape, nnz, seed):
    """``nnz`` entries on few coordinates, in random order, with values
    whose sums depend on the order they are added in.  Large enough
    that an unstable sort reorders equal keys."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, shape[0] * shape[1], size=nnz)
    vals = rng.choice([1e16, -1e16, 1.0, 3.0, -0.5], size=nnz)
    return shape, flat // shape[1], flat % shape[1], vals

CANONICALIZE_CASES = {
    "sorted": _case((4, 5), [(0, 1, 1.5), (0, 4, 2.0), (2, 0, -1.0),
                             (3, 3, 4.0)]),
    "reversed": _case((4, 5), [(3, 3, 4.0), (2, 0, -1.0), (0, 4, 2.0),
                               (0, 1, 1.5)]),
    "shuffled": _shuffled((37, 53), 400, seed=1),
    "shuffled-with-duplicates": _shuffled((37, 53), 400, seed=2,
                                          duplicates=150),
    "many-order-dependent-sums": _heavy_duplicates((7, 11), 30_000,
                                                   seed=5),
    "order-dependent-sum": _case(
        (3, 3),
        [(1, 1, v) for v in _ORDER_DEPENDENT[0]]
        + [(0, 2, 5.0)]
        + [(2, 0, v) for v in _ORDER_DEPENDENT[1]],
    ),
    "explicit-zeros-sorted": _case((3, 3), [(0, 0, 1.0), (1, 1, 0.0),
                                            (2, 2, 2.0)]),
    "explicit-zeros-unsorted": _case((3, 3), [(2, 2, 0.0), (0, 0, 1.0),
                                              (1, 1, 0.0)]),
    "negative-zero": _case((3, 3), [(0, 0, -0.0), (1, 2, 3.0),
                                    (2, 1, -0.0)]),
    "negative-zero-duplicate": _case((3, 3), [(1, 1, -0.0), (1, 1, -0.0),
                                              (0, 0, 1.0)]),
    "exact-cancellation": _case((2, 4), [(1, 3, 0.1), (0, 0, 2.0),
                                         (1, 3, -0.1)]),
    "all-cancel": _case((2, 2), [(0, 1, 3.0), (0, 1, -3.0)]),
    "one-entry": _case((1, 1), [(0, 0, 7.25)]),
    "one-row": _case((1, 9), [(0, 8, 1.0), (0, 0, 2.0), (0, 4, 3.0)]),
    "one-col": _case((9, 1), [(8, 0, 1.0), (0, 0, 2.0), (4, 0, 3.0)]),
    "wide": _shuffled((3, 70_000), 500, seed=3),
    "tall": _shuffled((70_000, 3), 500, seed=4, duplicates=20),
}


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + array.tobytes()


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        matrix = SparseMatrix.from_dense(dense)
        assert matrix.nnz == 4
        assert np.array_equal(matrix.to_dense(), dense)

    def test_from_dense_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            SparseMatrix.from_dense(np.zeros(5))
        with pytest.raises(ShapeError):
            SparseMatrix.from_dense(np.zeros((2, 2, 2)))

    def test_explicit_zeros_are_dropped(self):
        matrix = SparseMatrix((3, 3), [0, 1, 2], [0, 1, 2], [1.0, 0.0, 2.0])
        assert matrix.nnz == 2

    def test_duplicates_are_summed(self):
        matrix = SparseMatrix((3, 3), [1, 1, 1], [2, 2, 0], [1.0, 2.5, 4.0])
        assert matrix.nnz == 2
        assert matrix.to_dense()[1, 2] == pytest.approx(3.5)

    def test_duplicates_summing_to_zero_are_dropped(self):
        matrix = SparseMatrix((2, 2), [0, 0], [1, 1], [3.0, -3.0])
        assert matrix.nnz == 0

    def test_triplets_sorted_row_major(self):
        matrix = SparseMatrix(
            (3, 3), [2, 0, 1, 0], [0, 2, 1, 0], [1.0, 2.0, 3.0, 4.0]
        )
        keys = matrix.rows * 3 + matrix.cols
        assert np.all(np.diff(keys) > 0)

    def test_out_of_bounds_rows_rejected(self):
        with pytest.raises(ShapeError):
            SparseMatrix((2, 2), [2], [0], [1.0])
        with pytest.raises(ShapeError):
            SparseMatrix((2, 2), [-1], [0], [1.0])

    def test_out_of_bounds_cols_rejected(self):
        with pytest.raises(ShapeError):
            SparseMatrix((2, 2), [0], [5], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            SparseMatrix((3, 3), [0, 1], [0], [1.0, 2.0])

    def test_non_positive_shape_rejected(self):
        with pytest.raises(ShapeError):
            SparseMatrix((0, 3), [], [], [])
        with pytest.raises(ShapeError):
            SparseMatrix((3, -1), [], [], [])

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ShapeError):
            SparseMatrix((3, 3), [0.5], [0], [1.0])

    def test_integer_valued_floats_accepted(self):
        matrix = SparseMatrix((3, 3), [1.0], [2.0], [5.0])
        assert matrix.rows.dtype == np.int64

    def test_from_triplets(self):
        matrix = SparseMatrix.from_triplets((4, 4), [(0, 1, 2.0), (3, 3, 1.0)])
        assert matrix.nnz == 2
        assert matrix.to_dense()[0, 1] == 2.0

    def test_from_triplets_empty(self):
        matrix = SparseMatrix.from_triplets((4, 4), [])
        assert matrix.nnz == 0

    def test_empty(self):
        matrix = SparseMatrix.empty((5, 7))
        assert matrix.shape == (5, 7)
        assert matrix.nnz == 0
        assert matrix.density == 0.0

    def test_identity(self):
        matrix = SparseMatrix.identity(4, scale=3.0)
        assert np.array_equal(matrix.to_dense(), 3.0 * np.eye(4))


class TestCanonicalizeDifferential:
    """Construction is bit-identical to the stable-sort-and-sum oracle."""

    @pytest.mark.parametrize(
        "case", sorted(CANONICALIZE_CASES), ids=str
    )
    def test_matches_reference(self, case):
        shape, rows, cols, vals = CANONICALIZE_CASES[case]
        expected = _reference_canonicalize(
            shape, rows.copy(), cols.copy(), vals.copy()
        )
        matrix = SparseMatrix(shape, rows, cols, vals)
        actual = (matrix.rows, matrix.cols, matrix.vals)
        for got, want, dtype in zip(actual, expected, ("<i8", "<i8", "<f8")):
            assert got.dtype.str == dtype
            assert _bits(got) == _bits(want)

    def test_order_dependent_sums_keep_input_order(self):
        shape, rows, cols, vals = CANONICALIZE_CASES["order-dependent-sum"]
        dense = SparseMatrix(shape, rows, cols, vals).to_dense()
        assert dense[1, 1] == 1.0
        assert dense[2, 0] == 0.0


class TestOwnership:
    """A matrix never shares memory with its caller's arrays."""

    @pytest.mark.parametrize("case", ["sorted", "shuffled", "one-entry"])
    def test_mutating_inputs_leaves_matrix_unchanged(self, case):
        shape, *arrays = CANONICALIZE_CASES[case]
        rows, cols, vals = (array.copy() for array in arrays)
        assert rows.dtype == np.int64 and vals.dtype == np.float64
        matrix = SparseMatrix(shape, rows, cols, vals)
        before = [a.copy() for a in (matrix.rows, matrix.cols, matrix.vals)]
        rows[:] = 0
        cols[:] = 0
        vals[:] = 99.0
        after = (matrix.rows, matrix.cols, matrix.vals)
        for old, new in zip(before, after):
            assert _bits(old) == _bits(new)


class TestProperties:
    def test_basic_dimensions(self):
        matrix = SparseMatrix((3, 5), [0], [4], [1.0])
        assert matrix.n_rows == 3
        assert matrix.n_cols == 5
        assert not matrix.is_square

    def test_density(self):
        matrix = SparseMatrix.identity(4)
        assert matrix.density == pytest.approx(4 / 16)

    def test_equality(self):
        a = SparseMatrix((2, 2), [0], [1], [2.0])
        b = SparseMatrix((2, 2), [0], [1], [2.0])
        c = SparseMatrix((2, 2), [0], [1], [3.0])
        assert a == b
        assert a != c
        assert a != "not a matrix"

    def test_repr_mentions_shape_and_nnz(self):
        text = repr(SparseMatrix.identity(3))
        assert "(3, 3)" in text
        assert "nnz=3" in text


class TestStatistics:
    def test_row_and_col_nnz(self):
        matrix = SparseMatrix((3, 3), [0, 0, 2], [0, 1, 1], [1, 1, 1])
        assert list(matrix.row_nnz()) == [2, 0, 1]
        assert list(matrix.col_nnz()) == [1, 2, 0]

    def test_nnz_rows_and_cols(self):
        matrix = SparseMatrix((4, 4), [0, 0, 3], [1, 2, 1], [1, 1, 1])
        assert matrix.nnz_rows() == 2
        assert matrix.nnz_cols() == 2

    def test_diagonals(self):
        matrix = SparseMatrix((4, 4), [0, 1, 2], [0, 3, 0], [1, 1, 1])
        assert list(matrix.diagonals()) == [-2, 0, 2]

    def test_diagonals_empty(self):
        assert SparseMatrix.empty((3, 3)).diagonals().size == 0

    def test_bandwidth(self):
        matrix = SparseMatrix((5, 5), [0, 4], [3, 4], [1, 1])
        assert matrix.bandwidth() == 3
        assert SparseMatrix.empty((3, 3)).bandwidth() == 0

    def test_identity_statistics(self):
        matrix = SparseMatrix.identity(6)
        assert matrix.nnz_rows() == 6
        assert list(matrix.diagonals()) == [0]
        assert matrix.bandwidth() == 0


class TestTransforms:
    def test_transpose(self, corpus_matrix):
        transposed = corpus_matrix.transpose()
        assert np.array_equal(
            transposed.to_dense(), corpus_matrix.to_dense().T
        )

    def test_transpose_involution(self, corpus_matrix):
        assert corpus_matrix.transpose().transpose() == corpus_matrix

    def test_scaled(self):
        matrix = SparseMatrix.identity(3)
        assert np.array_equal(matrix.scaled(2.0).to_dense(), 2.0 * np.eye(3))

    def test_scaled_by_zero_is_empty(self):
        assert SparseMatrix.identity(3).scaled(0.0).nnz == 0

    def test_submatrix(self):
        dense = np.arange(16.0).reshape(4, 4)
        matrix = SparseMatrix.from_dense(dense)
        sub = matrix.submatrix(1, 3, 2, 4)
        assert np.array_equal(sub.to_dense(), dense[1:3, 2:4])

    def test_submatrix_bad_slice(self):
        matrix = SparseMatrix.identity(4)
        with pytest.raises(ShapeError):
            matrix.submatrix(3, 1, 0, 4)
        with pytest.raises(ShapeError):
            matrix.submatrix(0, 4, 0, 5)

    def test_with_shape_embeds(self):
        matrix = SparseMatrix((2, 2), [1], [1], [5.0])
        bigger = matrix.with_shape((4, 4))
        assert bigger.shape == (4, 4)
        assert bigger.to_dense()[1, 1] == 5.0

    def test_add(self):
        a = SparseMatrix((2, 2), [0], [0], [1.0])
        b = SparseMatrix((2, 2), [0, 1], [0, 1], [2.0, 3.0])
        total = a.add(b)
        assert total.to_dense()[0, 0] == 3.0
        assert total.to_dense()[1, 1] == 3.0

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            SparseMatrix.identity(2).add(SparseMatrix.identity(3))

    def test_add_cancellation(self):
        a = SparseMatrix((2, 2), [0], [0], [1.0])
        total = a.add(a.scaled(-1.0))
        assert total.nnz == 0


class TestSpmv:
    def test_matches_dense(self, corpus_matrix, rng):
        x = rng.uniform(-1, 1, size=corpus_matrix.n_cols)
        expected = corpus_matrix.to_dense() @ x
        assert np.allclose(corpus_matrix.spmv(x), expected)

    def test_wrong_vector_length(self):
        with pytest.raises(ShapeError):
            SparseMatrix.identity(3).spmv(np.ones(4))

    def test_empty_matrix_gives_zero(self):
        out = SparseMatrix.empty((3, 3)).spmv(np.ones(3))
        assert np.array_equal(out, np.zeros(3))

    def test_linearity(self, rng):
        matrix = SparseMatrix.from_dense(rng.uniform(size=(6, 6)))
        x = rng.uniform(size=6)
        y = rng.uniform(size=6)
        assert np.allclose(
            matrix.spmv(2.0 * x + y),
            2.0 * matrix.spmv(x) + matrix.spmv(y),
        )
