"""Unit tests for matrix partitioning and partition profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.matrix import SparseMatrix
from repro.partition import (
    PARTITION_SIZES,
    PROFILE_COLUMNS,
    PartitionProfile,
    ProfileTable,
    count_partitions,
    grid_shape,
    partition_matrix,
    partition_statistics,
    profile_partitions,
    profile_table,
    reassemble,
)
from repro.workloads import band_matrix, random_matrix


class TestGrid:
    def test_grid_shape_exact(self):
        assert grid_shape((32, 32), 16) == (2, 2)

    def test_grid_shape_ragged(self):
        assert grid_shape((33, 17), 16) == (3, 2)

    def test_count_partitions(self):
        assert count_partitions((32, 32), 8) == 16
        assert count_partitions((33, 33), 8) == 25

    def test_invalid_partition_size(self):
        with pytest.raises(PartitionError):
            grid_shape((8, 8), 0)


class TestPartitionMatrix:
    def test_all_zero_tiles_skipped(self):
        matrix = SparseMatrix((32, 32), [0, 31], [0, 31], [1.0, 2.0])
        parts = partition_matrix(matrix, 16)
        assert len(parts) == 2
        coords = {(p.grid_row, p.grid_col) for p in parts}
        assert coords == {(0, 0), (1, 1)}

    def test_tiles_are_padded_to_p(self):
        matrix = SparseMatrix((10, 10), [9], [9], [1.0])
        parts = partition_matrix(matrix, 8)
        assert parts[0].block.shape == (8, 8)

    def test_empty_matrix(self):
        assert partition_matrix(SparseMatrix.empty((16, 16)), 8) == []

    def test_tile_contents(self):
        matrix = SparseMatrix((8, 8), [1, 5], [2, 6], [3.0, 4.0])
        parts = partition_matrix(matrix, 4)
        by_coord = {(p.grid_row, p.grid_col): p for p in parts}
        assert by_coord[(0, 0)].block.to_dense()[1, 2] == 3.0
        assert by_coord[(1, 1)].block.to_dense()[1, 2] == 4.0

    @pytest.mark.parametrize("p", PARTITION_SIZES)
    def test_reassemble_roundtrip(self, p, corpus_matrix):
        parts = partition_matrix(corpus_matrix, p)
        rebuilt = reassemble(corpus_matrix.shape, parts, p)
        assert rebuilt == corpus_matrix

    def test_nnz_preserved(self):
        matrix = random_matrix(100, 0.05, seed=9)
        parts = partition_matrix(matrix, 16)
        assert sum(p.nnz for p in parts) == matrix.nnz


#: Partition and block sizes the vectorized oracle tests cover.
ORACLE_PARTITION_SIZES = (1, 3, 4, 8, 16, 32)
ORACLE_BLOCK_SIZES = (1, 2, 3, 4, 5)


def assert_matches_reference(matrix: SparseMatrix, p: int) -> None:
    """profile_table agrees with the per-tile reference at every b."""
    tiles = partition_matrix(matrix, p)
    for block_size in ORACLE_BLOCK_SIZES:
        table = profile_table(matrix, p, block_size=block_size)
        assert len(table) == len(tiles)
        for profile, tile in zip(table.profiles(), tiles):
            expected = PartitionProfile.of_block(
                tile.block, p, block_size=block_size
            )
            assert profile == expected, (p, block_size, tile.grid_row,
                                         tile.grid_col)


class TestProfiles:
    @pytest.mark.parametrize("p", ORACLE_PARTITION_SIZES)
    def test_vectorized_matches_reference(self, p, corpus_matrix):
        """profile_table must agree with the per-tile reference."""
        assert_matches_reference(corpus_matrix, p)

    @pytest.mark.parametrize("p", ORACLE_PARTITION_SIZES)
    def test_hypersparse_matches_reference(self, p):
        # exactly one entry in every tile of a 5 x 4 grid, placed at a
        # different local (row, col) per tile
        grid_rows, grid_cols = 5, 4
        tile_row, tile_col = np.divmod(np.arange(grid_rows * grid_cols),
                                       grid_cols)
        local = np.arange(tile_row.size) % p
        matrix = SparseMatrix(
            (grid_rows * p, grid_cols * p),
            tile_row * p + local,
            tile_col * p + (p - 1 - local),
            np.arange(1.0, tile_row.size + 1),
        )
        assert len(profile_table(matrix, p)) == grid_rows * grid_cols
        assert_matches_reference(matrix, p)

    @pytest.mark.parametrize("p", [3, 4, 8, 16, 32])
    def test_ragged_shape_matches_reference(self, p):
        # neither dimension is a multiple of p; the corner entry lands
        # in the clipped last tile
        shape = (3 * p + 1, 2 * p + p // 2 + 1)
        corner = SparseMatrix(shape, [shape[0] - 1], [shape[1] - 1], [1.0])
        matrix = random_matrix(shape[0], 0.3, seed=p, n_cols=shape[1])
        assert_matches_reference(matrix.add(corner), p)

    @pytest.mark.parametrize("p", [3, 8, 16])
    def test_shuffled_triplets_match_reference(self, p):
        """Entry order in the input never reaches the profile.

        profile_table's stable sort by tile id relies on SparseMatrix
        storing entries row-major; build from shuffled triplets and
        check both that order and the profiles.
        """
        ordered = random_matrix(5 * p + 2, 0.25, seed=11)
        triplets = list(zip(ordered.rows, ordered.cols, ordered.vals))
        shuffled = np.random.default_rng(p).permutation(len(triplets))
        matrix = SparseMatrix.from_triplets(
            ordered.shape, [triplets[i] for i in shuffled]
        )
        keys = matrix.rows * matrix.shape[1] + matrix.cols
        assert np.all(np.diff(keys) > 0)
        assert matrix == ordered
        assert_matches_reference(matrix, p)

    def test_identity_profiles(self):
        profiles = profile_partitions(SparseMatrix.identity(32), 16)
        assert len(profiles) == 2
        for profile in profiles:
            assert profile.nnz == 16
            assert profile.nnz_rows == 16
            assert profile.max_row_nnz == 1
            assert profile.n_diagonals == 1
            assert profile.dia_stored_len == 16
            assert profile.dia_max_len == 16

    def test_full_tile_profile(self):
        matrix = SparseMatrix.from_dense(np.ones((8, 8)))
        (profile,) = profile_partitions(matrix, 8)
        assert profile.density == 1.0
        assert profile.row_density == 1.0
        assert profile.nnz_row_fraction == 1.0
        assert profile.n_diagonals == 15
        assert profile.dia_stored_len == 64
        assert profile.dia_max_len == 8
        assert profile.n_blocks == 4
        assert profile.nnz_block_rows == 2

    def test_block_statistics(self):
        # single entry touches exactly one block and one block-row
        matrix = SparseMatrix((8, 8), [5], [6], [1.0])
        (profile,) = profile_partitions(matrix, 8, block_size=4)
        assert profile.n_blocks == 1
        assert profile.nnz_block_rows == 1

    def test_profile_requires_data(self):
        with pytest.raises(PartitionError):
            PartitionProfile(
                p=8, nnz=0, nnz_rows=1, nnz_cols=1, max_row_nnz=1,
                max_col_nnz=1, n_blocks=1, nnz_block_rows=1, block_size=4,
                n_diagonals=1, dia_stored_len=1, dia_max_len=1,
            )

    def test_invalid_block_size(self):
        with pytest.raises(PartitionError):
            profile_partitions(SparseMatrix.identity(8), 8, block_size=0)

    def test_band_matrix_diag_counts(self):
        matrix = band_matrix(64, width=4, seed=0)
        for profile in profile_partitions(matrix, 16):
            assert profile.n_diagonals <= 5


class TestProfileTable:
    def test_columns_match_materialized_profiles(self):
        matrix = random_matrix(64, 0.1, seed=2)
        table = profile_table(matrix, 16)
        profiles = profile_partitions(matrix, 16)
        assert table.n_tiles == len(profiles)
        assert len(table) == len(profiles)
        for name in PROFILE_COLUMNS:
            column = getattr(table, name)
            assert column.dtype == np.int64
            assert list(column) == [getattr(p, name) for p in profiles]

    def test_views_equal_scalar_profiles(self):
        matrix = band_matrix(64, width=4, seed=0)
        table = profile_table(matrix, 16)
        assert table.profiles() == profile_partitions(matrix, 16)
        assert table[0] == table.profiles()[0]
        assert list(table) == table.profiles()

    def test_profiles_cached(self):
        table = profile_table(random_matrix(32, 0.1, seed=1), 8)
        assert table.profiles() is table.profiles()

    def test_from_profiles_round_trip(self):
        matrix = random_matrix(48, 0.1, seed=3)
        table = profile_table(matrix, 8)
        rebuilt = ProfileTable.from_profiles(table.profiles())
        for name in PROFILE_COLUMNS:
            assert np.array_equal(
                getattr(table, name), getattr(rebuilt, name)
            )
        assert np.array_equal(table.row_nnz_hist, rebuilt.row_nnz_hist)

    def test_from_profiles_rejects_empty(self):
        with pytest.raises(PartitionError):
            ProfileTable.from_profiles([])

    def test_from_profiles_names_mixed_tile(self):
        eights = profile_partitions(random_matrix(32, 0.2, seed=1), 8)
        sixteens = profile_partitions(random_matrix(32, 0.2, seed=1), 16)
        mixed = [eights[0], eights[1], sixteens[0]]
        with pytest.raises(PartitionError, match="profile 2"):
            ProfileTable.from_profiles(mixed)

    def test_ell_overflow_matches_scalar(self):
        matrix = random_matrix(64, 0.15, seed=4)
        table = profile_table(matrix, 16)
        overflow = table.ell_overflow(6)
        for index, profile in enumerate(table.profiles()):
            assert int(overflow[index]) == profile.ell_overflow(6)

    def test_ell_overflow_requires_histogram(self):
        profile = PartitionProfile(
            p=8, nnz=2, nnz_rows=1, nnz_cols=2, max_row_nnz=2,
            max_col_nnz=1, n_blocks=1, nnz_block_rows=1, block_size=4,
            n_diagonals=2, dia_stored_len=4, dia_max_len=2,
        )
        table = ProfileTable.from_profiles([profile])
        with pytest.raises(PartitionError):
            table.ell_overflow(6)

    def test_empty_matrix_gives_empty_table(self):
        table = profile_table(SparseMatrix.empty((32, 32)), 16)
        assert table.n_tiles == 0
        assert table.profiles() == []

    def test_density_columns(self):
        matrix = random_matrix(64, 0.1, seed=2)
        table = profile_table(matrix, 16)
        for index, profile in enumerate(table.profiles()):
            assert table.density[index] == pytest.approx(profile.density)
            assert table.row_density[index] == pytest.approx(
                profile.row_density
            )


class TestStatistics:
    def test_dense_matrix_statistics(self):
        matrix = SparseMatrix.from_dense(np.ones((16, 16)))
        stats = partition_statistics(matrix, 8)
        assert stats.n_partitions == 4
        assert stats.n_nonzero_partitions == 4
        assert stats.avg_partition_density == 1.0
        assert stats.avg_row_density == 1.0
        assert stats.avg_nnz_row_fraction == 1.0
        assert stats.nonzero_partition_fraction == 1.0

    def test_empty_matrix_statistics(self):
        stats = partition_statistics(SparseMatrix.empty((16, 16)), 8)
        assert stats.n_nonzero_partitions == 0
        assert stats.nonzero_partition_fraction == 0.0

    def test_identity_statistics(self):
        stats = partition_statistics(SparseMatrix.identity(32), 8)
        # only the 4 diagonal tiles are non-zero
        assert stats.n_partitions == 16
        assert stats.n_nonzero_partitions == 4
        assert stats.avg_partition_density == pytest.approx(8 / 64)
        assert stats.avg_row_density == pytest.approx(1 / 8)
        assert stats.avg_nnz_row_fraction == 1.0

    def test_row_density_at_least_partition_density(self, corpus_matrix):
        stats = partition_statistics(corpus_matrix, 8)
        if stats.n_nonzero_partitions:
            assert (
                stats.avg_row_density
                >= stats.avg_partition_density - 1e-12
            )
