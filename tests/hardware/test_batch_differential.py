"""Batch kernels vs scalar models: bit-identical, format by format.

The struct-of-arrays fast path (``compute_batch`` /
``transfer_size_batch`` / ``StreamingPipeline.run``) must reproduce
the scalar reference (``compute`` / ``transfer_size`` /
``stream_lines`` / ``run_scalar``) exactly
— same cycles, same byte breakdowns, same totals — for every
registered format, every paper partition size, and the edge shapes
that stress the profile columns (near-empty tiles, a single non-zero,
a fully dense block).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareConfigError, PartitionError, SimulationError
from repro.hardware import HardwareConfig, get_decompressor
from repro.hardware.axi import AxiStreamModel
from repro.hardware.decompressors import MODELED_FORMATS, VARIANT_FORMATS
from repro.hardware.pipeline import StreamingPipeline
from repro.matrix import SparseMatrix
from repro.partition import (
    PartitionProfile,
    ProfileTable,
    profile_table,
)
from repro.workloads import band_matrix, random_matrix

ALL_MODELS = tuple(MODELED_FORMATS) + tuple(VARIANT_FORMATS)
PARTITION_SIZES = (8, 16, 32)


def _single_nnz() -> SparseMatrix:
    return SparseMatrix.from_triplets((40, 40), [(17, 23, 3.5)])


def _full_dense() -> SparseMatrix:
    return SparseMatrix.from_dense(np.ones((48, 48)))


#: Edge shapes named in the issue: tiles with empty rows (the sparse
#: scatter), a single non-zero, and a fully dense block.
MATRICES = {
    "random": random_matrix(96, 0.08, seed=1),
    "band": band_matrix(96, 7, seed=2),
    "scatter": random_matrix(64, 0.002, seed=5),
    "single-nnz": _single_nnz(),
    "full-dense": _full_dense(),
}


@pytest.mark.parametrize("format_name", ALL_MODELS)
@pytest.mark.parametrize("p", PARTITION_SIZES)
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
class TestBatchKernelsMatchScalar:
    def test_kernels_bit_identical(self, format_name, p, matrix_name):
        matrix = MATRICES[matrix_name]
        config = HardwareConfig(partition_size=p)
        table = profile_table(matrix, p, block_size=config.block_size)
        model = get_decompressor(format_name)

        compute = model.compute_batch(table, config)
        sizes = model.transfer_size_batch(table, config)
        assert compute.decompress_cycles.dtype == np.int64
        assert sizes.total_bytes.dtype == np.int64

        for index, profile in enumerate(table.profiles()):
            scalar_compute = model.compute(profile, config)
            assert (
                int(compute.decompress_cycles[index])
                == scalar_compute.decompress_cycles
            )
            assert int(compute.dot_cycles[index]) == scalar_compute.dot_cycles
            assert sizes.breakdown(index) == model.transfer_size(
                profile, config
            )
            # the batch path streams the transfer total; the scalar
            # oracle streams the sum of its AXIS lines
            assert int(sizes.total_bytes[index]) == sum(
                model.stream_lines(profile, config)
            )

    def test_pipeline_run_matches_run_scalar(
        self, format_name, p, matrix_name
    ):
        matrix = MATRICES[matrix_name]
        config = HardwareConfig(partition_size=p)
        table = profile_table(matrix, p, block_size=config.block_size)
        pipeline = StreamingPipeline(config, format_name)

        batch = pipeline.run(table)
        scalar = pipeline.run_scalar(table.profiles())
        assert batch == scalar
        assert batch.total_cycles == scalar.total_cycles
        assert batch.transferred == scalar.transferred
        assert batch.fill_cycles == scalar.fill_cycles
        assert batch.drain_cycles == scalar.drain_cycles
        assert batch.timings == scalar.timings


class TestRunInputForms:
    def test_sequence_input_equals_table_input(self):
        matrix = MATRICES["random"]
        config = HardwareConfig(partition_size=16)
        table = profile_table(matrix, 16)
        pipeline = StreamingPipeline(config, "csr")
        assert pipeline.run(table) == pipeline.run(table.profiles())

    def test_empty_sequence(self):
        pipeline = StreamingPipeline(
            HardwareConfig(partition_size=16), "csr"
        )
        result = pipeline.run([])
        assert result.total_cycles == 0
        assert result.n_partitions == 0
        assert result.timings == ()
        assert result.mean_balance_ratio == 1.0

    def test_table_size_mismatch_names_both_sizes(self):
        table = profile_table(MATRICES["random"], 8)
        pipeline = StreamingPipeline(
            HardwareConfig(partition_size=16), "csr"
        )
        with pytest.raises(SimulationError, match=r"8.*16"):
            pipeline.run(table)

    def test_sequence_mismatch_names_offending_tile(self):
        good = profile_table(MATRICES["random"], 16).profiles()
        bad = profile_table(MATRICES["random"], 8).profiles()
        mixed = list(good)
        mixed[3] = bad[0]
        pipeline = StreamingPipeline(
            HardwareConfig(partition_size=16), "csr"
        )
        with pytest.raises(SimulationError, match=r"profile 3 "):
            pipeline.run(mixed)
        with pytest.raises(SimulationError, match=r"profile 3 "):
            pipeline.run_scalar(mixed)

    def test_histless_profiles_rejected_like_scalar(self):
        """Variant formats need the row histogram on both paths."""
        profile = PartitionProfile(
            p=8, nnz=4, nnz_rows=2, nnz_cols=3, max_row_nnz=3,
            max_col_nnz=2, n_blocks=1, nnz_block_rows=1,
            block_size=4, n_diagonals=2, dia_stored_len=4, dia_max_len=2,
        )
        config = HardwareConfig(partition_size=8)
        model = get_decompressor("ell+coo")
        with pytest.raises(PartitionError):
            model.compute(profile, config)
        table = ProfileTable.from_profiles([profile])
        with pytest.raises(PartitionError):
            model.compute_batch(table, config)


class TestAxiBatch:
    def test_matches_scalar(self):
        config = HardwareConfig(partition_size=16)
        axi = AxiStreamModel(config)
        totals = np.array([0, 1, 63, 64, 65, 4096, 123457], dtype=np.int64)
        batch = axi.transfer_cycles_batch(totals)
        for index, total in enumerate(totals):
            assert int(batch[index]) == axi.transfer_cycles([int(total)])

    def test_negative_bytes_rejected(self):
        axi = AxiStreamModel(HardwareConfig(partition_size=16))
        with pytest.raises(HardwareConfigError):
            axi.transfer_cycles_batch(np.array([16, -1], dtype=np.int64))


@st.composite
def small_matrices(draw) -> SparseMatrix:
    n_rows = draw(st.integers(1, 24))
    n_cols = draw(st.integers(1, 24))
    n_entries = draw(st.integers(0, 48))
    rows = draw(
        st.lists(
            st.integers(0, n_rows - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    cols = draw(
        st.lists(
            st.integers(0, n_cols - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    values = [1.0] * n_entries
    return SparseMatrix((n_rows, n_cols), rows, cols, values)


class TestBatchProperties:
    @given(
        small_matrices(),
        st.sampled_from(ALL_MODELS),
        st.sampled_from(PARTITION_SIZES),
    )
    @settings(max_examples=120, deadline=None)
    def test_run_always_matches_run_scalar(self, matrix, format_name, p):
        config = HardwareConfig(partition_size=p)
        table = profile_table(matrix, p, block_size=config.block_size)
        pipeline = StreamingPipeline(config, format_name)
        assert pipeline.run(table) == pipeline.run_scalar(table.profiles())
        # run streams each tile's transfer total, run_scalar its lines
        totals = pipeline.decompressor.transfer_size_batch(
            table, config
        ).total_bytes
        for index, profile in enumerate(table.profiles()):
            assert int(totals[index]) == sum(
                pipeline.decompressor.stream_lines(profile, config)
            )

    @given(small_matrices(), st.sampled_from(PARTITION_SIZES))
    @settings(max_examples=80, deadline=None)
    def test_profile_table_round_trips(self, matrix, p):
        table = profile_table(matrix, p)
        rebuilt = ProfileTable.from_profiles(
            table.profiles()
        ) if table.n_tiles else None
        if rebuilt is not None:
            for name in (
                "nnz", "nnz_rows", "max_row_nnz", "n_diagonals"
            ):
                assert np.array_equal(
                    getattr(table, name), getattr(rebuilt, name)
                )
            assert np.array_equal(
                table.row_nnz_hist, rebuilt.row_nnz_hist
            )
