"""Unit tests for sampled advise: ``recommend(..., fast=True)``.

The sampled path keeps every 8th band of 32 rows and runs the exact
model on them.  Its contract: each kept tile is profiled exactly as in
the whole matrix, a matrix below the floor runs exact (and says so),
and the constraint filter rejects the same design points as exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.recommend import (
    OBJECTIVES,
    SAMPLE_BAND_ROWS,
    SAMPLE_EVERY,
    SAMPLE_FLOOR_BANDS,
    SAMPLE_OFFSET,
    Constraints,
    band_sample,
    recommend,
)
from repro.bench_advisor import SUITE, _suite_specs
from repro.engine.specs import WorkloadSpec
from repro.errors import ShapeError, SimulationError
from repro.formats.registry import PAPER_FORMATS
from repro.matrix import SparseMatrix
from repro.partition import PROFILE_COLUMNS, profile_table

#: The smallest matrix the sampled path samples.
FLOOR_ROWS = SAMPLE_FLOOR_BANDS * SAMPLE_BAND_ROWS
FORMATS = ("coo", "csr", "ell")
PARTITIONS = (8, 16)


def _probe_matrix(n: int = FLOOR_ROWS) -> SparseMatrix:
    return WorkloadSpec.random(n, 0.004, seed=21, name="probe").build().matrix


def _keys(results) -> set[tuple[str, int]]:
    return {(r.format_name, r.partition_size) for r in results}


class TestBandSample:
    def test_constants(self) -> None:
        assert (SAMPLE_BAND_ROWS, SAMPLE_EVERY, SAMPLE_OFFSET) == (32, 8, 4)
        assert FLOOR_ROWS == 2048

    def test_keeps_every_eighth_band_from_the_offset(self) -> None:
        matrix = _probe_matrix(FLOOR_ROWS + 40)  # a partial last band
        sample = band_sample(matrix)
        kept = range(SAMPLE_OFFSET, 65, SAMPLE_EVERY)  # 65 bands
        assert sample.shape == (len(kept) * SAMPLE_BAND_ROWS, matrix.n_cols)
        dense, sampled = matrix.to_dense(), sample.to_dense()
        for index, band in enumerate(kept):
            start = band * SAMPLE_BAND_ROWS
            got = sampled[index * SAMPLE_BAND_ROWS:][:SAMPLE_BAND_ROWS]
            want = dense[start:start + SAMPLE_BAND_ROWS]
            assert np.array_equal(got[:len(want)], want)
            assert not got[len(want):].any()

    def test_a_matrix_without_the_offset_band_is_refused(self) -> None:
        matrix = _probe_matrix(SAMPLE_OFFSET * SAMPLE_BAND_ROWS)
        with pytest.raises(ShapeError, match="no band 4"):
            band_sample(matrix)

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_profile_equals_the_kept_bands_profiled_one_by_one(
        self, p
    ) -> None:
        matrix = WorkloadSpec.band(
            FLOOR_ROWS, 40, seed=3, name="b"
        ).build().matrix
        sampled = profile_table(band_sample(matrix), p)
        n_bands = matrix.n_rows // SAMPLE_BAND_ROWS
        tables = [
            profile_table(
                matrix.submatrix(
                    band * SAMPLE_BAND_ROWS,
                    (band + 1) * SAMPLE_BAND_ROWS,
                    0,
                    matrix.n_cols,
                ),
                p,
            )
            for band in range(SAMPLE_OFFSET, n_bands, SAMPLE_EVERY)
        ]
        assert sampled.n_tiles == sum(t.n_tiles for t in tables) > 0
        for name in PROFILE_COLUMNS:
            assert np.array_equal(
                getattr(sampled, name),
                np.concatenate([getattr(t, name) for t in tables]),
            ), name
        assert np.array_equal(
            sampled.row_nnz_hist,
            np.concatenate([t.row_nnz_hist for t in tables]),
        )


class TestFastRecommend:
    def test_below_the_floor_runs_exact(self) -> None:
        matrix = _probe_matrix(FLOOR_ROWS - 1)
        fast = recommend(
            matrix, formats=FORMATS, partition_sizes=PARTITIONS, fast=True
        )
        exact = recommend(
            matrix, formats=FORMATS, partition_sizes=PARTITIONS
        )
        assert fast.sample_every == exact.sample_every == 1
        assert fast.candidates == exact.candidates
        assert fast.best == exact.best

    def test_at_the_floor_samples(self) -> None:
        matrix = _probe_matrix()
        fast = recommend(
            matrix, formats=FORMATS, partition_sizes=PARTITIONS, fast=True
        )
        assert fast.sample_every == SAMPLE_EVERY
        sampled = recommend(
            band_sample(matrix), formats=FORMATS,
            partition_sizes=PARTITIONS,
        )
        assert fast.candidates == sampled.candidates

    def test_a_partition_size_that_cuts_the_band_runs_exact(self) -> None:
        fast = recommend(
            _probe_matrix(), formats=("csr",), partition_sizes=(8, 64),
            fast=True,
        )
        assert fast.sample_every == 1

    def test_an_empty_sample_runs_exact(self) -> None:
        # every entry sits in band 0, which the sample skips
        matrix = SparseMatrix((FLOOR_ROWS, 64), [0, 5], [1, 2], [1.0, 2.0])
        assert band_sample(matrix).nnz == 0
        fast = recommend(
            matrix, formats=FORMATS, partition_sizes=PARTITIONS, fast=True
        )
        assert fast.sample_every == 1

    def test_cycles_scale_steady_state_only(self) -> None:
        fast = recommend(
            _probe_matrix(), formats=FORMATS, partition_sizes=PARTITIONS,
            fast=True,
        )
        for result in fast.candidates:
            pipeline = result.pipeline
            edges = pipeline.fill_cycles + pipeline.drain_cycles
            assert fast.cycles(result) == (
                SAMPLE_EVERY * (result.total_cycles - edges) + edges
            )
        exact = recommend(
            _probe_matrix(), formats=FORMATS, partition_sizes=PARTITIONS
        )
        assert exact.cycles(exact.best) == exact.best.total_cycles

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_every_objective_ranks(self, objective) -> None:
        fast = recommend(
            _probe_matrix(), objective, formats=FORMATS,
            partition_sizes=PARTITIONS, fast=True,
        )
        assert fast.sample_every == SAMPLE_EVERY
        assert fast.ranking()[0] == fast.best

    def test_latency_ranks_by_the_printed_cycles(self) -> None:
        # the 18 matrices of `repro bench advisor`
        unsorted = []
        for spec in _suite_specs(SUITE.seed):
            fast = recommend(
                spec.build().matrix, formats=PAPER_FORMATS, fast=True
            )
            assert fast.sample_every == SAMPLE_EVERY
            assert fast.ranking()[0] == fast.best
            cycles = [fast.cycles(result) for result in fast.ranking()]
            if cycles != sorted(cycles):
                unsorted.append(spec.name)
        assert unsorted == []


class TestCoverage:
    def test_defaults_to_full_model_coverage(self) -> None:
        matrix = _probe_matrix()
        fast = recommend(matrix, fast=True)
        exact = recommend(matrix)
        assert fast.sample_every == SAMPLE_EVERY
        assert _keys(fast.candidates + fast.rejected) == _keys(
            exact.candidates + exact.rejected
        )


class TestConstraints:
    def test_impossible_budget_rejects_everything(self) -> None:
        tight = Constraints(max_bram_18k=0, max_ff=0, max_lut=0)
        with pytest.raises(SimulationError):
            recommend(
                _probe_matrix(),
                formats=FORMATS,
                partition_sizes=PARTITIONS,
                constraints=tight,
                fast=True,
            )

    def test_rejections_match_the_exact_model(self) -> None:
        matrix = _probe_matrix()
        budget = Constraints(max_lut=1_200)
        fast = recommend(
            matrix,
            formats=FORMATS,
            partition_sizes=PARTITIONS,
            constraints=budget,
            fast=True,
        )
        exact = recommend(
            matrix,
            formats=FORMATS,
            partition_sizes=PARTITIONS,
            constraints=budget,
        )
        assert fast.sample_every == SAMPLE_EVERY
        assert fast.rejected
        assert _keys(fast.rejected) == _keys(exact.rejected)
        assert _keys(fast.candidates) == _keys(exact.candidates)
