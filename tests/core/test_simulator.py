"""Characterization simulator tests."""

from __future__ import annotations

import pytest

from repro.core import SpmvSimulator, characterize
from repro.errors import SimulationError
from repro.formats import PAPER_FORMATS
from repro.hardware import HardwareConfig
from repro.matrix import SparseMatrix
from repro.workloads import band_matrix, random_matrix

CONFIG = HardwareConfig(partition_size=16)


class TestSimulator:
    def test_dense_sigma_is_exactly_one(self, corpus_matrix):
        if corpus_matrix.nnz == 0:
            pytest.skip("empty matrix has no partitions")
        result = SpmvSimulator(CONFIG).characterize(corpus_matrix, "dense")
        assert result.sigma == pytest.approx(1.0)

    def test_all_paper_formats_run(self):
        matrix = random_matrix(64, 0.1, seed=0)
        results = SpmvSimulator(CONFIG).characterize_formats(
            matrix, PAPER_FORMATS, workload="w"
        )
        assert set(results) == set(PAPER_FORMATS)
        for result in results.values():
            assert result.workload == "w"
            assert result.total_cycles > 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(SimulationError):
            SpmvSimulator(CONFIG).characterize(
                SparseMatrix.empty((32, 32)), "csr"
            )

    def test_profiles_reusable(self):
        matrix = random_matrix(64, 0.1, seed=0)
        simulator = SpmvSimulator(CONFIG)
        profiles = simulator.profile_table(matrix)
        a = simulator.run_format("csr", profiles)
        b = simulator.characterize(matrix, "csr")
        assert a.sigma == b.sigma
        assert a.total_cycles == b.total_cycles

    def test_convenience_wrapper(self):
        matrix = random_matrix(64, 0.1, seed=0)
        result = characterize(matrix, "coo", partition_size=8, workload="x")
        assert result.partition_size == 8
        assert result.workload == "x"

    def test_dense_compute_cycles(self):
        simulator = SpmvSimulator(CONFIG)
        assert simulator.dense_compute_cycles(3) == 3 * 16 * 5


class TestResultMetrics:
    def result(self, name: str = "coo", density: float = 0.1):
        matrix = random_matrix(64, density, seed=1)
        return SpmvSimulator(CONFIG).characterize(matrix, name)

    def test_seconds_from_cycles(self):
        result = self.result()
        expected = result.total_cycles / 250e6
        assert result.total_seconds == pytest.approx(expected)

    def test_throughput_definition(self):
        result = self.result()
        assert result.throughput_bytes_per_s == pytest.approx(
            result.total_bytes / result.total_seconds
        )

    def test_coo_bandwidth_utilization(self):
        assert self.result("coo").bandwidth_utilization == pytest.approx(
            1 / 3
        )

    def test_balance_ratio_positive(self):
        for name in PAPER_FORMATS:
            assert self.result(name).balance_ratio > 0.0

    def test_energy_positive_and_static_dominated_for_long_runs(self):
        result = self.result("csc")
        assert result.energy_j > 0.0
        assert result.static_power_w in (0.121, 0.103)

    def test_compute_breakdown_consistency(self):
        result = self.result("csr")
        assert (
            result.decompress_cycles + result.pipeline.dot_cycles
            == result.compute_cycles
        )

    def test_repr_mentions_coordinates(self):
        text = repr(self.result("ell"))
        assert "ell" in text and "p=16" in text


class TestPaperTrends:
    """Section 6 claims at the whole-matrix level."""

    def test_sigma_grows_with_density_for_coo_csr_csc(self):
        simulator = SpmvSimulator(CONFIG)
        for name in ("coo", "csr", "csc"):
            sigmas = [
                simulator.characterize(
                    random_matrix(128, d, seed=2), name
                ).sigma
                for d in (0.01, 0.1, 0.5)
            ]
            assert sigmas[0] < sigmas[1] < sigmas[2], name

    def test_csc_worst_at_high_density(self):
        simulator = SpmvSimulator(CONFIG)
        matrix = random_matrix(128, 0.5, seed=2)
        results = simulator.characterize_formats(matrix, PAPER_FORMATS)
        worst = max(results.values(), key=lambda r: r.sigma)
        assert worst.format_name == "csc"
        assert results["csc"].sigma > 10.0

    def test_ell_sigma_constant_across_density(self):
        simulator = SpmvSimulator(CONFIG)
        sigmas = {
            simulator.characterize(
                random_matrix(128, d, seed=2), "ell"
            ).sigma
            for d in (0.001, 0.1, 0.5)
        }
        assert len(sigmas) == 1

    def test_sigma_grows_with_band_width(self):
        simulator = SpmvSimulator(CONFIG)
        for name in ("coo", "csr", "csc"):
            sigmas = [
                simulator.characterize(
                    band_matrix(256, w, seed=2), name
                ).sigma
                for w in (2, 16, 64)
            ]
            assert sigmas[0] < sigmas[1] < sigmas[2], name

    def test_sparse_formats_move_fewer_bytes_than_dense(self):
        simulator = SpmvSimulator(CONFIG)
        matrix = random_matrix(128, 0.05, seed=3)
        dense = simulator.characterize(matrix, "dense")
        for name in ("csr", "coo", "lil", "dia", "csc"):
            sparse = simulator.characterize(matrix, name)
            assert sparse.total_bytes < dense.total_bytes, name

    def test_dia_beats_generic_bw_on_pure_diagonal(self):
        matrix = SparseMatrix.identity(128)
        simulator = SpmvSimulator(CONFIG)
        dia = simulator.characterize(matrix, "dia")
        coo = simulator.characterize(matrix, "coo")
        assert dia.bandwidth_utilization > 0.9
        assert dia.bandwidth_utilization > coo.bandwidth_utilization

    def test_dense_balance_closer_to_one_than_most(self):
        """Section 6.2: dense is the closest to balanced streaming."""
        import math

        matrix = random_matrix(128, 0.05, seed=4)
        simulator = SpmvSimulator(CONFIG)
        dense_dist = abs(
            math.log(simulator.characterize(matrix, "dense").balance_ratio)
        )
        worse = 0
        for name in ("csr", "csc", "coo", "lil", "ell"):
            other = abs(
                math.log(simulator.characterize(matrix, name).balance_ratio)
            )
            worse += other > dense_dist
        assert worse >= 4
