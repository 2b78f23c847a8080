"""Streaming pipeline model tests."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.formats.base import SizeBreakdown
from repro.hardware import HardwareConfig, StreamingPipeline
from repro.hardware.pipeline import PartitionTiming
from repro.partition import profile_table
from repro.workloads import random_matrix

CONFIG = HardwareConfig(partition_size=16)


def timing(mem: int, decomp: int, dot: int) -> PartitionTiming:
    return PartitionTiming(
        memory_cycles=mem,
        decompress_cycles=decomp,
        dot_cycles=dot,
        size=SizeBreakdown(4, 4, 8),
    )


class TestPartitionTiming:
    def test_compute_is_decomp_plus_dot(self):
        t = timing(10, 3, 7)
        assert t.compute_cycles == 10

    def test_balance_ratio(self):
        assert timing(20, 5, 5).balance_ratio == 2.0
        assert timing(5, 5, 5).balance_ratio == 0.5

    def test_balance_ratio_zero_compute(self):
        assert timing(5, 0, 0).balance_ratio == float("inf")

    def test_steady_state_is_max(self):
        assert timing(20, 3, 7).steady_state_cycles == 20
        assert timing(5, 3, 7).steady_state_cycles == 10


class TestPipelineRun:
    def run(self, format_name: str, density: float = 0.1):
        matrix = random_matrix(64, density, seed=2)
        profiles = profile_table(matrix, 16)
        return StreamingPipeline(CONFIG, format_name).run(profiles)

    def test_total_is_steady_plus_fill_drain(self):
        result = self.run("csr")
        steady = sum(t.steady_state_cycles for t in result.timings)
        assert result.total_cycles == (
            steady + result.fill_cycles + result.drain_cycles
        )

    def test_fill_is_first_memory_latency(self):
        result = self.run("coo")
        assert result.fill_cycles == result.timings[0].memory_cycles

    def test_drain_is_write_back(self):
        result = self.run("coo")
        axi_cycles = CONFIG.axi_setup_cycles + (
            16 * CONFIG.value_bytes
        ) // CONFIG.axi_bytes_per_cycle
        assert result.drain_cycles == axi_cycles

    def test_write_back_can_be_disabled(self):
        matrix = random_matrix(64, 0.1, seed=2)
        profiles = profile_table(matrix, 16)
        config = HardwareConfig(partition_size=16, write_back=False)
        result = StreamingPipeline(config, "coo").run(profiles)
        assert result.drain_cycles == 0

    def test_aggregates_sum_partitions(self):
        result = self.run("csr")
        assert result.memory_cycles == sum(
            t.memory_cycles for t in result.timings
        )
        assert result.compute_cycles == sum(
            t.compute_cycles for t in result.timings
        )
        assert result.decompress_cycles + result.dot_cycles == (
            result.compute_cycles
        )

    def test_transferred_totals(self):
        result = self.run("coo")
        total = result.transferred
        assert total.total_bytes == sum(
            t.size.total_bytes for t in result.timings
        )
        assert total.bandwidth_utilization == pytest.approx(1 / 3)

    def test_mean_balance_ratio(self):
        result = self.run("dense")
        ratios = [t.balance_ratio for t in result.timings]
        assert result.mean_balance_ratio == pytest.approx(
            sum(ratios) / len(ratios)
        )

    def test_empty_profiles(self):
        result = StreamingPipeline(CONFIG, "csr").run([])
        assert result.total_cycles == 0
        assert result.mean_balance_ratio == 1.0

    def test_decompressor_by_name_or_instance(self):
        from repro.hardware import get_decompressor

        by_name = StreamingPipeline(CONFIG, "ell")
        by_instance = StreamingPipeline(CONFIG, get_decompressor("ell"))
        assert by_name.decompressor.name == by_instance.decompressor.name

    def test_mismatched_profile_size_rejected(self):
        matrix = random_matrix(64, 0.1, seed=2)
        profiles = profile_table(matrix, 8)
        with pytest.raises(SimulationError):
            StreamingPipeline(CONFIG, "csr").run(profiles)

    def test_dense_memory_dominates_sparse_formats(self):
        """Sparse formats always move fewer bytes than dense."""
        dense = self.run("dense")
        for name in ("csr", "coo", "lil"):
            sparse = self.run(name)
            assert sparse.memory_cycles < dense.memory_cycles


class TestObservabilityHooks:
    def result(self):
        matrix = random_matrix(64, 0.1, seed=2)
        profiles = profile_table(matrix, 16)
        return StreamingPipeline(CONFIG, "csr").run(profiles)

    def test_stage_cycles_match_timings(self):
        result = self.result()
        cycles = result.stage_cycles()
        assert set(cycles) == {"memory", "decompress", "dot"}
        assert cycles["memory"].sum() == result.memory_cycles
        assert cycles["dot"].sum() == sum(
            t.dot_cycles for t in result.timings
        )

    def test_stage_histograms_cover_all_partitions(self):
        result = self.result()
        histograms = result.stage_histograms()
        assert set(histograms) == {"memory", "decompress", "dot"}
        for histogram in histograms.values():
            assert histogram.total_count == len(result.timings)
        # shared edges so stage histograms are comparable / mergeable.
        edges = {h.edges for h in histograms.values()}
        assert len(edges) == 1

    def test_stage_histograms_custom_edges(self):
        result = self.result()
        edges = (0.0, 1e6)
        histogram = result.stage_histograms(edges)["memory"]
        assert histogram.edges == edges
        assert histogram.counts[0] == len(result.timings)

    def test_record_metrics_is_additive(self):
        from repro.observability import MetricsRegistry

        result = self.result()
        metrics = MetricsRegistry()
        result.record_metrics(metrics)
        result.record_metrics(metrics)
        assert metrics.counter("pipeline.partitions") == 2 * len(
            result.timings
        )
        assert (
            metrics.counter("pipeline.total_cycles")
            == 2 * result.total_cycles
        )
