"""Pipeline trace tests."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.hardware import HardwareConfig, StreamingPipeline
from repro.hardware.trace import StageInterval, trace_pipeline
from repro.partition import profile_table
from repro.workloads import band_matrix, random_matrix

CONFIG = HardwareConfig(partition_size=16)


def trace_for(format_name: str, density: float = 0.1, seed: int = 0):
    matrix = random_matrix(96, density, seed=seed)
    profiles = profile_table(matrix, 16)
    return trace_pipeline(CONFIG, format_name, profiles), profiles


class TestStageInterval:
    def test_duration(self):
        assert StageInterval(0, 3, 8).duration == 5

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            StageInterval(0, 5, 3)
        with pytest.raises(SimulationError):
            StageInterval(0, -1, 3)


class TestSchedule:
    def test_stage_order_per_partition(self):
        trace, _ = trace_for("csr")
        for mem, comp, wr in zip(trace.memory, trace.compute, trace.write):
            assert mem.stop <= comp.start
            assert comp.stop <= wr.start

    def test_stages_never_overlap_themselves(self):
        trace, _ = trace_for("coo")
        for stage in (trace.memory, trace.compute, trace.write):
            for a, b in zip(stage, stage[1:]):
                assert a.stop <= b.start

    def test_memory_prefetches_ahead_of_compute(self):
        """While compute works on partition i, memory fetches i+1."""
        trace, _ = trace_for("csc", density=0.3)  # compute-bound
        overlaps = sum(
            1
            for mem, comp in zip(trace.memory[1:], trace.compute)
            if mem.start < comp.stop
        )
        assert overlaps > 0

    def test_total_at_least_closed_form_steady_state(self):
        for name in ("dense", "csr", "coo", "ell", "dia"):
            trace, profiles = trace_for(name)
            pipeline = StreamingPipeline(CONFIG, name).run(profiles)
            steady = sum(
                t.steady_state_cycles for t in pipeline.timings
            )
            assert trace.total_cycles >= steady, name
            # and the closed form is a tight approximation.
            assert trace.total_cycles <= steady * 1.25 + 200, name

    def test_empty_profiles(self):
        trace = trace_pipeline(CONFIG, "csr", [])
        assert trace.total_cycles == 0
        assert trace.compute_occupancy == 0.0

    def test_partition_size_mismatch_rejected(self):
        matrix = random_matrix(64, 0.1, seed=1)
        profiles = profile_table(matrix, 8)
        with pytest.raises(SimulationError):
            trace_pipeline(CONFIG, "csr", profiles)


class TestImbalanceAnalysis:
    def test_compute_bound_format_has_memory_stalls(self):
        """CSC computes far slower than it streams: memory pauses."""
        matrix = band_matrix(256, 32, seed=0)
        profiles = profile_table(matrix, 16)
        trace = trace_pipeline(CONFIG, "csc", profiles)
        assert trace.bound() == "compute"
        assert trace.memory_stall_cycles > 0
        assert trace.compute_occupancy > 0.9

    def test_memory_bound_format_has_compute_bubbles(self):
        """Dense at a large partition streams slower than it computes."""
        config = HardwareConfig(partition_size=32)
        matrix = random_matrix(256, 0.05, seed=2)
        profiles = profile_table(matrix, 32)
        trace = trace_pipeline(config, "dense", profiles)
        assert trace.bound() == "memory"
        assert trace.compute_idle_cycles > 0
        assert trace.memory_occupancy > 0.9

    def test_occupancies_in_unit_interval(self):
        for name in ("dense", "csr", "lil", "bcsr"):
            trace, _ = trace_for(name)
            assert 0.0 < trace.compute_occupancy <= 1.0
            assert 0.0 < trace.memory_occupancy <= 1.0

    def test_balanced_format_minimizes_both(self):
        """The better-balanced format wastes fewer cycles overall."""
        matrix = band_matrix(256, 8, seed=1)
        profiles = profile_table(matrix, 16)
        waste = {}
        for name in ("dense", "csc"):
            trace = trace_pipeline(CONFIG, name, profiles)
            waste[name] = (
                trace.compute_idle_cycles + trace.memory_stall_cycles
            ) / trace.total_cycles
        assert waste["dense"] < waste["csc"]


class TestObservabilityHooks:
    def trace(self, format_name: str = "csr"):
        matrix = random_matrix(96, 0.08, seed=5)
        profiles = profile_table(matrix, 16)
        return trace_pipeline(CONFIG, format_name, profiles), profiles

    def test_bubble_accounting_balances(self):
        trace, _ = self.trace()
        accounting = trace.bubble_accounting()
        total = accounting["total_cycles"]
        assert total == trace.total_cycles
        # busy + idle partitions each stage's own active window
        # (first start to last stop).
        idle_names = {
            "memory": "memory_stall_cycles",
            "compute": "compute_idle_cycles",
            "write": "write_idle_cycles",
        }
        for stage, intervals in trace.stage_intervals().items():
            window = intervals[-1].stop - intervals[0].start
            assert (
                accounting[f"{stage}_busy_cycles"]
                + accounting[idle_names[stage]]
                == window
            )
            assert 0 <= accounting[f"{stage}_busy_cycles"] <= total

    def test_stage_histograms_count_intervals(self):
        trace, profiles = self.trace()
        histograms = trace.stage_histograms()
        assert set(histograms) == {"memory", "compute", "write"}
        for histogram in histograms.values():
            assert histogram.total_count == len(profiles)

    def test_record_metrics_emits_accounting(self):
        from repro.observability import MetricsRegistry

        trace, _ = self.trace()
        metrics = MetricsRegistry()
        trace.record_metrics(metrics)
        assert (
            metrics.counter("trace.total_cycles") == trace.total_cycles
        )
        assert metrics.counter("trace.compute_idle_cycles") >= 0
