"""Timeline rendering tests."""

from __future__ import annotations

import pytest

from repro.analysis import render_timeline
from repro.hardware import HardwareConfig, trace_pipeline
from repro.partition import profile_table
from repro.workloads import random_matrix

CONFIG = HardwareConfig(partition_size=16)


def trace_for(name: str):
    matrix = random_matrix(96, 0.1, seed=0)
    return trace_pipeline(CONFIG, name, profile_table(matrix, 16))


class TestRenderTimeline:
    def test_has_three_lanes(self):
        text = render_timeline(trace_for("csr"))
        assert "memory " in text
        assert "compute" in text
        assert "write  " in text

    def test_header_mentions_format_and_bound(self):
        text = render_timeline(trace_for("csc"))
        assert "csc" in text
        assert "compute-bound" in text

    def test_occupancies_printed(self):
        text = render_timeline(trace_for("coo"))
        assert "%" in text

    def test_lane_width_respected(self):
        text = render_timeline(trace_for("coo"), width=40)
        for line in text.splitlines():
            if line.startswith(("memory", "compute", "write")):
                lane = line.split("|")[1]
                assert len(lane) == 40

    def test_saturated_stage_renders_solid(self):
        trace = trace_for("csc")  # compute occupancy ~1
        text = render_timeline(trace)
        compute_lane = [
            line for line in text.splitlines()
            if line.startswith("compute")
        ][0]
        lane = compute_lane.split("|")[1]
        assert lane.count("#") > 0.9 * len(lane)

    def test_bubble_summary_line(self):
        text = render_timeline(trace_for("dense"))
        assert "bubbles:" in text

    def test_width_validated(self):
        with pytest.raises(ValueError):
            render_timeline(trace_for("csr"), width=5)

    def test_empty_trace(self):
        trace = trace_pipeline(CONFIG, "csr", [])
        text = render_timeline(trace)
        assert "0 partitions" in text
