"""Contract tests for the pipeline suite (``repro bench pipeline``)."""

from __future__ import annotations

from repro.bench import SUITE, pipeline_sections
from repro.envelope import Gate, envelope


def test_batch_not_slower_gates_quick_and_full_runs():
    assert SUITE.gates == (
        Gate("batch_not_slower", "summary.min_speedup", ">=", 1.0),
    )
    assert SUITE.quick_gates is None


def test_a_tiny_run_evaluates_its_gate():
    sections = pipeline_sections(
        seed=0, n=128, partition=8, density=0.05, band_width=8,
        formats=("csr",), repeats=1,
    )
    report = envelope("pipeline", {}, sections, SUITE.gates)
    (verdict,) = report["gates"]
    assert verdict["name"] == "batch_not_slower"
    assert verdict["value"] == report["summary"]["min_speedup"] > 0
    assert verdict["passed"] is (verdict["value"] >= 1.0)
