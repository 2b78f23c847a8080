"""Contract tests for the distributed suite (``repro bench distributed``).

The expensive paths (queue sweeps, RSS probe subprocesses) are
exercised by the ``distributed-smoke`` CI job; here we pin the cheap
invariants — spec grid determinism, the gates, the CPU cap, and the
report writer — so a refactor cannot silently change what the
committed ``BENCH_distributed.json`` means.
"""

from __future__ import annotations

import json

import pytest

from repro.bench_distributed import (
    SCALING_GATE_2_WORKERS,
    SUITE,
    bench_queue_scaling,
    scaling_specs,
    usable_worker_counts,
)
from repro.envelope import BENCH_SCHEMA, check_gates, evaluate, write_bench
from repro.errors import BenchGateError, SimulationError

#: bench/v2 golden field sets of the distributed suite.
REPORT_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "scaling", "streaming", "summary",
}
GATES = {
    "digests_identical", "rss_reduced", "speedup_2_workers",
    "out_of_core",
}
SCALING_ROW_FIELDS = {
    "workers", "wall_s", "cells_per_s", "speedup_vs_1",
    "checkpoint_digest",
}
SUMMARY_FIELDS = {
    "speedup_2_workers", "speedup_max_workers", "digests_identical",
    "rss_reduction",
}


def make_report(**overrides) -> dict:
    """A minimal passing report; overrides poke individual gates."""
    report = {
        "schema": BENCH_SCHEMA,
        "suite": "distributed",
        "streaming": {"triplet_mb": 46.0, "memory_budget_mb": 8.0},
        "summary": {
            "speedup_2_workers": 1.9,
            "speedup_max_workers": 2.9,
            "digests_identical": True,
            "rss_reduction": 5.0,
        },
    }
    for key, value in overrides.items():
        section, _, field = key.partition("__")
        report[section][field] = value
    return evaluate(report, SUITE.gates)


def failed(report: dict) -> set[str]:
    return {g["name"] for g in report["gates"] if g["passed"] is False}


def test_schema_version_string() -> None:
    assert BENCH_SCHEMA == "bench/v2"
    assert SCALING_GATE_2_WORKERS == 1.7
    assert {g.name for g in SUITE.gates} == GATES
    # quick runs are too short to scale and fit the budget by design
    assert [g.name for g in SUITE.quick_gates] == ["digests_identical"]


class TestScalingSpecs:
    def test_default_grid_shape(self) -> None:
        specs = scaling_specs()
        assert len(specs) == 8
        kinds = [spec.kind for spec in specs]
        assert kinds == ["random", "band"] * 4

    def test_specs_are_distinct_and_deterministic(self) -> None:
        first = scaling_specs()
        again = scaling_specs()
        digests = [spec.recipe_digest for spec in first]
        assert len(set(digests)) == len(digests)
        assert digests == [spec.recipe_digest for spec in again]


class TestGates:
    def test_passing_report_has_no_problems(self) -> None:
        report = make_report()
        assert report["n_gates_failed"] == 0
        check_gates(report)  # must not raise

    def test_digest_mismatch_is_flagged(self) -> None:
        report = make_report(summary__digests_identical=False)
        assert failed(report) == {"digests_identical"}
        with pytest.raises(BenchGateError, match="digests_identical"):
            check_gates(report)

    def test_slow_scaling_is_flagged(self) -> None:
        report = make_report(summary__speedup_2_workers=1.2)
        assert failed(report) == {"speedup_2_workers"}
        with pytest.raises(BenchGateError, match=r"1\.2 \(need >= 1\.7\)"):
            check_gates(report)

    def test_small_matrix_is_flagged(self) -> None:
        report = make_report(streaming__triplet_mb=1.0)
        assert failed(report) == {"out_of_core"}

    def test_rss_regression_is_flagged(self) -> None:
        report = make_report(summary__rss_reduction=0.9)
        assert failed(report) == {"rss_reduced"}

    def test_missing_two_worker_row_is_tolerated(self) -> None:
        report = make_report(summary__speedup_2_workers=None)
        verdict = {g["name"]: g for g in report["gates"]}
        assert verdict["speedup_2_workers"]["passed"] is None
        assert report["n_gates_failed"] == 0
        check_gates(report)


class TestCpuCap:
    @pytest.mark.parametrize(
        "cpus, kept, dropped",
        [
            (1, (1,), (2, 4)),
            (2, (1, 2), (4,)),
            (4, (1, 2, 4), ()),
            (64, (1, 2, 4), ()),
        ],
    )
    def test_counts_above_cpu_count_are_dropped(
        self, monkeypatch, cpus, kept, dropped
    ) -> None:
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert usable_worker_counts((1, 2, 4)) == (kept, dropped)

    def test_unknown_cpu_count_means_one(self, monkeypatch) -> None:
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert usable_worker_counts((1, 2)) == ((1,), (2,))


class TestHarnessValidation:
    def test_non_positive_cell_cost_rejected(self) -> None:
        with pytest.raises(SimulationError, match="cell_cost_s"):
            bench_queue_scaling(cell_cost_s=0.0)


class TestReportWriter:
    def test_round_trip_and_trailing_newline(self, tmp_path) -> None:
        report = make_report()
        path = write_bench(report, tmp_path / "report.json")
        text = path.read_text(encoding="ascii")
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_keys_are_sorted(self, tmp_path) -> None:
        path = write_bench({"b": 1, "a": 2}, tmp_path / "r.json")
        assert path.read_text().index('"a"') < path.read_text().index(
            '"b"'
        )


def test_committed_report_passes_the_gates() -> None:
    """The checked-in BENCH_distributed.json must clear its own gates."""
    from pathlib import Path

    committed = (
        Path(__file__).resolve().parent.parent
        / "BENCH_distributed.json"
    )
    report = json.loads(committed.read_text())
    assert set(report) == REPORT_FIELDS
    assert report["schema"] == BENCH_SCHEMA
    assert report["suite"] == "distributed"
    assert report["config"]["quick"] is False
    assert set(report["summary"]) == SUMMARY_FIELDS
    assert {g["name"] for g in report["gates"]} == GATES
    for row in report["scaling"]["rows"]:
        assert set(row) == SCALING_ROW_FIELDS
        # never a worker count the recording machine could not run
        assert row["workers"] <= report["machine"]["cpu_count"]
    assert report["n_gates_failed"] == 0
    # the recorded verdicts are what the gates say today
    assert evaluate(json.loads(committed.read_text()), SUITE.gates) == report
