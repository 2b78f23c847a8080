"""The guard campaign suite: schema, gates, and the gate checker."""

from __future__ import annotations

import copy

import pytest

from repro.envelope import BENCH_SCHEMA, check_gates, evaluate, write_bench
from repro.errors import BenchGateError, GuardError
from repro.guard import run_guard_campaign
from repro.guard.campaign import SUITE

REPORT_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "corpus", "fuzz", "breaker", "shedding", "hostile", "summary",
}
GATES = {
    "corpus_zero_crashes", "corpus_zero_unhandled",
    "fuzz_zero_new_crashes", "breaker_opened", "breaker_recovered",
    "high_priority_served", "low_priority_shed",
    "hostile_zero_worker_harm",
}


@pytest.fixture(scope="module")
def report() -> dict:
    # one small full campaign shared by every assertion below: the
    # phases are end-to-end (real sandbox child, real sockets), so
    # rerunning per test would dominate the suite
    return SUITE.run(
        seed=3, fuzz_cases=26, hostile_requests=8, concurrency=2
    )


class TestCampaignReport:
    def test_schema_and_fields(self, report) -> None:
        assert report["schema"] == BENCH_SCHEMA == "bench/v2"
        assert report["suite"] == "guard"
        assert set(report) == REPORT_FIELDS
        assert {g["name"] for g in report["gates"]} == GATES
        assert SUITE.quick_gates is None  # all eight gate quick runs too

    def test_all_gates_pass_on_a_healthy_tree(self, report) -> None:
        assert report["n_gates_failed"] == 0
        check_gates(report)  # must not raise

    def test_corpus_phase_replays_the_committed_corpus(
        self, report
    ) -> None:
        # repo-relative, so the report does not depend on the checkout
        assert report["config"]["corpus_dir"] == "tests/corpus"
        assert report["corpus"]["corpus_dir"] == "tests/corpus"
        assert report["corpus"]["n_cases"] >= 20
        assert report["corpus"]["crash_signatures"] == []
        assert report["corpus"]["unhandled_exceptions"] == []

    def test_breaker_opened_and_recovered(self, report) -> None:
        breaker = report["breaker"]
        assert breaker["poison_statuses"] == [500, 500, 500]
        assert breaker["open_status"] == 503
        assert breaker["retry_after"]
        assert breaker["probe_status"] == 200
        assert breaker["transitions"]["closed-open"] == 1
        assert breaker["transitions"]["half-open-closed"] == 1

    def test_priorities_separated_under_pressure(self, report) -> None:
        shedding = report["shedding"]
        assert shedding["high_all_served"]
        assert shedding["low_all_shed"]
        assert shedding["normal_all_shed"]
        assert shedding["high_p99_ms"] > 0
        assert shedding["by_priority"]["low"]["statuses"] == {"503": 4}

    def test_hostile_traffic_contained(self, report) -> None:
        hostile = report["hostile"]["hostile"]
        assert hostile["worker_harm"] == 0
        assert hostile["contained"] == hostile["requests"]

    def test_write_report(self, report, tmp_path) -> None:
        path = write_bench(report, tmp_path / "BENCH_guard.json")
        assert path.is_file()


class TestGateChecker:
    def test_failed_gate_raises_with_names(self, report) -> None:
        doctored = copy.deepcopy(report)
        doctored["breaker"]["opened"] = False
        doctored["hostile"]["hostile"]["worker_harm"] = 2
        evaluate(doctored, SUITE.gates)
        assert doctored["n_gates_failed"] == 2
        with pytest.raises(BenchGateError) as excinfo:
            check_gates(doctored)
        message = str(excinfo.value)
        assert "breaker_opened = False" in message
        assert "hostile_zero_worker_harm = 2 (need == 0)" in message

    def test_bad_config_rejected(self) -> None:
        with pytest.raises(GuardError, match="hostile_requests"):
            run_guard_campaign(hostile_requests=0)
