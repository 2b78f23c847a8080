"""Crash recovery under injected faults: retry, bisect, fence, degrade.

Every test drives the real recovery machinery — real process pools,
real ``os._exit`` worker deaths — through the deterministic fault
harness, and asserts the acceptance property of the issue: healthy
cells are identical to a fault-free run, failures are structured and
attributable, and the sweep never takes the parent process down.
"""

from __future__ import annotations

import pytest

from repro.engine import SweepRunner, WorkloadSpec, load_checkpoint
from repro.errors import SweepCellError

SPECS = (
    WorkloadSpec.random(96, 0.05, seed=1),
    WorkloadSpec.band(96, 4, seed=1),
)
FORMATS = ("csr", "coo")
PARTITIONS = (16,)
TARGET = ("band-4", "csr", 16)  # the cell the faults aim at


@pytest.fixture(scope="module")
def baseline():
    """The fault-free run every faulted run is compared against."""
    outcome = SweepRunner(error_policy="fail_fast").run_grid(
        SPECS, FORMATS, partition_sizes=PARTITIONS
    )
    assert outcome.ok
    return outcome


def healthy_map(outcome):
    return outcome.by_coords()


# ----------------------------------------------------------------------
# Error policies
# ----------------------------------------------------------------------
class TestErrorPolicies:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_keeps_healthy_cells_identical(
        self, workers, baseline, tmp_path
    ):
        checkpoint = tmp_path / "ck.jsonl"
        outcome = SweepRunner(
            max_workers=workers,
            faults="raise@band-4:csr:16",
            checkpoint=checkpoint,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.n_failed == 1
        assert outcome.failure(*TARGET).error_type == "InjectedFault"
        # the checkpoint records the failure, as the queue backend's does
        recorded = list(load_checkpoint(checkpoint).failures.values())
        assert recorded == outcome.failures
        expected = {
            coords: result
            for coords, result in healthy_map(baseline).items()
            if coords != TARGET
        }
        assert healthy_map(outcome) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fail_fast_carries_traceback_and_digest(
        self, workers
    ):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                max_workers=workers,
                error_policy="fail_fast",
                faults="raise@band-4:csr:16",
            ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        error = excinfo.value
        assert error.coords == TARGET
        # the traceback is formatted worker-side, so it survives the
        # pickle across the process boundary
        assert "InjectedFault" in error.traceback_text
        assert error.recipe_digest == SPECS[1].recipe_digest
        assert error.recipe_digest[:12] in str(error)


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_transient_crash_recovers_completely(self, baseline):
        # the worker dies once (times=1); the retry succeeds and the
        # outcome is indistinguishable from a fault-free run
        outcome = SweepRunner(
            max_workers=2,
            telemetry=True,
            faults="crash@band-4:csr:16",
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.ok
        assert healthy_map(outcome) == healthy_map(baseline)
        counters = outcome.telemetry.metrics.counters
        assert counters["sweep.pool_restarts"] >= 1
        assert counters["sweep.chunk_retries"] >= 1

    def test_persistent_crash_is_fenced_to_one_cell(
        self, baseline, tmp_path
    ):
        # the poison cell kills its worker on every attempt; bisection
        # must fence it off without losing any innocent cell
        checkpoint = tmp_path / "ck.jsonl"
        outcome = SweepRunner(
            max_workers=2,
            telemetry=True,
            max_retries=1,
            faults="crash@band-4:csr:16#times=none",
            checkpoint=checkpoint,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.n_failed == 1
        failed = outcome.failure(*TARGET)
        assert failed.error_type == "WorkerCrashError"
        assert failed.attempts == 2  # max_retries + 1
        recorded = list(load_checkpoint(checkpoint).failures.values())
        assert recorded == [failed]
        expected = {
            coords: result
            for coords, result in healthy_map(baseline).items()
            if coords != TARGET
        }
        assert healthy_map(outcome) == expected
        counters = outcome.telemetry.metrics.counters
        assert counters["sweep.chunk_bisections"] >= 1
        assert counters["sweep.cells.failed"] == 1

    def test_fail_fast_persistent_crash_raises(self):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                max_workers=2,
                error_policy="fail_fast",
                max_retries=0,
                faults="crash@band-4:csr:16#times=none",
            ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert excinfo.value.coords == TARGET
        assert "WorkerCrashError" in str(excinfo.value)

    def test_exhausted_restart_budget_degrades_in_process(
        self, baseline
    ):
        # max_pool_restarts=0: the first pool loss exhausts the budget
        # and the remaining work finishes on the in-process path, where
        # the crash fault surfaces as a catchable WorkerCrashError
        outcome = SweepRunner(
            max_workers=2,
            telemetry=True,
            max_pool_restarts=0,
            faults="crash@band-4:csr:16#times=none",
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.n_failed == 1
        assert outcome.failure(*TARGET).error_type == "WorkerCrashError"
        expected = {
            coords: result
            for coords, result in healthy_map(baseline).items()
            if coords != TARGET
        }
        assert healthy_map(outcome) == expected
        counters = outcome.telemetry.metrics.counters
        assert counters["sweep.degraded"] == 1


# ----------------------------------------------------------------------
# Chunk wall-clock budget
# ----------------------------------------------------------------------
class TestChunkTimeout:
    def test_budget_blowing_cell_fails_as_chunk_timeout(self, baseline):
        outcome = SweepRunner(
            max_workers=2,
            max_retries=0,
            chunk_timeout=0.5,
            faults="delay@band-4:csr:16#times=none#delay=5.0",
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.n_failed == 1
        failed = outcome.failure(*TARGET)
        assert failed.error_type == "ChunkTimeout"
        assert "0.5" in failed.message
        expected = {
            coords: result
            for coords, result in healthy_map(baseline).items()
            if coords != TARGET
        }
        assert healthy_map(outcome) == expected

    def test_generous_budget_changes_nothing(self, baseline):
        outcome = SweepRunner(
            max_workers=2, chunk_timeout=120.0
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert outcome.ok
        assert healthy_map(outcome) == healthy_map(baseline)
