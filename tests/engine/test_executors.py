"""Executor conformance: every backend produces the same sweep.

The contract under test is the one ``repro checkpoint --digest``
gates in CI: for the same grid, the inline, pool and queue backends
return bit-identical results, record bit-identical checkpoints, and
surface failures identically — including after worker crashes and
lease reclamation on the queue path.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    EXECUTOR_BACKENDS,
    ExecutionSettings,
    InlineExecutor,
    PoolExecutor,
    SweepRunner,
    WorkloadSpec,
    checkpoint_digest,
    make_executor,
)
from repro.engine.distributed import QueueExecutor, QueueOptions
from repro.errors import SweepCellError, SweepConfigError

#: Compact grid: 2 workloads x 2 formats x 2 partition sizes = 8 cells.
SPECS = (
    WorkloadSpec.random(64, 0.05, seed=3),
    WorkloadSpec.band(64, 4, seed=3),
)
FORMATS = ("csr", "coo")
PARTITIONS = (8, 16)

#: Queue knobs sized for tests: short leases so reclamation from a
#: killed worker happens in seconds, not the production default.
FAST_QUEUE = QueueOptions(lease_timeout_s=1.5, poll_interval_s=0.02)


def run_backend(backend: str, **kwargs):
    options = kwargs.pop("queue_options", None)
    if backend == "queue" and options is None:
        options = FAST_QUEUE
    runner = SweepRunner(
        max_workers=kwargs.pop("workers", 2),
        backend=backend,
        queue_options=options if backend == "queue" else None,
        **kwargs,
    )
    return runner.run_grid(
        list(SPECS), FORMATS, partition_sizes=PARTITIONS
    )


@pytest.fixture(scope="module")
def inline_reference():
    return run_backend("inline", workers=1)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestMakeExecutor:
    def test_auto_is_inline_for_one_worker(self):
        settings = ExecutionSettings(encode=False, max_workers=1)
        executor = make_executor(settings, backend="auto", n_chunks=4)
        assert isinstance(executor, InlineExecutor)

    def test_auto_is_pool_for_parallel_work(self):
        settings = ExecutionSettings(encode=False, max_workers=2)
        executor = make_executor(settings, backend="auto", n_chunks=4)
        assert isinstance(executor, PoolExecutor)

    def test_auto_is_inline_for_a_single_chunk(self):
        settings = ExecutionSettings(encode=False, max_workers=4)
        executor = make_executor(settings, backend="auto", n_chunks=1)
        assert isinstance(executor, InlineExecutor)

    def test_queue_backend_resolves_lazily(self):
        settings = ExecutionSettings(encode=False, max_workers=2)
        executor = make_executor(settings, backend="queue", n_chunks=4)
        assert isinstance(executor, QueueExecutor)

    def test_unknown_backend_is_rejected(self):
        settings = ExecutionSettings(encode=False, max_workers=1)
        with pytest.raises(SweepConfigError, match="backend"):
            make_executor(settings, backend="threads", n_chunks=1)

    def test_runner_rejects_unknown_backend(self):
        with pytest.raises(SweepConfigError, match="backend"):
            SweepRunner(backend="threads")

    def test_runner_rejects_queue_options_off_queue_path(self):
        with pytest.raises(SweepConfigError, match="queue options"):
            SweepRunner(backend="pool", queue_options=FAST_QUEUE)

    def test_backend_registry_is_pinned(self):
        assert EXECUTOR_BACKENDS == ("auto", "inline", "pool", "queue")


# ----------------------------------------------------------------------
# Bit-identical results across backends
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["pool", "queue"])
    def test_results_match_inline(self, backend, inline_reference):
        outcome = run_backend(backend)
        reference = inline_reference.by_coords()
        cube = outcome.by_coords()
        assert set(cube) == set(reference)
        for coords, result in cube.items():
            assert result == reference[coords], coords
        assert not outcome.failures

    @pytest.mark.parametrize("backend", ["inline", "pool", "queue"])
    def test_checkpoint_digests_agree(self, backend, tmp_path):
        path = tmp_path / f"{backend}.jsonl"
        outcome = run_backend(
            backend, encode=True, checkpoint=path
        )
        assert not outcome.failures
        # the digest is backend-independent by construction; pin it
        # against a fresh inline run rather than a stored constant so
        # the test survives model changes
        ref_path = tmp_path / "reference.jsonl"
        run_backend(
            "inline", workers=1, encode=True, checkpoint=ref_path
        )
        assert checkpoint_digest(path) == checkpoint_digest(ref_path)

    def test_queue_encodings_match_inline(self):
        inline = run_backend("inline", workers=1, encode=True)
        queued = run_backend("queue", encode=True)
        assert queued.encodings == inline.encodings

    def test_queue_telemetry_covers_every_cell(self):
        outcome = run_backend("queue", telemetry=True)
        assert outcome.telemetry is not None
        indices = {span.index for span in outcome.telemetry.cells}
        assert indices == set(range(len(SPECS) * 2 * 2))
        metrics = outcome.telemetry.metrics
        assert metrics.counter("sweep.cells") == len(SPECS) * 2 * 2
        misses = metrics.counters_with_prefix("cache.")
        assert sum(
            count for name, count in misses.items()
            if name.endswith(".misses")
        ) > 0


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailureConformance:
    #: A persistent fault in exactly one cell of the grid.
    RAISE_ONE = "raise@band-4:coo:8#times=none"

    @pytest.mark.parametrize("backend", ["inline", "pool", "queue"])
    def test_collect_policy_isolates_the_cell(self, backend):
        outcome = run_backend(backend, faults=self.RAISE_ONE)
        assert [f.coords for f in outcome.failures] == [
            ("band-4", "coo", 8)
        ]
        assert outcome.failures[0].error_type == "InjectedFault"
        assert len(outcome.results) == len(SPECS) * 2 * 2 - 1

    @pytest.mark.parametrize("backend", ["inline", "queue"])
    def test_fail_fast_raises_the_cell_error(self, backend):
        with pytest.raises(SweepCellError) as excinfo:
            run_backend(
                backend,
                faults=self.RAISE_ONE,
                error_policy="fail_fast",
            )
        assert excinfo.value.coords == ("band-4", "coo", 8)


# ----------------------------------------------------------------------
# Queue-backend fault tolerance
# ----------------------------------------------------------------------
class TestQueueRecovery:
    def test_worker_crash_is_reclaimed_bit_identically(
        self, inline_reference, tmp_path
    ):
        # every band-4 cell kills its worker on the first attempt;
        # the coordinator must reclaim the leases and retry to an
        # outcome indistinguishable from the sequential one
        path = tmp_path / "crashy.jsonl"
        outcome = run_backend(
            "queue",
            faults="crash@band-4:*:*",
            checkpoint=path,
        )
        assert not outcome.failures
        reference = inline_reference.by_coords()
        for coords, result in outcome.by_coords().items():
            assert result == reference[coords], coords
        ref_path = tmp_path / "reference.jsonl"
        run_backend("inline", workers=1, checkpoint=ref_path)
        assert checkpoint_digest(path) == checkpoint_digest(ref_path)

    def test_persistent_crashes_surface_as_failed_cells(self):
        outcome = run_backend(
            "queue", faults="crash@band-4:coo:8#times=none"
        )
        assert [f.coords for f in outcome.failures] == [
            ("band-4", "coo", 8)
        ]
        assert outcome.failures[0].error_type == "WorkerCrashError"
        assert len(outcome.results) == len(SPECS) * 2 * 2 - 1

    def test_queue_resume_replays_without_recompute(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        first = run_backend("queue", checkpoint=path)
        digest_before = checkpoint_digest(path)
        resumed = SweepRunner(
            max_workers=2,
            backend="queue",
            queue_options=FAST_QUEUE,
            checkpoint=path,
            resume=True,
        ).run_grid(list(SPECS), FORMATS, partition_sizes=PARTITIONS)
        assert checkpoint_digest(path) == digest_before
        reference = first.by_coords()
        for coords, result in resumed.by_coords().items():
            assert result == reference[coords], coords

    def test_keep_queue_preserves_the_directory(self, tmp_path):
        queue_dir = tmp_path / "queue"
        options = QueueOptions(
            queue_dir=str(queue_dir),
            lease_timeout_s=1.5,
            poll_interval_s=0.02,
            keep_queue=True,
        )
        outcome = run_backend("queue", queue_options=options)
        assert not outcome.failures
        assert (queue_dir / "queue.json").is_file()
        assert (queue_dir / "STOP").is_file()
        shards = list((queue_dir / "results").glob("*.jsonl"))
        assert shards, "worker shard checkpoints should survive"


class TestQueueOptionsValidation:
    def test_negative_lease_timeout_rejected(self):
        from repro.errors import QueueError

        with pytest.raises(QueueError, match="lease_timeout_s"):
            QueueOptions(lease_timeout_s=0.0)

    def test_negative_spawn_workers_rejected(self):
        from repro.errors import QueueError

        with pytest.raises(QueueError, match="spawn_workers"):
            QueueOptions(spawn_workers=-1)

    def test_bad_speculation_knobs_rejected(self):
        from repro.errors import QueueError

        with pytest.raises(QueueError, match="speculate_factor"):
            QueueOptions(speculate_factor=0.5)
        with pytest.raises(QueueError, match="speculate_min_samples"):
            QueueOptions(speculate_min_samples=0)
        with pytest.raises(QueueError, match="speculate_floor_s"):
            QueueOptions(speculate_floor_s=-1.0)


# ----------------------------------------------------------------------
# Speculative re-dispatch
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_aggressive_speculation_stays_bit_identical(
        self, inline_reference, tmp_path
    ):
        """Speculation at its most trigger-happy (factor 1, no floor,
        one latency sample) duplicates live tasks freely — and the
        first-result-wins merge still lands the inline outcome."""
        checkpoint = tmp_path / "speculated.jsonl"
        reference = tmp_path / "reference.jsonl"
        run_backend("inline", workers=1, checkpoint=reference)
        outcome = run_backend(
            "queue",
            checkpoint=checkpoint,
            queue_options=QueueOptions(
                lease_timeout_s=5.0,
                poll_interval_s=0.02,
                speculate_factor=1.0,
                speculate_min_samples=1,
                speculate_floor_s=0.0,
            ),
        )
        assert outcome.ok
        assert outcome.results == inline_reference.results
        assert checkpoint_digest(checkpoint) == checkpoint_digest(
            reference
        )
