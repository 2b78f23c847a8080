"""Sweep orchestration: grids in, outcomes out, backends pluggable.

The runner owns *what* runs — grid expansion, cache-affine chunking,
checkpoint resume replay, and assembling the merged
:class:`~repro.engine.grid.SweepOutcome` — and delegates *where* it
runs to an executor backend (:mod:`repro.engine.executors`):

``backend="inline"``
    Everything in-process against one shared cache; the bit-identical
    reference configuration.
``backend="pool"``
    Chunks dispatched to a ``ProcessPoolExecutor`` with the full
    crash-recovery ladder (bounded retries, bisection down to the
    poisonous cell, one-chunk-per-pool isolation rounds, in-process
    degradation).
``backend="queue"``
    Chunks published to a file-based work queue that ``repro worker``
    processes — on this machine or any machine sharing the directory —
    claim by digest shard, execute, and checkpoint into per-worker
    shards the coordinator merges (:mod:`repro.engine.distributed`).
``backend="auto"`` (default)
    The historical rule: inline when ``max_workers == 1`` or there is
    only one chunk, the pool otherwise.

Every backend runs the same per-cell code path, so a sweep's results
are identical cell-for-cell no matter where it executed — checkpoints
included, which is what makes
:func:`~repro.engine.checkpoint.checkpoint_digest` comparison across
backends meaningful.

Orthogonal services the runner provides to all backends:

*   **Error policy** — ``"collect"`` (default) isolates failing cells
    into :class:`~repro.engine.grid.FailedCell` records;
    ``"fail_fast"`` aborts on the first failure with
    :class:`~repro.errors.SweepCellError`.
*   **Checkpointing** (``checkpoint=...``) — completed cells append to
    a JSONL checkpoint; ``resume=True`` replays them by recipe digest
    and executes only the remainder, bit-identically.
*   **Telemetry** (``telemetry=True``) — per-cell spans, merged worker
    metrics, cache counters, and each backend's recovery counters
    (``sweep.pool_restarts``, ``sweep.queue.reclaims``, ...).
*   **Fault injection** (``faults=...``) — deterministic exceptions,
    worker crashes, delays and stream corruption at chosen cells, and
    torn writes, stale leases, full disks and crashes at the
    durability seams.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from ..core.results import CharacterizationResult
from ..errors import SweepConfigError
from ..formats.registry import PAPER_FORMATS
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..observability import MetricsRegistry
from ..partition import PARTITION_SIZES
from ..workloads.registry import Workload
from .cache import CacheStats
from .checkpoint import (
    CheckpointState,
    CheckpointWriter,
    cell_digests,
    load_checkpoint,
)
from .executors import (
    EXECUTOR_BACKENDS,
    CheckpointSink,
    ExecutionSettings,
    _Chunk,
    _ChunkOutput,
    make_executor,
)
from .faults import FaultPlan
from .grid import (
    EncodeSummary,
    FailedCell,
    SweepCell,
    SweepOutcome,
    build_grid,
)
from .specs import WorkloadSpec
from .telemetry import CellTelemetry, RunTelemetry, workload_recipe_digest

__all__ = ["SweepRunner", "run_sweep", "ERROR_POLICIES"]

#: The supported per-cell error policies.
ERROR_POLICIES = ("collect", "fail_fast")


class SweepRunner:
    """Executes sweep grids, concurrently and fault-tolerantly.

    Parameters
    ----------
    max_workers:
        Worker count.  ``1`` (the default) runs everything in-process
        with a single cache shared across the whole grid; ``> 1``
        dispatches workload-chunks to the selected parallel backend.
    backend:
        Execution backend: ``"auto"`` (default), ``"inline"``,
        ``"pool"``, or ``"queue"`` (the distributed work-queue;
        configure it with ``queue_options``).
    encode:
        Also run each (workload, format) through the format's real
        ``encode``/``size`` path, caching the result across partition
        sizes, and report the exact whole-matrix transfer accounting in
        :attr:`SweepOutcome.encodings`.  Off by default because a dense
        encode of a paper-scale (8000 x 8000) matrix materializes the
        full array.
    telemetry:
        Record per-cell spans, worker timers and workload recipe
        digests into :attr:`SweepOutcome.telemetry` (the input for
        :meth:`SweepOutcome.write_manifest`).  Off by default; when off
        the run path is unchanged except for one branch per cell.
    error_policy:
        ``"collect"`` (default): a failing cell becomes a
        :class:`FailedCell` on :attr:`SweepOutcome.failures` and every
        other cell still runs.  ``"fail_fast"``: the first failure
        aborts the sweep with :class:`SweepCellError` (the pre-existing
        behavior).
    max_retries:
        How many times a chunk lost to a worker crash, a chunk timeout
        or an expired queue lease is re-dispatched verbatim before it
        is bisected (multi-cell chunks) or declared failed (single
        cells).
    chunk_timeout:
        Optional per-chunk wall-clock budget in seconds for the pool
        backend; a chunk that exceeds it is treated like a crashed
        chunk (retried, bisected, then failed with
        ``error_type="ChunkTimeout"``).
    faults:
        A :class:`~repro.engine.faults.FaultPlan` (or its compact
        string form) injecting deterministic failures for testing;
        ``None`` disables.  Cell clauses fire before matching cells;
        durability clauses (torn checkpoint writes, stale leases, full
        disks) are installed with coordinator semantics in this
        process (fatal ones raise :class:`~repro.errors.ChaosCrash`)
        and shipped to queue workers, which install them with worker
        semantics (fatal ones kill the worker).
    checkpoint:
        Path of an append-only JSONL checkpoint; every completed cell
        is appended and flushed as soon as the parent sees it (the
        queue backend additionally keeps per-worker shard checkpoints
        it merges into this one).
    resume:
        Replay cells found in ``checkpoint`` (matched by recipe
        digest) instead of executing them.  Requires ``checkpoint``.
    max_pool_restarts:
        Pool rebuilds tolerated before the pool backend stops trusting
        the process pool and degrades to the in-process path for the
        remaining work.  Default: scaled from ``max_retries`` and the
        bisection depth of the largest chunk.
    queue_options:
        A :class:`~repro.engine.distributed.QueueOptions` for the
        ``"queue"`` backend (queue directory, spawned worker count,
        lease timeout, ...).  Rejected for any other backend.
    """

    def __init__(
        self,
        max_workers: int = 1,
        encode: bool = False,
        telemetry: bool = False,
        error_policy: str = "collect",
        max_retries: int = 2,
        chunk_timeout: float | None = None,
        faults: "FaultPlan | str | None" = None,
        checkpoint: "str | Path | None" = None,
        resume: bool = False,
        max_pool_restarts: int | None = None,
        backend: str = "auto",
        queue_options=None,
    ) -> None:
        if not isinstance(max_workers, int) or isinstance(
            max_workers, bool
        ):
            raise SweepConfigError(
                f"max_workers must be an integer, got "
                f"{max_workers!r} ({type(max_workers).__name__})"
            )
        if max_workers < 1:
            raise SweepConfigError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if error_policy not in ERROR_POLICIES:
            raise SweepConfigError(
                f"error_policy must be one of "
                f"{', '.join(ERROR_POLICIES)}; got {error_policy!r}"
            )
        if not isinstance(max_retries, int) or isinstance(
            max_retries, bool
        ) or max_retries < 0:
            raise SweepConfigError(
                f"max_retries must be an integer >= 0, got "
                f"{max_retries!r}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise SweepConfigError(
                f"chunk_timeout must be > 0 seconds, got {chunk_timeout}"
            )
        if max_pool_restarts is not None and max_pool_restarts < 0:
            raise SweepConfigError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        if resume and checkpoint is None:
            raise SweepConfigError(
                "resume=True requires a checkpoint path"
            )
        if backend not in EXECUTOR_BACKENDS:
            raise SweepConfigError(
                f"backend must be one of "
                f"{', '.join(EXECUTOR_BACKENDS)}; got {backend!r}"
            )
        if queue_options is not None and backend != "queue":
            raise SweepConfigError(
                f"queue options require backend='queue', got "
                f"{backend!r}"
            )
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.max_workers = max_workers
        self.encode = encode
        self.telemetry = telemetry
        self.error_policy = error_policy
        self.max_retries = max_retries
        self.chunk_timeout = chunk_timeout
        self.faults = faults
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self.resume = resume
        self.max_pool_restarts = max_pool_restarts
        self.backend = backend
        self.queue_options = queue_options

    # ------------------------------------------------------------------
    @staticmethod
    def chunk_indexed(
        indexed: Sequence[tuple[int, SweepCell]], target_chunks: int = 1
    ) -> list[_Chunk]:
        """Group pre-indexed cells for dispatch (see :meth:`chunk_cells`)."""
        by_workload: dict[str, _Chunk] = {}
        for index, cell in indexed:
            by_workload.setdefault(
                cell.workload_name, []
            ).append((index, cell))
        if len(by_workload) >= target_chunks:
            return list(by_workload.values())
        refined: dict[tuple[str, int], _Chunk] = {}
        for index, cell in indexed:
            key = (cell.workload_name, cell.partition_size)
            refined.setdefault(key, []).append((index, cell))
        return list(refined.values())

    @staticmethod
    def chunk_cells(
        cells: Sequence[SweepCell], target_chunks: int = 1
    ) -> list[_Chunk]:
        """Group indexed cells for dispatch, preserving first-seen order.

        Cells of one workload share partition profiles (across formats)
        and encodings (across partition sizes), so the workload is the
        unit of cache affinity — and therefore the default unit of
        dispatch.  When that yields fewer chunks than
        ``target_chunks`` (e.g. one workload on many workers), chunks
        are refined to (workload, partition size) granularity; profile
        sharing across formats is preserved either way.
        """
        return SweepRunner.chunk_indexed(
            list(enumerate(cells)), target_chunks
        )

    def execution_settings(self) -> ExecutionSettings:
        """The backend-facing view of this runner's configuration."""
        return ExecutionSettings(
            encode=self.encode,
            telemetry=self.telemetry,
            error_policy=self.error_policy,
            faults=self.faults,
            max_retries=self.max_retries,
            chunk_timeout=self.chunk_timeout,
            max_workers=self.max_workers,
            max_pool_restarts=self.max_pool_restarts,
        )

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell]) -> SweepOutcome:
        """Execute every cell; results come back in grid order."""
        if self.faults is None or not self.faults.durable:
            return self._run(cells)
        self.faults.install("coordinator")
        try:
            return self._run(cells)
        finally:
            self.faults.uninstall()

    def _run(self, cells: Sequence[SweepCell]) -> SweepOutcome:
        cells = list(cells)
        run_start = time.perf_counter() if self.telemetry else 0.0
        if not cells:
            return SweepOutcome(
                results=[],
                stats=CacheStats(),
                telemetry=(
                    RunTelemetry(workers=self.max_workers, n_chunks=0)
                    if self.telemetry
                    else None
                ),
            )

        digests: list[str] | None = None
        replayed: dict[int, CharacterizationResult] = {}
        replay_spans: list[CellTelemetry] = []
        replay_encodings: dict[tuple[str, str], EncodeSummary] = {}
        writer: CheckpointWriter | None = None
        if self.checkpoint is not None:
            digests = cell_digests(cells)
            if self.resume:
                state = self._load_resume_state()
                for index, digest in enumerate(digests):
                    found = state.result_for(digest)
                    if found is None:
                        continue
                    result, wall_s, cache_key = found
                    replayed[index] = result
                    replay_spans.append(
                        CellTelemetry(
                            index=index,
                            workload=result.workload,
                            format_name=cells[index].format_name,
                            partition_size=cells[index].partition_size,
                            cache_key=cache_key,
                            wall_s=wall_s,
                        )
                    )
                if self.encode:
                    replay_encodings = dict(state.encodings)
            writer = CheckpointWriter(self.checkpoint)

        pending = [
            (index, cell)
            for index, cell in enumerate(cells)
            if index not in replayed
        ]
        chunks = self.chunk_indexed(
            pending, target_chunks=self.max_workers
        )
        recovery_failures: list[FailedCell] = []
        recovery_counters: dict[str, int] = {}
        outputs: list[_ChunkOutput] = []
        try:
            if chunks:
                executor = make_executor(
                    self.execution_settings(),
                    backend=self.backend,
                    n_chunks=len(chunks),
                    queue_options=self.queue_options,
                )
                sink = (
                    CheckpointSink(writer, digests)
                    if writer is not None
                    else None
                )
                outputs, recovery_failures, recovery_counters = (
                    executor.run_chunks(chunks, sink)
                )
        finally:
            if writer is not None:
                writer.close()

        indexed: dict[int, CharacterizationResult] = dict(replayed)
        encodings: dict[tuple[str, str], EncodeSummary] = dict(
            replay_encodings
        )
        failures: list[FailedCell] = list(recovery_failures)
        stats = CacheStats()
        spans: list[CellTelemetry] = list(replay_spans)
        metrics = MetricsRegistry()
        for (
            chunk_results,
            chunk_encodings,
            chunk_stats,
            chunk_spans,
            chunk_metrics,
            chunk_failures,
        ) in outputs:
            indexed.update(dict(chunk_results))
            encodings.update(chunk_encodings)
            stats = stats.merged(chunk_stats)
            failures.extend(chunk_failures)
            if chunk_spans:
                spans.extend(chunk_spans)
            if chunk_metrics is not None:
                metrics = metrics.merged(chunk_metrics)
        failures.sort(key=lambda failed: failed.index)

        telemetry: RunTelemetry | None = None
        if self.telemetry:
            spans.sort(key=lambda span: span.index)
            for kind, count in sorted(stats.hits.items()):
                metrics.incr(f"cache.{kind}.hits", count)
            for kind, count in sorted(stats.misses.items()):
                metrics.incr(f"cache.{kind}.misses", count)
            for name, count in sorted(recovery_counters.items()):
                metrics.incr(name, count)
            if failures:
                metrics.incr("sweep.cells.failed", len(failures))
            if replayed:
                metrics.incr("sweep.cells.replayed", len(replayed))
            recipes: dict[str, str] = {}
            for cell in cells:
                if cell.workload_name not in recipes:
                    recipes[cell.workload_name] = workload_recipe_digest(
                        cell.workload
                    )
            telemetry = RunTelemetry(
                cells=spans,
                metrics=metrics,
                recipes=recipes,
                wall_s=time.perf_counter() - run_start,
                workers=self.max_workers,
                n_chunks=len(chunks),
                n_failed=len(failures),
                n_replayed=len(replayed),
            )
        return SweepOutcome(
            results=[
                indexed[index]
                for index in range(len(cells))
                if index in indexed
            ],
            stats=stats,
            encodings=encodings,
            telemetry=telemetry,
            failures=failures,
        )

    def run_grid(
        self,
        workloads: Sequence[Workload | WorkloadSpec],
        format_names: Sequence[str] = PAPER_FORMATS,
        partition_sizes: Sequence[int] = PARTITION_SIZES,
        base_config: HardwareConfig = DEFAULT_CONFIG,
    ) -> SweepOutcome:
        """Expand the cube with :func:`build_grid` and run it."""
        return self.run(
            build_grid(workloads, format_names, partition_sizes, base_config)
        )

    # ------------------------------------------------------------------
    def _load_resume_state(self) -> CheckpointState:
        if (
            self.checkpoint.exists()
            and self.checkpoint.stat().st_size > 0
        ):
            return load_checkpoint(self.checkpoint)
        return CheckpointState()


def run_sweep(
    workloads: Sequence[Workload | WorkloadSpec],
    format_names: Sequence[str] = PAPER_FORMATS,
    partition_sizes: Sequence[int] = PARTITION_SIZES,
    base_config: HardwareConfig = DEFAULT_CONFIG,
    max_workers: int = 1,
    encode: bool = False,
    telemetry: bool = False,
    error_policy: str = "collect",
    max_retries: int = 2,
    chunk_timeout: float | None = None,
    faults: "FaultPlan | str | None" = None,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
    backend: str = "auto",
    queue_options=None,
) -> SweepOutcome:
    """One-shot convenience wrapper around :class:`SweepRunner`."""
    runner = SweepRunner(
        max_workers=max_workers,
        encode=encode,
        telemetry=telemetry,
        error_policy=error_policy,
        max_retries=max_retries,
        chunk_timeout=chunk_timeout,
        faults=faults,
        checkpoint=checkpoint,
        resume=resume,
        backend=backend,
        queue_options=queue_options,
    )
    return runner.run_grid(
        workloads, format_names, partition_sizes, base_config
    )
