"""Pluggable sweep execution backends behind one executor interface.

The runner's job is *what* to run (grid expansion, chunking, resume
replay, outcome assembly); an executor's job is *where* and *how*
chunks execute.  Three backends implement the same contract:

:class:`InlineExecutor`
    Runs every chunk in-process against one shared
    :class:`~repro.engine.cache.ContentKeyedCache` — the maximal
    caching configuration and the bit-identical reference every other
    backend is gated against.
:class:`PoolExecutor`
    Dispatches chunks to a ``ProcessPoolExecutor`` with the full
    crash-recovery ladder (retries, bisection, one-chunk-per-pool
    isolation rounds, in-process degradation).
:class:`~repro.engine.distributed.QueueExecutor`
    Dispatches chunks through a file-based work queue that worker
    processes — on this machine or any machine sharing the directory —
    claim, execute and checkpoint into per-worker shards
    (``repro worker``).  Imported lazily so the engine package has no
    import-time dependency on the distributed module.

All backends return the same ``(outputs, failures, counters)`` triple
and share :func:`_run_chunk`, the single per-cell code path, so a
sweep's results are identical cell-for-cell no matter which backend
executed it.
"""

from __future__ import annotations

import time
import traceback
import zlib
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.results import CharacterizationResult
from ..core.simulator import SpmvSimulator
from ..errors import SweepCellError, SweepConfigError
from ..formats.base import VALUE_BYTES
from ..formats.corrupt import CorruptionSpec, StreamCorruptor
from ..formats.integrity import safe_decode
from ..formats.registry import get_format
from ..hardware.config import HardwareConfig
from ..observability import MetricsRegistry
from ..partition import profile_table
from ..workloads.registry import Workload
from .cache import CacheStats, ContentKeyedCache
from .faults import FaultPlan
from .grid import EncodeSummary, FailedCell, SweepCell
from .specs import StreamedMatrixSpec
from .telemetry import CellTelemetry, workload_recipe_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import CheckpointWriter

__all__ = [
    "EXECUTOR_BACKENDS",
    "ExecutionSettings",
    "CheckpointSink",
    "SweepExecutor",
    "InlineExecutor",
    "PoolExecutor",
    "make_executor",
]

#: Names accepted by ``SweepRunner(backend=...)`` / ``--backend``.
EXECUTOR_BACKENDS = ("auto", "inline", "pool", "queue")

#: One chunk: (cell index in the grid, cell) pairs sharing a workload.
_Chunk = list[tuple[int, SweepCell]]

#: One chunk's outputs: results, encodings, cache stats, telemetry,
#: and (under the "collect" policy) per-cell failure records.
_ChunkOutput = tuple[
    list[tuple[int, CharacterizationResult]],
    dict[tuple[str, str], EncodeSummary],
    CacheStats,
    "list[CellTelemetry] | None",
    "MetricsRegistry | None",
    list[FailedCell],
]


def _materialize(cell: SweepCell, cache: ContentKeyedCache) -> Workload:
    """The cell's workload, building lazy cells through the cache.

    Accepts anything carrying a ``cache_key`` / ``build()`` pair
    (:class:`~repro.engine.specs.WorkloadSpec`, the queue backend's
    :class:`~repro.engine.distributed.StoredWorkload`) besides plain
    materialized :class:`Workload` objects.  Streamed workloads never
    materialize; the paths that would need them to (encode, corrupt
    faults) reject them with a clear error instead of densifying an
    out-of-core matrix.
    """
    workload = cell.workload
    if isinstance(workload, StreamedMatrixSpec):
        raise SweepConfigError(
            f"workload {workload.name!r} streams out-of-core; "
            f"encode and corrupt-fault paths need a materialized "
            f"matrix (read it with read_matrix_market instead)"
        )
    if isinstance(workload, Workload):
        return workload
    return cache.get_or_create(workload.cache_key, workload.build)


def _corrupt_workload(
    workload: Workload, cell: SweepCell, corruption: CorruptionSpec
) -> Workload:
    """Run the cell's matrix through a seeded encode-damage-decode loop.

    The stream corruption a ``corrupt`` fault models happens on the
    *encoded* representation: the matrix is encoded in the cell's own
    format, one plane is damaged (seeded by the cell coordinates, so
    every retry and every worker sees identical damage), and the
    result is decoded back strictly.  Detected damage raises
    :class:`~repro.errors.FormatIntegrityError`, surfacing as an
    ordinary cell failure; damage the checks cannot see decodes to a
    matrix that continues into the characterization.
    """
    fmt = get_format(cell.format_name)
    encoded = fmt.encode(workload.matrix)
    corruptor = StreamCorruptor(
        seed=zlib.crc32(repr(cell.coords).encode("utf-8"))
    )
    damaged = corruptor.corrupt_encoding(
        encoded, corruption, key=cell.coords
    )
    matrix = safe_decode(damaged)
    return Workload(
        name=workload.name,
        group=workload.group,
        matrix=matrix,
        parameter=workload.parameter,
    )


def _run_cell(
    cell: SweepCell,
    cache: ContentKeyedCache,
    config: HardwareConfig,
    corruption: CorruptionSpec | None = None,
) -> tuple[CharacterizationResult, str]:
    """Characterize one cell; returns the result and its matrix key.

    ``config`` is the cell's ``resolved_config``.  Streamed cells
    profile their matrix tile-by-tile through
    :func:`~repro.io.streaming_profile_table` (keyed by the file's
    content digest) instead of materializing it; everything downstream
    of the :class:`~repro.partition.ProfileTable` is identical.
    """
    workload = cell.workload
    if isinstance(workload, StreamedMatrixSpec):
        if corruption is not None:
            raise SweepConfigError(
                f"corrupt faults cannot target streamed workload "
                f"{workload.name!r}: stream corruption needs a "
                f"materialized encode/decode loop"
            )
        matrix_key = workload.content_key
        spec = workload
        table = cache.get_or_create(
            (
                "profiles",
                matrix_key,
                config.partition_size,
                config.block_size,
            ),
            lambda: spec.profile(
                config.partition_size, config.block_size
            ),
        )
        simulator = SpmvSimulator(config)
        result = simulator.run_format(
            cell.format_name, table, workload.name
        )
        return result, matrix_key
    workload = _materialize(cell, cache)
    if corruption is not None:
        workload = _corrupt_workload(workload, cell, corruption)
    matrix_key = cache.matrix_key(workload.matrix)
    table = cache.get_or_create(
        ("profiles", matrix_key, config.partition_size, config.block_size),
        lambda: profile_table(
            workload.matrix,
            config.partition_size,
            block_size=config.block_size,
        ),
    )
    simulator = SpmvSimulator(config)
    result = simulator.run_format(cell.format_name, table, workload.name)
    return result, matrix_key


def _encode_cell(
    cell: SweepCell, cache: ContentKeyedCache
) -> EncodeSummary:
    """Whole-matrix encode accounting, shared across partition sizes."""
    workload = _materialize(cell, cache)
    matrix = workload.matrix
    matrix_key = cache.matrix_key(matrix)

    def build() -> EncodeSummary:
        fmt = get_format(cell.format_name)
        size = fmt.size(fmt.encode(matrix))
        dense_bytes = matrix.n_rows * matrix.n_cols * VALUE_BYTES
        ratio = (
            float("inf")
            if size.total_bytes == 0
            else dense_bytes / size.total_bytes
        )
        return EncodeSummary(
            workload=workload.name,
            format_name=cell.format_name,
            nnz=matrix.nnz,
            size=size,
            compression_ratio=ratio,
        )

    return cache.get_or_create(
        ("encode", matrix_key, cell.format_name), build
    )


def _failed_cell(
    index: int, cell: SweepCell, error: Exception, attempt: int
) -> FailedCell:
    """Build the structured failure record for one raised cell."""
    return FailedCell(
        index=index,
        workload=cell.workload_name,
        format_name=cell.format_name,
        partition_size=cell.partition_size,
        recipe_digest=workload_recipe_digest(cell.workload),
        error_type=type(error).__name__,
        message=str(error),
        traceback_text=traceback.format_exc(),
        attempts=attempt + 1,
    )


def _run_chunk(
    chunk: _Chunk,
    encode: bool,
    cache: ContentKeyedCache | None = None,
    telemetry: bool = False,
    error_policy: str = "fail_fast",
    faults: FaultPlan | None = None,
    attempt: int = 0,
    in_worker: bool = True,
    on_cell: "Callable | None" = None,
) -> _ChunkOutput:
    """Execute one chunk of cells against one shared cache.

    This is the single code path every backend uses; pool and queue
    workers call it with a worker-local cache, the inline executor
    threads one cache through every chunk.  With ``telemetry`` the
    chunk also returns one :class:`CellTelemetry` per cell and a
    worker-local :class:`MetricsRegistry`; both are picklable, so they
    aggregate across process boundaries exactly like the results do.

    ``error_policy="collect"`` turns per-cell exceptions into
    :class:`FailedCell` records (with the traceback formatted *here*,
    on the worker side of the pickle boundary); ``"fail_fast"``
    re-raises them as annotated :class:`SweepCellError`.  ``faults``
    and ``attempt`` drive deterministic fault injection; ``on_cell``
    (same-process callers only — it does not pickle) is invoked after
    every completed cell so the caller can checkpoint at cell
    granularity.
    """
    if cache is None:
        cache = ContentKeyedCache()
    results: list[tuple[int, CharacterizationResult]] = []
    encodings: dict[tuple[str, str], EncodeSummary] = {}
    failures: list[FailedCell] = []
    spans: list[CellTelemetry] | None = [] if telemetry else None
    metrics: MetricsRegistry | None = (
        MetricsRegistry() if telemetry else None
    )
    timed = telemetry or on_cell is not None
    chunk_start = time.perf_counter() if telemetry else 0.0
    # grids run workload -> p -> format, so a slice's formats are
    # adjacent and share one resolved config
    base, p = None, 0
    for index, cell in chunk:
        cell_start = time.perf_counter() if timed else 0.0
        try:
            corruption = None
            if faults is not None:
                faults.before_cell(
                    cell.coords, index, attempt, in_worker
                )
                corruption = faults.corruption_for(
                    cell.coords, index, attempt
                )
            if cell.config is not base or cell.partition_size != p:
                config = cell.resolved_config
                base, p = cell.config, cell.partition_size
            result, matrix_key = _run_cell(cell, cache, config, corruption)
            if encode:
                summary = _encode_cell(cell, cache)
                encodings[(summary.workload, summary.format_name)] = summary
        except Exception as error:  # noqa: BLE001 — policy decides
            if error_policy == "fail_fast":
                if isinstance(error, SweepCellError):
                    raise
                raise SweepCellError(
                    cell.coords,
                    f"{type(error).__name__}: {error}",
                    traceback_text=traceback.format_exc(),
                    recipe_digest=workload_recipe_digest(cell.workload),
                    attempts=attempt + 1,
                ) from error
            failures.append(_failed_cell(index, cell, error, attempt))
            continue
        results.append((index, result))
        wall = time.perf_counter() - cell_start if timed else 0.0
        if telemetry:
            spans.append(
                CellTelemetry(
                    index=index,
                    workload=result.workload,
                    format_name=cell.format_name,
                    partition_size=cell.partition_size,
                    cache_key=matrix_key,
                    wall_s=wall,
                )
            )
            metrics.incr("sweep.cells")
            metrics.observe("sweep.cell", wall)
        if on_cell is not None:
            on_cell(index, cell, result, wall, matrix_key)
    if telemetry:
        metrics.observe(
            "sweep.chunk", time.perf_counter() - chunk_start
        )
        metrics.incr("sweep.chunks")
    return results, encodings, cache.stats, spans, metrics, failures


# ----------------------------------------------------------------------
# The executor contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionSettings:
    """Everything a backend needs to know about *how* cells execute.

    A frozen value object so backends can ship it across process
    boundaries (the queue backend serializes it into ``queue.json``)
    and tests can construct backends without a full runner.
    """

    encode: bool = False
    telemetry: bool = False
    error_policy: str = "collect"
    faults: FaultPlan | None = None
    max_retries: int = 2
    chunk_timeout: float | None = None
    max_workers: int = 1
    max_pool_restarts: int | None = None


class CheckpointSink:
    """Routes completed work from any backend into one checkpoint.

    Wraps the :class:`~repro.engine.checkpoint.CheckpointWriter` with
    the grid's per-index cell digests and encoding dedup, so backends
    record results without knowing checkpoint record formats.  The
    inline executor records cell-by-cell (crash leaves every finished
    cell behind); the pool records chunk-by-chunk as the parent sees
    each chunk's output; the queue records its merged worker shards.
    """

    def __init__(
        self, writer: "CheckpointWriter", digests: list[str]
    ) -> None:
        self.writer = writer
        self.digests = digests
        self._recorded_encodings: set = set()

    def record_cell(
        self,
        index: int,
        cell: SweepCell,
        result: CharacterizationResult,
        wall_s: float = 0.0,
        cache_key: str = "",
    ) -> None:
        """Append one completed cell."""
        self.writer.record_result(
            self.digests[index],
            cell,
            result,
            wall_s=wall_s,
            cache_key=cache_key,
        )

    def record_encoding(
        self, key: tuple[str, str], summary: EncodeSummary
    ) -> None:
        """Append one encode summary, deduplicated per (workload, fmt)."""
        if key not in self._recorded_encodings:
            self._recorded_encodings.add(key)
            self.writer.record_encoding(summary)

    def record_failures(self, failures: list[FailedCell]) -> None:
        """Append failed cells, as the queue's worker shards do."""
        for failure in failures:
            self.writer.record_failure(self.digests[failure.index], failure)

    def record_chunk(self, chunk: _Chunk, output: _ChunkOutput) -> None:
        """Append one completed chunk's results, encodings, failures."""
        results, chunk_encodings, _, chunk_spans, _, failures = output
        spans_by_index = {
            span.index: span for span in (chunk_spans or ())
        }
        by_index = dict(chunk)
        for index, result in results:
            span = spans_by_index.get(index)
            self.record_cell(
                index,
                by_index[index],
                result,
                wall_s=span.wall_s if span is not None else 0.0,
                cache_key=span.cache_key if span is not None else "",
            )
        for key, summary in chunk_encodings.items():
            self.record_encoding(key, summary)
        self.record_failures(failures)


class SweepExecutor:
    """The backend contract: run chunks, return outputs + recovery info.

    ``run_chunks`` returns ``(outputs, failures, counters)``:

    * ``outputs`` — one :data:`_ChunkOutput` per completed dispatch
      unit, in a deterministic order (the runner merges them keyed by
      grid index, so backends may split or coalesce chunks freely);
    * ``failures`` — cells lost to infrastructure (worker crashes,
      exhausted budgets) rather than in-cell exceptions;
    * ``counters`` — backend recovery counters merged into run
      telemetry (``sweep.pool_restarts``, ``sweep.queue.reclaims``,
      ...).
    """

    def __init__(self, settings: ExecutionSettings) -> None:
        self.settings = settings

    def run_chunks(
        self,
        chunks: list[_Chunk],
        sink: CheckpointSink | None = None,
    ) -> tuple[list[_ChunkOutput], list[FailedCell], dict[str, int]]:
        raise NotImplementedError


class InlineExecutor(SweepExecutor):
    """Runs every chunk in-process with one cache shared across all.

    The reference backend: maximal caching, deterministic, no pickling
    — and the degradation target when parallel backends stop trusting
    their workers.  Cache stats are reported once (on the last chunk's
    output) because the cache is shared.
    """

    def run_chunks(
        self,
        chunks: list[_Chunk],
        sink: CheckpointSink | None = None,
    ) -> tuple[list[_ChunkOutput], list[FailedCell], dict[str, int]]:
        settings = self.settings
        cache = ContentKeyedCache()
        on_cell = None
        if sink is not None:
            cells_by_index = {
                index: cell
                for chunk in chunks
                for index, cell in chunk
            }

            def on_cell(index, cell, result, wall_s, matrix_key):
                sink.record_cell(
                    index,
                    cells_by_index[index],
                    result,
                    wall_s=wall_s,
                    cache_key=matrix_key,
                )

        outputs: list[_ChunkOutput] = []
        for chunk in chunks:
            output = _run_chunk(
                chunk,
                settings.encode,
                cache,
                telemetry=settings.telemetry,
                error_policy=settings.error_policy,
                faults=settings.faults,
                in_worker=False,
                on_cell=on_cell,
            )
            results, encodings, _, spans, metrics, failures = output
            outputs.append(
                (results, encodings, CacheStats(), spans, metrics, failures)
            )
            if sink is not None:
                for key, summary in encodings.items():
                    sink.record_encoding(key, summary)
                sink.record_failures(failures)
        # the cache is shared, so its stats are reported once
        if outputs:
            last = outputs[-1]
            outputs[-1] = (
                last[0], last[1], cache.stats, last[3], last[4], last[5]
            )
        return outputs, [], {}


class PoolExecutor(SweepExecutor):
    """Dispatches chunks to a ``ProcessPoolExecutor`` with recovery.

    A worker crash (``BrokenProcessPool``) or an exhausted per-chunk
    wall-clock budget triggers the recovery ladder: bounded retries,
    then bisection to fence the poisonous cell down to a single-cell
    failure, one-chunk-per-pool isolation rounds so bystander chunks
    don't burn retry budget, and in-process degradation once the pool
    has broken more times than the restart budget allows.
    """

    def restart_budget(self, chunks: list[_Chunk]) -> int:
        """Pool rebuilds tolerated before degrading in-process."""
        settings = self.settings
        if settings.max_pool_restarts is not None:
            return settings.max_pool_restarts
        biggest = max(len(chunk) for chunk in chunks)
        # each (retry budget + 1) dispatch cascade can recur once per
        # bisection level of the largest chunk
        depth = max(1, biggest.bit_length())
        return (settings.max_retries + 1) * (depth + 1)

    def run_chunks(
        self,
        chunks: list[_Chunk],
        sink: CheckpointSink | None = None,
    ) -> tuple[list[_ChunkOutput], list[FailedCell], dict[str, int]]:
        settings = self.settings
        pending: list[tuple[_Chunk, int]] = [
            (chunk, 0) for chunk in chunks
        ]
        outputs: list[_ChunkOutput] = []
        crash_failures: list[FailedCell] = []
        counters: dict[str, int] = {}
        restarts = 0
        max_restarts = self.restart_budget(chunks)
        degraded = False

        def bump(name: str, count: int = 1) -> None:
            counters[name] = counters.get(name, 0) + count

        def abandon(
            chunk: _Chunk, attempt: int, error_type: str, message: str
        ) -> None:
            """Retry, bisect, or give up on one lost chunk.

            Only called once dispatch is down to one chunk per pool
            (isolation rounds), so a loss is attributable to the chunk
            itself rather than to a pool-mate's crash.
            """
            next_attempt = attempt + 1
            if next_attempt <= settings.max_retries:
                bump("sweep.chunk_retries")
                pending.append((chunk, next_attempt))
                return
            if len(chunk) > 1:
                bump("sweep.chunk_bisections")
                mid = len(chunk) // 2
                pending.append((chunk[:mid], 0))
                pending.append((chunk[mid:], 0))
                return
            index, cell = chunk[0]
            digest = workload_recipe_digest(cell.workload)
            if settings.error_policy == "fail_fast":
                raise SweepCellError(
                    cell.coords,
                    f"{error_type}: {message}",
                    recipe_digest=digest,
                    attempts=next_attempt,
                )
            crash_failures.append(
                FailedCell(
                    index=index,
                    workload=cell.workload_name,
                    format_name=cell.format_name,
                    partition_size=cell.partition_size,
                    recipe_digest=digest,
                    error_type=error_type,
                    message=message,
                    attempts=next_attempt,
                )
            )

        # After the first pool break, dispatch one chunk per pool
        # ("isolation rounds"): inside a shared pool one crashing cell
        # takes every co-scheduled chunk down with it, so retry budgets
        # would be burned by innocent-bystander losses and bisection
        # could never exonerate the healthy half.
        isolating = False
        while pending:
            if degraded:
                # the pool cannot be trusted; finish in-process, where
                # an injected crash raises WorkerCrashError instead of
                # killing anything
                batch, pending = pending, []
                for chunk, attempt in batch:
                    output = _run_chunk(
                        chunk,
                        settings.encode,
                        telemetry=settings.telemetry,
                        error_policy=settings.error_policy,
                        faults=settings.faults,
                        attempt=attempt,
                        in_worker=False,
                    )
                    outputs.append(output)
                    if sink is not None:
                        sink.record_chunk(chunk, output)
                continue

            if isolating:
                batch = [pending.pop(0)]
            else:
                batch, pending = pending, []
            workers = min(settings.max_workers, len(batch))
            lost: list[tuple[_Chunk, int, str, str]] = []
            timed_out = False
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                futures = [
                    (
                        pool.submit(
                            _run_chunk,
                            chunk,
                            settings.encode,
                            telemetry=settings.telemetry,
                            error_policy=settings.error_policy,
                            faults=settings.faults,
                            attempt=attempt,
                            in_worker=True,
                        ),
                        chunk,
                        attempt,
                    )
                    for chunk, attempt in batch
                ]
                # collect in submission order for deterministic merging
                for future, chunk, attempt in futures:
                    try:
                        output = future.result(
                            timeout=settings.chunk_timeout
                        )
                    except FuturesTimeoutError:
                        timed_out = True
                        future.cancel()
                        lost.append((
                            chunk,
                            attempt,
                            "ChunkTimeout",
                            f"chunk of {len(chunk)} cell(s) exceeded "
                            f"the {settings.chunk_timeout}s wall budget",
                        ))
                    except BrokenProcessPool as error:
                        lost.append((
                            chunk,
                            attempt,
                            "WorkerCrashError",
                            str(error)
                            or "worker process terminated abruptly",
                        ))
                    else:
                        outputs.append(output)
                        if sink is not None:
                            sink.record_chunk(chunk, output)
                if timed_out:
                    # the budget-blowing workers are still running;
                    # reclaim them before abandoning the pool
                    for process in list(
                        getattr(pool, "_processes", {}).values()
                    ):
                        try:
                            process.terminate()
                        except Exception:  # noqa: BLE001 — best effort
                            pass
            finally:
                pool.shutdown(wait=not timed_out, cancel_futures=True)

            if lost:
                restarts += 1
                counters["sweep.pool_restarts"] = restarts
                if restarts > max_restarts:
                    degraded = True
                    counters["sweep.degraded"] = 1
                if isolating:
                    for item in lost:
                        abandon(*item)
                else:
                    # a shared-pool loss is not attributable — any
                    # pool-mate may have crashed the pool — so
                    # re-enqueue verbatim (no retry budget burned) and
                    # switch to one-chunk-per-pool isolation rounds
                    isolating = True
                    for chunk, attempt, _error_type, _message in lost:
                        pending.append((chunk, attempt))
        if sink is not None:
            sink.record_failures(crash_failures)
        return outputs, crash_failures, counters


def make_executor(
    settings: ExecutionSettings,
    backend: str = "auto",
    n_chunks: int = 1,
    queue_options=None,
) -> SweepExecutor:
    """Build the backend for one run.

    ``"auto"`` preserves the historical dispatch rule: in-process when
    ``max_workers == 1`` or there is a single chunk (nothing to
    overlap), the process pool otherwise.  ``"queue"`` imports the
    distributed module lazily and accepts a
    :class:`~repro.engine.distributed.QueueOptions`.
    """
    if backend not in EXECUTOR_BACKENDS:
        raise SweepConfigError(
            f"backend must be one of {', '.join(EXECUTOR_BACKENDS)}; "
            f"got {backend!r}"
        )
    if backend == "queue":
        from .distributed import QueueExecutor, QueueOptions

        return QueueExecutor(settings, queue_options or QueueOptions())
    if queue_options is not None:
        raise SweepConfigError(
            f"queue options require backend='queue', got {backend!r}"
        )
    if backend == "pool" or (
        backend == "auto" and settings.max_workers > 1 and n_chunks > 1
    ):
        return PoolExecutor(settings)
    return InlineExecutor(settings)
