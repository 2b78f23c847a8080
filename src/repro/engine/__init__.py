"""Sweep engine: cached, parallel execution of experiment grids.

Every paper figure is a slice of the (workload x format x partition
size) cube.  This package runs that cube as an explicit grid of cells
through a :class:`SweepRunner` that deduplicates shared work with a
content-keyed cache and fans chunks out over worker processes::

    from repro.engine import SweepRunner, WorkloadSpec

    specs = [WorkloadSpec.random(1024, d) for d in (0.001, 0.01, 0.1)]
    runner = SweepRunner(max_workers=4, encode=True, telemetry=True)
    outcome = runner.run_grid(specs)
    outcome.result("rand-0.01", "csr", 16).sigma
    outcome.stats          # cache hit/miss counters per kind
    outcome.encodings      # exact whole-matrix transfer accounting
    outcome.telemetry      # per-cell spans + merged worker metrics
    outcome.write_manifest("run.jsonl")   # -> python -m repro stats

The runner is fault tolerant: ``error_policy="collect"`` (default)
isolates per-cell failures into :class:`FailedCell` records on
``outcome.failures``, worker crashes are retried / bisected /
degraded to the in-process path, ``checkpoint=``/``resume=`` give
crash recovery with bit-identical replay, and
:class:`~repro.engine.faults.FaultPlan` injects deterministic faults
for testing all of it.
"""

from .cache import CacheStats, ContentKeyedCache, matrix_content_key
from .checkpoint import (
    CheckpointState,
    CheckpointWriter,
    cell_digest,
    checkpoint_digest,
    checkpoint_summary,
    compact_checkpoint,
    load_checkpoint,
)
from .executors import (
    EXECUTOR_BACKENDS,
    ExecutionSettings,
    InlineExecutor,
    PoolExecutor,
    SweepExecutor,
    make_executor,
)
from .faults import FaultPlan, FaultSpec, InjectedFault
from .grid import (
    EncodeSummary,
    FailedCell,
    SweepCell,
    SweepOutcome,
    build_grid,
)
from .retry import RetryPolicy, call_with_retry
from .runner import ERROR_POLICIES, SweepRunner, run_sweep
from .singleflight import SingleFlight, SingleFlightStats
from .specs import StreamedMatrixSpec, WorkloadSpec
from .telemetry import CellTelemetry, RunTelemetry, workload_recipe_digest

__all__ = [
    "CacheStats",
    "ContentKeyedCache",
    "matrix_content_key",
    "RetryPolicy",
    "call_with_retry",
    "CheckpointState",
    "CheckpointWriter",
    "cell_digest",
    "checkpoint_digest",
    "checkpoint_summary",
    "compact_checkpoint",
    "load_checkpoint",
    "EXECUTOR_BACKENDS",
    "ExecutionSettings",
    "SweepExecutor",
    "InlineExecutor",
    "PoolExecutor",
    "make_executor",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "EncodeSummary",
    "FailedCell",
    "SweepCell",
    "SweepOutcome",
    "build_grid",
    "ERROR_POLICIES",
    "SweepRunner",
    "run_sweep",
    "SingleFlight",
    "SingleFlightStats",
    "StreamedMatrixSpec",
    "WorkloadSpec",
    "CellTelemetry",
    "RunTelemetry",
    "workload_recipe_digest",
]
