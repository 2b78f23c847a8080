"""Sweep grids: the experiment cube as an explicit list of cells.

Every figure in the paper is a slice of the same cube — (workload,
format, partition size) at one hardware configuration.  A
:class:`SweepCell` names one cube cell; :func:`build_grid` expands the
cross product in deterministic workload-major order, which is also the
order the runner returns results in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..formats.base import SizeBreakdown
from ..formats.registry import PAPER_FORMATS
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..partition import PARTITION_SIZES
from ..workloads.registry import Workload
from .cache import CacheStats
from .specs import WorkloadSpec
from .telemetry import RunTelemetry
from ..core.results import CharacterizationResult

__all__ = [
    "SweepCell",
    "EncodeSummary",
    "FailedCell",
    "SweepOutcome",
    "build_grid",
]


@dataclass(frozen=True)
class SweepCell:
    """One (workload, format, partition size) cell of the cube.

    ``workload`` is either a materialized :class:`Workload` or a lazy
    :class:`WorkloadSpec` (materialized inside the worker, through its
    matrix cache).  ``config`` is the *base* hardware configuration;
    the runner applies ``partition_size`` on top of it, so one grid can
    mix partition sizes without pre-building a config per cell.
    """

    workload: Workload | WorkloadSpec
    format_name: str
    partition_size: int
    config: HardwareConfig = DEFAULT_CONFIG

    @property
    def workload_name(self) -> str:
        return self.workload.name

    @property
    def coords(self) -> tuple[str, str, int]:
        """The (workload, format, partition size) coordinate triple."""
        return (self.workload.name, self.format_name, self.partition_size)

    @property
    def resolved_config(self) -> HardwareConfig:
        """The base config with this cell's partition size applied."""
        return self.config.with_partition_size(self.partition_size)


@dataclass(frozen=True)
class EncodeSummary:
    """Functional, whole-matrix accounting of one (workload, format).

    Produced by the runner's optional encode stage from a real
    :class:`~repro.formats.base.EncodedMatrix` rather than the profile
    model, so it reflects exact array sizes.
    """

    workload: str
    format_name: str
    nnz: int
    size: SizeBreakdown
    compression_ratio: float


@dataclass(frozen=True)
class FailedCell:
    """Structured record of one cell that failed to produce a result.

    Produced by the runner under ``error_policy="collect"`` — from an
    exception inside the cell, a worker-process crash
    (``error_type="WorkerCrashError"``) or an exhausted chunk
    wall-clock budget (``error_type="ChunkTimeout"``).  The formatted
    traceback is captured *inside* the worker, so it survives the
    pickle across the process boundary that would otherwise strip the
    exception chain.  The traceback names source paths and line
    numbers, so it is diagnostic only: it takes no part in ``==`` or
    in checkpoint digests.
    """

    index: int
    workload: str
    format_name: str
    partition_size: int
    recipe_digest: str
    error_type: str
    message: str
    traceback_text: str = field(default="", compare=False)
    attempts: int = 1

    @property
    def coords(self) -> tuple[str, str, int]:
        return (self.workload, self.format_name, self.partition_size)

    def __repr__(self) -> str:
        return (
            f"FailedCell({self.workload!r}, {self.format_name!r}, "
            f"p={self.partition_size}, {self.error_type}: "
            f"{self.message})"
        )


@dataclass
class SweepOutcome:
    """Everything one sweep run produced.

    ``results`` is in grid (cell) order regardless of worker count or
    completion order; under ``error_policy="collect"`` failed cells
    are *absent* from ``results`` and listed in ``failures`` instead
    (also in grid order).  ``stats`` aggregates the cache counters of
    every worker; ``encodings`` is populated only when the runner ran
    with ``encode=True``; ``telemetry`` (per-cell spans, merged worker
    metrics, workload recipe digests) only when it ran with
    ``telemetry=True``.
    """

    results: list[CharacterizationResult]
    stats: CacheStats
    encodings: Mapping[tuple[str, str], EncodeSummary] = field(
        default_factory=dict
    )
    telemetry: "RunTelemetry | None" = None
    failures: list[FailedCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True iff every grid cell produced a result."""
        return not self.failures

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def failure(
        self, workload: str, format_name: str, partition_size: int
    ) -> FailedCell:
        """Look up one failed cell by its coordinates."""
        for failed in self.failures:
            if failed.coords == (workload, format_name, partition_size):
                return failed
        raise KeyError((workload, format_name, partition_size))

    def raise_if_failed(self) -> "SweepOutcome":
        """Raise a :class:`SweepCellError` for the first failure.

        Lets a caller run with ``error_policy="collect"`` (keeping
        every healthy result) and still get fail-fast semantics at the
        point where completeness matters.
        """
        if self.failures:
            from ..errors import SweepCellError

            first = self.failures[0]
            raise SweepCellError(
                first.coords,
                f"{first.error_type}: {first.message} "
                f"(+{len(self.failures) - 1} more failed cells)",
                traceback_text=first.traceback_text,
                recipe_digest=first.recipe_digest,
                attempts=first.attempts,
            )
        return self

    def by_coords(
        self,
    ) -> dict[tuple[str, str, int], CharacterizationResult]:
        """Index the results by (workload, format, partition size)."""
        return {
            (r.workload, r.format_name, r.partition_size): r
            for r in self.results
        }

    def result(
        self, workload: str, format_name: str, partition_size: int
    ) -> CharacterizationResult:
        """Look up one cell's result by its coordinates."""
        return self.by_coords()[(workload, format_name, partition_size)]

    def write_manifest(
        self, path: str | Path, extra: Mapping | None = None
    ) -> Path:
        """Write this run's JSON-lines manifest (telemetry required).

        See :mod:`repro.observability.manifest` for the schema and
        ``python -m repro stats`` for the reader.
        """
        from ..observability.manifest import write_sweep_manifest

        return write_sweep_manifest(self, path, extra=extra)


def build_grid(
    workloads: Iterable[Workload | WorkloadSpec],
    format_names: Sequence[str] = PAPER_FORMATS,
    partition_sizes: Sequence[int] = PARTITION_SIZES,
    base_config: HardwareConfig = DEFAULT_CONFIG,
) -> list[SweepCell]:
    """Expand the experiment cube in workload-major deterministic order.

    Cells sharing a workload are adjacent, which is what lets the
    runner chunk them onto one worker and share the profile and encode
    caches between them.
    """
    return [
        SweepCell(
            workload=workload,
            format_name=name,
            partition_size=p,
            config=base_config,
        )
        for workload in workloads
        for p in partition_sizes
        for name in format_names
    ]
