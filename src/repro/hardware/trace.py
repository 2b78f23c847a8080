"""Cycle-accurate event trace of the streaming pipeline.

Section 4.2: "An imbalance streaming leads to idle computation or
pauses in data transfer", and Section 6.3 reads throughput as "the
bubbles in the streaming pipeline".  This module schedules every
partition through the three stages (memory-read → compute →
memory-write) with a double-buffered input and reports exactly where
those bubbles and pauses fall:

* the **memory stage** prefetches partition ``i+1`` while compute works
  on ``i``, but must wait for a free input buffer;
* the **compute stage** starts a partition once its transfer finished
  and the previous compute drained;
* the **write stage** streams each partial output vector back as soon
  as its compute finishes and the write port is free.

The aggregate pipeline model in :mod:`repro.hardware.pipeline` uses
the closed form ``sum(max(mem, comp))``; the trace is its
event-resolved counterpart and agrees with it up to the (bounded)
write-drain term — a relationship the test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError
from ..observability import Histogram, MetricsRegistry, log2_edges
from ..partition import PartitionProfile, ProfileTable
from .config import HardwareConfig
from .decompressors import DecompressorModel
from .pipeline import StageCosts, StreamingPipeline

__all__ = [
    "StageInterval",
    "PipelineTrace",
    "trace_pipeline",
    "trace_costs",
    "TRACE_STAGES",
]

#: Stage names used by the trace's per-stage accessors.
TRACE_STAGES = ("memory", "compute", "write")


@dataclass(frozen=True)
class StageInterval:
    """One stage's busy interval for one partition."""

    partition_index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise SimulationError(
                f"invalid interval [{self.start}, {self.stop})"
            )

    @property
    def duration(self) -> int:
        return self.stop - self.start


def _idle_within(intervals: Sequence[StageInterval], horizon: int) -> int:
    """Idle cycles of one stage between its first start and ``horizon``."""
    if not intervals:
        return 0
    busy = sum(interval.duration for interval in intervals)
    return (horizon - intervals[0].start) - busy


@dataclass(frozen=True)
class PipelineTrace:
    """Full stage schedule of one matrix through one format."""

    format_name: str
    partition_size: int
    memory: tuple[StageInterval, ...]
    compute: tuple[StageInterval, ...]
    write: tuple[StageInterval, ...]

    @property
    def n_partitions(self) -> int:
        return len(self.memory)

    @property
    def total_cycles(self) -> int:
        """First fetch to last write-back."""
        if not self.write:
            return 0
        return self.write[-1].stop

    # ------------------------------------------------------------------
    # Bubble / pause analysis (Section 4.2's imbalance symptoms)
    # ------------------------------------------------------------------
    @property
    def compute_idle_cycles(self) -> int:
        """Bubbles: cycles the compute stage waits on data."""
        return _idle_within(
            self.compute, self.compute[-1].stop if self.compute else 0
        )

    @property
    def memory_stall_cycles(self) -> int:
        """Pauses: cycles the memory stage waits on a free buffer."""
        return _idle_within(
            self.memory, self.memory[-1].stop if self.memory else 0
        )

    @property
    def compute_occupancy(self) -> float:
        """Busy fraction of the compute stage over the whole run."""
        if not self.compute or self.total_cycles == 0:
            return 0.0
        busy = sum(interval.duration for interval in self.compute)
        return busy / self.total_cycles

    @property
    def memory_occupancy(self) -> float:
        """Busy fraction of the memory stage over the whole run."""
        if not self.memory or self.total_cycles == 0:
            return 0.0
        busy = sum(interval.duration for interval in self.memory)
        return busy / self.total_cycles

    @property
    def write_idle_cycles(self) -> int:
        """Cycles the write port sits idle between its first and last use."""
        return _idle_within(
            self.write, self.write[-1].stop if self.write else 0
        )

    def bound(self) -> str:
        """Which stage dominates: ``"memory"`` or ``"compute"``."""
        if self.memory_occupancy >= self.compute_occupancy:
            return "memory"
        return "compute"

    # ------------------------------------------------------------------
    # Observability: per-stage series, histograms, metric export
    # ------------------------------------------------------------------
    def stage_intervals(self) -> dict[str, tuple[StageInterval, ...]]:
        return {
            "memory": self.memory,
            "compute": self.compute,
            "write": self.write,
        }

    def stage_histograms(
        self, edges: Sequence[float] | None = None
    ) -> dict[str, Histogram]:
        """Per-stage busy-duration histograms over all partitions.

        The counterpart of
        :meth:`repro.hardware.pipeline.PipelineResult.stage_histograms`
        for the event-resolved schedule; with no explicit ``edges`` the
        bins are shared power-of-two cycle buckets.
        """
        stages = self.stage_intervals()
        if edges is None:
            upper = max(
                (
                    max(i.duration for i in intervals)
                    for intervals in stages.values()
                    if intervals
                ),
                default=0,
            )
            edges = log2_edges(upper)
        return {
            stage: Histogram.of(
                (i.duration for i in intervals), edges
            )
            for stage, intervals in stages.items()
        }

    def bubble_accounting(self) -> dict[str, int]:
        """Section 4.2's imbalance symptoms as one flat counter dict.

        Busy cycles per stage plus the idle terms: ``compute_idle``
        (bubbles), ``memory_stall`` (pauses) and ``write_idle``.
        """
        accounting = {
            "total_cycles": self.total_cycles,
            "compute_idle_cycles": self.compute_idle_cycles,
            "memory_stall_cycles": self.memory_stall_cycles,
            "write_idle_cycles": self.write_idle_cycles,
        }
        for stage, intervals in self.stage_intervals().items():
            accounting[f"{stage}_busy_cycles"] = sum(
                interval.duration for interval in intervals
            )
        return accounting

    def record_metrics(
        self, metrics: MetricsRegistry, prefix: str = "trace"
    ) -> None:
        """Export the bubble accounting as additive counters."""
        metrics.incr(f"{prefix}.partitions", self.n_partitions)
        for name, value in self.bubble_accounting().items():
            metrics.incr(f"{prefix}.{name}", value)


def trace_pipeline(
    config: HardwareConfig,
    decompressor: DecompressorModel | str,
    profiles: ProfileTable | Sequence[PartitionProfile],
) -> PipelineTrace:
    """Schedule every partition through the three pipeline stages.

    The per-partition stage durations are
    :meth:`~repro.hardware.pipeline.StreamingPipeline.stage_costs`
    (one array pass over the whole matrix); only the inherently
    sequential event scheduling in :func:`trace_costs` is a Python loop.
    """
    return trace_costs(
        StreamingPipeline(config, decompressor).stage_costs(profiles)
    )


def trace_costs(
    costs: StageCosts, order: Sequence[int] | None = None
) -> PipelineTrace:
    """Event-schedule precomputed stage costs.

    Partitions stream in ``order`` (indices into ``costs``; the
    default is their own order), and each interval carries its
    partition's index in ``costs``.
    """
    indices = range(costs.n_partitions) if order is None else order
    mem_cycles = costs.memory.tolist()
    comp_cycles = costs.compute.total_cycles.tolist()
    write_cycles = costs.write_back_cycles

    memory: list[StageInterval] = []
    compute: list[StageInterval] = []
    write: list[StageInterval] = []
    mem_free_at = 0  # memory port availability
    compute_free_at = 0
    write_free_at = 0
    # double-buffered input: fetching the i-th streamed partition
    # requires compute on the (i-2)-th to have drained its buffer.
    compute_stop_history: list[int] = []

    for position, index in enumerate(indices):
        buffer_free_at = (
            compute_stop_history[position - 2] if position >= 2 else 0
        )
        mem_start = max(mem_free_at, buffer_free_at)
        mem_stop = mem_start + mem_cycles[index]
        memory.append(StageInterval(index, mem_start, mem_stop))
        mem_free_at = mem_stop

        comp_start = max(mem_stop, compute_free_at)
        comp_stop = comp_start + comp_cycles[index]
        compute.append(StageInterval(index, comp_start, comp_stop))
        compute_free_at = comp_stop
        compute_stop_history.append(comp_stop)

        write_start = max(comp_stop, write_free_at)
        write_stop = write_start + write_cycles
        write.append(StageInterval(index, write_start, write_stop))
        write_free_at = write_stop

    return PipelineTrace(
        format_name=costs.format_name,
        partition_size=costs.partition_size,
        memory=tuple(memory),
        compute=tuple(compute),
        write=tuple(write),
    )
