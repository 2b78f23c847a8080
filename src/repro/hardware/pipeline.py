"""The three-stage streaming pipeline (Figure 2, stage 1).

Partitions flow through memory-read → compute → memory-write.  Because
the stages overlap across partitions, the steady-state cost of each
partition is the *maximum* of its memory latency and compute latency
(Section 6.2: "the sum of their maximum for each partition defines the
total latency"); the ends of the pipeline add one fill and one drain
term.

:meth:`StreamingPipeline.stage_costs` is the one place the batch path
computes a partition's stage costs: its transfer sizes, its
memory-stage cycles (AXI transfer plus the CRC stage when the
configuration checks integrity), its compute cycles and the write-back
term, one :class:`ProfileTable` in and a handful of array operations
out.  :meth:`StreamingPipeline.run` totals those costs into a
:class:`PipelineResult`; the multi-lane model, the partition-order
scheduler and the event trace read the same :class:`StageCosts`.
:meth:`StreamingPipeline.run_scalar` keeps the original per-profile
loop as the differential/bench reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..errors import SimulationError
from ..formats.base import SizeBreakdown
from ..observability import Histogram, MetricsRegistry, log2_edges
from ..partition import PartitionProfile, ProfileTable
from .axi import AxiStreamModel
from .config import HardwareConfig
from .decompressors import (
    ComputeColumns,
    DecompressorModel,
    SizeColumns,
    get_decompressor,
)
from .integrity import IntegrityCheckModel

__all__ = [
    "PartitionTiming",
    "PipelineResult",
    "StageCosts",
    "StreamingPipeline",
    "resolve_profile_table",
    "PIPELINE_STAGES",
]


def resolve_profile_table(
    config: HardwareConfig,
    profiles: ProfileTable | Sequence[PartitionProfile],
) -> ProfileTable | None:
    """Partition-size-checked :class:`ProfileTable` from either input.

    Returns ``None`` for an empty sequence.  For a table the check is
    one comparison; for a sequence the error names the first tile
    whose partition size disagrees with the configuration.
    """
    p = config.partition_size
    if isinstance(profiles, ProfileTable):
        if profiles.p != p:
            raise SimulationError(
                f"profile table partition size {profiles.p} != "
                f"configured {p}"
            )
        return profiles
    profiles = tuple(profiles)
    if not profiles:
        return None
    sizes = np.fromiter(
        (profile.p for profile in profiles),
        dtype=np.int64,
        count=len(profiles),
    )
    mismatched = np.nonzero(sizes != p)[0]
    if mismatched.size:
        index = int(mismatched[0])
        raise SimulationError(
            f"profile {index} has partition size {int(sizes[index])} "
            f"!= configured {p}"
        )
    return ProfileTable.from_profiles(profiles)

#: Per-partition cycle series exposed by :meth:`PipelineResult.stage_cycles`.
PIPELINE_STAGES = ("memory", "decompress", "dot")


@dataclass(frozen=True)
class PartitionTiming:
    """Latency breakdown of one non-zero partition."""

    memory_cycles: int
    decompress_cycles: int
    dot_cycles: int
    size: SizeBreakdown

    @property
    def compute_cycles(self) -> int:
        return self.decompress_cycles + self.dot_cycles

    @property
    def balance_ratio(self) -> float:
        """Memory latency over compute latency (1 = perfectly balanced)."""
        if self.compute_cycles == 0:
            return float("inf")
        return self.memory_cycles / self.compute_cycles

    @property
    def steady_state_cycles(self) -> int:
        """This partition's contribution to the pipelined total."""
        return max(self.memory_cycles, self.compute_cycles)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Aggregate timing of a whole matrix streamed partition by partition.

    The per-partition series are stored as columns — the memory-stage
    cycles plus the decompressor's :class:`ComputeColumns` and
    :class:`SizeColumns` — so every aggregate below is a single numpy
    reduction.  :attr:`timings` materializes the classic tuple of
    :class:`PartitionTiming` objects on first access only.
    """

    format_name: str
    partition_size: int
    memory_per_partition: np.ndarray
    compute: ComputeColumns
    sizes: SizeColumns
    fill_cycles: int
    drain_cycles: int

    def __post_init__(self) -> None:
        memory = np.ascontiguousarray(
            self.memory_per_partition, dtype=np.int64
        )
        object.__setattr__(self, "memory_per_partition", memory)
        n = memory.size
        for column in (
            self.compute.decompress_cycles,
            self.compute.dot_cycles,
            self.sizes.useful_bytes,
            self.sizes.data_bytes,
            self.sizes.metadata_bytes,
        ):
            if column.shape != (n,):
                raise SimulationError(
                    f"pipeline column shape {column.shape} != ({n},)"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PipelineResult):
            return NotImplemented
        return (
            self.format_name == other.format_name
            and self.partition_size == other.partition_size
            and self.fill_cycles == other.fill_cycles
            and self.drain_cycles == other.drain_cycles
            and np.array_equal(
                self.memory_per_partition, other.memory_per_partition
            )
            and self.compute == other.compute
            and self.sizes == other.sizes
        )

    __hash__ = object.__hash__

    @property
    def n_partitions(self) -> int:
        return self.memory_per_partition.size

    @cached_property
    def timings(self) -> tuple[PartitionTiming, ...]:
        """Per-partition object view, materialized once and cached."""
        return tuple(
            PartitionTiming(
                memory_cycles=int(self.memory_per_partition[i]),
                decompress_cycles=int(self.compute.decompress_cycles[i]),
                dot_cycles=int(self.compute.dot_cycles[i]),
                size=self.sizes.breakdown(i),
            )
            for i in range(self.n_partitions)
        )

    @classmethod
    def from_timings(
        cls,
        format_name: str,
        partition_size: int,
        timings: Iterable[PartitionTiming],
        fill_cycles: int,
        drain_cycles: int,
    ) -> "PipelineResult":
        """Columnar result from already-materialized timing objects."""
        timings = tuple(timings)
        n = len(timings)
        columns = np.empty((6, n), dtype=np.int64)
        for i, t in enumerate(timings):
            columns[0, i] = t.memory_cycles
            columns[1, i] = t.decompress_cycles
            columns[2, i] = t.dot_cycles
            columns[3, i] = t.size.useful_bytes
            columns[4, i] = t.size.data_bytes
            columns[5, i] = t.size.metadata_bytes
        result = cls(
            format_name=format_name,
            partition_size=partition_size,
            memory_per_partition=columns[0],
            compute=ComputeColumns(
                decompress_cycles=columns[1], dot_cycles=columns[2]
            ),
            sizes=SizeColumns(
                useful_bytes=columns[3],
                data_bytes=columns[4],
                metadata_bytes=columns[5],
            ),
            fill_cycles=fill_cycles,
            drain_cycles=drain_cycles,
        )
        result.__dict__["timings"] = timings
        return result

    @property
    def total_cycles(self) -> int:
        steady = int(
            np.maximum(
                self.memory_per_partition, self.compute.total_cycles
            ).sum()
        )
        return steady + self.fill_cycles + self.drain_cycles

    @property
    def memory_cycles(self) -> int:
        return int(self.memory_per_partition.sum())

    @property
    def compute_cycles(self) -> int:
        return self.decompress_cycles + self.dot_cycles

    @property
    def decompress_cycles(self) -> int:
        return int(self.compute.decompress_cycles.sum())

    @property
    def dot_cycles(self) -> int:
        return int(self.compute.dot_cycles.sum())

    @cached_property
    def transferred(self) -> SizeBreakdown:
        return self.sizes.totals()

    # ------------------------------------------------------------------
    # Observability: per-stage series, histograms, metric export
    # ------------------------------------------------------------------
    def stage_cycles(self) -> dict[str, np.ndarray]:
        """Per-partition cycle counts of each pipeline stage."""
        return {
            "memory": self.memory_per_partition,
            "decompress": self.compute.decompress_cycles,
            "dot": self.compute.dot_cycles,
        }

    def stage_histograms(
        self, edges: Sequence[float] | None = None
    ) -> dict[str, Histogram]:
        """Per-stage cycle histograms over the non-zero partitions.

        With no explicit ``edges`` the bins are power-of-two cycle
        buckets covering the largest observed count, shared by all
        three stages so the histograms compare (and merge) directly.
        """
        columns = self.stage_cycles()
        if edges is None:
            upper = max(
                (int(c.max()) for c in columns.values() if c.size),
                default=0,
            )
            edges = log2_edges(upper)
        return {
            stage: Histogram.of(cycles, edges)
            for stage, cycles in columns.items()
        }

    def record_metrics(
        self, metrics: MetricsRegistry, prefix: str = "pipeline"
    ) -> None:
        """Export this result's cycle accounting as counters.

        Counter names are ``{prefix}.{stage}_cycles`` plus the fill /
        drain terms and the partition count — all additive, so
        recording many results into one registry yields fleet totals.
        """
        metrics.incr(f"{prefix}.partitions", self.n_partitions)
        metrics.incr(f"{prefix}.memory_cycles", self.memory_cycles)
        metrics.incr(
            f"{prefix}.decompress_cycles", self.decompress_cycles
        )
        metrics.incr(f"{prefix}.dot_cycles", self.dot_cycles)
        metrics.incr(f"{prefix}.fill_cycles", self.fill_cycles)
        metrics.incr(f"{prefix}.drain_cycles", self.drain_cycles)
        metrics.incr(f"{prefix}.total_cycles", self.total_cycles)

    @property
    def mean_balance_ratio(self) -> float:
        """Average memory/compute ratio over the non-zero partitions."""
        if not self.n_partitions:
            return 1.0
        compute = self.compute.total_cycles
        ratios = np.divide(
            self.memory_per_partition.astype(np.float64),
            compute,
            out=np.full(compute.size, np.inf),
            where=compute != 0,
        )
        return float(ratios.sum() / ratios.size)


@dataclass(frozen=True, eq=False)
class StageCosts:
    """Per-partition stage costs of one format over one matrix.

    ``memory`` is each partition's memory-read stage (AXI transfer of
    ``sizes.total_bytes``, plus the CRC stage when the configuration
    checks integrity); ``write_back_cycles`` is the memory-write stage
    of any one partition.  Built only by
    :meth:`StreamingPipeline.stage_costs`.
    """

    format_name: str
    partition_size: int
    sizes: SizeColumns
    memory: np.ndarray
    compute: ComputeColumns
    write_back_cycles: int

    @property
    def n_partitions(self) -> int:
        return self.memory.size


class StreamingPipeline:
    """Runs partition profiles through one format's hardware model."""

    def __init__(
        self,
        config: HardwareConfig,
        decompressor: DecompressorModel | str,
    ) -> None:
        self.config = config
        if isinstance(decompressor, str):
            decompressor = get_decompressor(decompressor)
        self.decompressor = decompressor
        self.axi = AxiStreamModel(config)
        self.integrity = (
            IntegrityCheckModel(config) if config.integrity_check else None
        )

    def time_partition(self, profile: PartitionProfile) -> PartitionTiming:
        """Memory and compute latency of one non-zero partition."""
        lines = self.decompressor.stream_lines(profile, self.config)
        compute = self.decompressor.compute(profile, self.config)
        memory_cycles = self.axi.transfer_cycles(lines)
        if self.integrity is not None:
            memory_cycles = self.integrity.checked_transfer_cycles(
                memory_cycles, int(sum(lines))
            )
        return PartitionTiming(
            memory_cycles=memory_cycles,
            decompress_cycles=compute.decompress_cycles,
            dot_cycles=compute.dot_cycles,
            size=self.decompressor.transfer_size(profile, self.config),
        )

    def _write_back_cycles(self) -> int:
        """Memory-write stage: the partial output vector per partition."""
        if not self.config.write_back:
            return 0
        out_bytes = self.config.partition_size * self.config.value_bytes
        return self.axi.single_line_cycles(out_bytes)

    def stage_costs(
        self, profiles: ProfileTable | Sequence[PartitionProfile]
    ) -> StageCosts:
        """Every partition's stage costs through the batch kernels.

        Accepts a :class:`ProfileTable` (the fast path — everything
        stays columnar) or a sequence of :class:`PartitionProfile`
        objects (columnarized first).
        """
        table = resolve_profile_table(self.config, profiles)
        if table is None or table.n_tiles == 0:
            empty = np.empty((6, 0), dtype=np.int64)
            sizes = SizeColumns(*empty[:3])
            memory = empty[3]
            compute = ComputeColumns(*empty[4:])
        else:
            sizes = self.decompressor.transfer_size_batch(
                table, self.config
            )
            total_bytes = sizes.total_bytes
            memory = self.axi.transfer_cycles_batch(total_bytes)
            if self.integrity is not None:
                memory = self.integrity.checked_transfer_cycles_batch(
                    memory, total_bytes
                )
            compute = self.decompressor.compute_batch(table, self.config)
        return StageCosts(
            format_name=self.decompressor.name,
            partition_size=self.config.partition_size,
            sizes=sizes,
            memory=memory,
            compute=compute,
            write_back_cycles=self._write_back_cycles(),
        )

    def run(
        self, profiles: ProfileTable | Sequence[PartitionProfile]
    ) -> PipelineResult:
        """Stream every non-zero partition and total the pipeline.

        Takes the same inputs as :meth:`stage_costs`; the result is
        bit-identical to :meth:`run_scalar`.
        """
        costs = self.stage_costs(profiles)
        streamed = costs.n_partitions > 0
        return PipelineResult(
            format_name=costs.format_name,
            partition_size=costs.partition_size,
            memory_per_partition=costs.memory,
            compute=costs.compute,
            sizes=costs.sizes,
            fill_cycles=int(costs.memory[0]) if streamed else 0,
            drain_cycles=costs.write_back_cycles if streamed else 0,
        )

    def run_scalar(
        self, profiles: ProfileTable | Sequence[PartitionProfile]
    ) -> PipelineResult:
        """Per-profile reference loop (the pre-batch implementation).

        Kept as the differential-test and benchmark baseline; the
        batch :meth:`run` must match it bit for bit.
        """
        if isinstance(profiles, ProfileTable):
            profiles = profiles.profiles()
        else:
            profiles = tuple(profiles)
        p = self.config.partition_size
        for index, profile in enumerate(profiles):
            if profile.p != p:
                raise SimulationError(
                    f"profile {index} has partition size {profile.p} "
                    f"!= configured {p}"
                )
        timings = tuple(self.time_partition(p) for p in profiles)
        fill = timings[0].memory_cycles if timings else 0
        drain = self._write_back_cycles() if timings else 0
        return PipelineResult.from_timings(
            format_name=self.decompressor.name,
            partition_size=self.config.partition_size,
            timings=timings,
            fill_cycles=fill,
            drain_cycles=drain,
        )
