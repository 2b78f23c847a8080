"""Coarse-grained parallelism: aggregated accelerator lanes.

Section 5.1: "Instances of this architecture can be aggregated for
implementing coarse-grain parallelism."  This model aggregates ``n``
copies of the Figure-2 pipeline, each processing whole partitions,
all drawing from the one DDR3 channel:

* a lane is busy for ``max(memory, compute)`` per partition, and
  partitions go greedily to the least-busy lane (longest-processing-
  time order, the classic 4/3-approximation);
* lanes run independently, but transfers serialize on the shared
  memory bus;
* the run is the streaming pipeline's fill and drain around the
  longer of the bus and the busiest lane, so one lane *is* it.

The interesting output is the *scaling curve*: compute-bound formats
(CSC, CSR at high density) scale nearly linearly until the aggregate
compute rate meets the memory bandwidth, while memory-bound formats
(dense, BCSR at high density) barely gain — the coarse-grained twin of
the paper's "memory bandwidth is not always the bottleneck" insight.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..errors import HardwareConfigError
from ..partition import PartitionProfile, ProfileTable
from .config import HardwareConfig
from .decompressors import DecompressorModel
from .pipeline import StreamingPipeline
from .resources import ResourceEstimate, estimate_resources

__all__ = ["LaneAssignment", "MultiLaneResult", "MultiLanePipeline"]


@dataclass(frozen=True)
class LaneAssignment:
    """The partitions one lane processes and its busy time."""

    lane: int
    partition_indices: tuple[int, ...]
    compute_cycles: int
    memory_cycles: int
    #: Sum of ``max(memory, compute)`` over the lane's partitions.
    busy_cycles: int


@dataclass(frozen=True)
class MultiLaneResult:
    """Aggregate outcome of a multi-lane run."""

    format_name: str
    n_lanes: int
    partition_size: int
    assignments: tuple[LaneAssignment, ...]
    total_memory_cycles: int
    fill_cycles: int
    drain_cycles: int

    @property
    def compute_makespan(self) -> int:
        """Cycles until the most-loaded lane drains its compute."""
        return max((a.compute_cycles for a in self.assignments), default=0)

    @property
    def lane_makespan(self) -> int:
        """Busy cycles of the busiest lane."""
        return max((a.busy_cycles for a in self.assignments), default=0)

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles: lanes overlap, the shared bus does not.

        Between fill and drain the slower of the serialized transfers
        and the busiest lane dominates.
        """
        steady = max(self.total_memory_cycles, self.lane_makespan)
        return self.fill_cycles + steady + self.drain_cycles

    @property
    def bound(self) -> str:
        """``"memory"`` when the shared bus dominates the makespan."""
        if self.total_memory_cycles >= self.lane_makespan:
            return "memory"
        return "compute"

    @property
    def load_imbalance(self) -> float:
        """Max lane compute over mean lane compute (1 = perfect)."""
        if not self.assignments:
            return 1.0
        loads = [a.compute_cycles for a in self.assignments]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def speedup_over(self, single_lane: "MultiLaneResult") -> float:
        """Wall-clock speedup relative to a single-lane run."""
        if self.total_cycles == 0:
            return 1.0
        return single_lane.total_cycles / self.total_cycles


class MultiLanePipeline:
    """Aggregates ``n_lanes`` pipelines behind one memory channel."""

    def __init__(
        self,
        config: HardwareConfig,
        decompressor: DecompressorModel | str,
        n_lanes: int,
    ) -> None:
        if n_lanes < 1:
            raise HardwareConfigError(
                f"n_lanes must be >= 1, got {n_lanes}"
            )
        self.config = config
        self.pipeline = StreamingPipeline(config, decompressor)
        self.n_lanes = n_lanes

    def resources(self) -> ResourceEstimate:
        """Whole-design resources: one estimate per lane, summed."""
        single = estimate_resources(
            self.pipeline.decompressor.name, self.config
        )
        return ResourceEstimate(
            format_name=single.format_name,
            partition_size=single.partition_size,
            bram_18k=single.bram_18k * self.n_lanes,
            ff=single.ff * self.n_lanes,
            lut=single.lut * self.n_lanes,
            ff_mapped_buffer_bits=(
                single.ff_mapped_buffer_bits * self.n_lanes
            ),
        )

    def run(
        self, profiles: ProfileTable | Sequence[PartitionProfile]
    ) -> MultiLaneResult:
        """Dispatch every partition and total the run."""
        single = self.pipeline.run(profiles)
        memory_cycles = single.memory_per_partition.tolist()
        compute_cycles = single.compute.total_cycles.tolist()
        busy_cycles = map(max, memory_cycles, compute_cycles)

        # longest-processing-time greedy onto the least-busy lane.
        lane_compute = [0] * self.n_lanes
        lane_memory = [0] * self.n_lanes
        lane_indices: list[list[int]] = [[] for _ in range(self.n_lanes)]
        heap = [(0, lane) for lane in range(self.n_lanes)]
        for busy, index in sorted(
            zip(busy_cycles, range(len(memory_cycles))), reverse=True
        ):
            load, lane = heapq.heappop(heap)
            lane_compute[lane] += compute_cycles[index]
            lane_memory[lane] += memory_cycles[index]
            lane_indices[lane].append(index)
            heapq.heappush(heap, (load + busy, lane))
        lane_busy = {lane: load for load, lane in heap}

        assignments = tuple(
            LaneAssignment(
                lane=lane,
                partition_indices=tuple(sorted(lane_indices[lane])),
                compute_cycles=lane_compute[lane],
                memory_cycles=lane_memory[lane],
                busy_cycles=lane_busy[lane],
            )
            for lane in range(self.n_lanes)
        )
        return MultiLaneResult(
            format_name=single.format_name,
            n_lanes=self.n_lanes,
            partition_size=single.partition_size,
            assignments=assignments,
            total_memory_cycles=sum(memory_cycles),
            fill_cycles=single.fill_cycles,
            drain_cycles=single.drain_cycles,
        )
