"""Partition-order scheduling.

The closed-form pipeline total (``sum(max(mem, comp))``) is
order-independent, but the *event-resolved* trace is not: with a
double-buffered input, a run of consecutive memory-heavy partitions
starves the compute stage while a run of compute-heavy partitions
stalls the fetcher.  Interleaving the two hides one behind the other.

Partitions are independent (each produces its own output-vector
slice), so the stream order is a free knob the paper's platform could
exploit with host-side preprocessing — the same lever as its
partition-size hyperparameter.  This module provides:

* :func:`imbalance_order` — a skew-sorted baseline: all memory-heavy
  partitions first, then all compute-heavy ones;
* :func:`johnson_order` — Johnson's rule for the two-machine flow
  shop (memory stage, then compute stage), the optimal permutation
  for an unbounded inter-stage buffer and near-optimal for the
  platform's double buffer;
* :func:`schedule_gain` — makespan comparison across orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError
from ..partition import PartitionProfile, ProfileTable
from .config import HardwareConfig
from .decompressors import DecompressorModel
from .pipeline import StageCosts, StreamingPipeline
from .trace import trace_costs

__all__ = [
    "PartitionCost",
    "partition_costs",
    "imbalance_order",
    "johnson_order",
    "schedule_gain",
]


@dataclass(frozen=True)
class PartitionCost:
    """One partition's stage costs under a given format."""

    index: int
    memory_cycles: int
    compute_cycles: int

    @property
    def skew(self) -> int:
        """Positive = memory-heavy, negative = compute-heavy."""
        return self.memory_cycles - self.compute_cycles


def partition_costs(
    config: HardwareConfig,
    decompressor: DecompressorModel | str,
    profiles: ProfileTable | Sequence[PartitionProfile],
) -> list[PartitionCost]:
    """Per-partition memory and compute cycles."""
    return _cost_records(
        StreamingPipeline(config, decompressor).stage_costs(profiles)
    )


def _cost_records(costs: StageCosts) -> list[PartitionCost]:
    return [
        PartitionCost(
            index=index, memory_cycles=memory, compute_cycles=compute
        )
        for index, (memory, compute) in enumerate(
            zip(costs.memory.tolist(), costs.compute.total_cycles.tolist())
        )
    ]


def imbalance_order(costs: Sequence[PartitionCost]) -> list[int]:
    """Skew-sorted order: most memory-heavy first, compute-heavy last."""
    return [
        cost.index
        for cost in sorted(costs, key=lambda c: c.skew, reverse=True)
    ]


def johnson_order(costs: Sequence[PartitionCost]) -> list[int]:
    """Johnson's rule for the memory -> compute flow shop.

    Partitions faster on the memory stage than on the compute stage go
    first, in increasing memory cost (fill the compute queue quickly);
    the rest go last, in decreasing compute cost (drain memory behind
    a long compute tail).  Optimal for F2 || Cmax.
    """
    front = sorted(
        (c for c in costs if c.memory_cycles <= c.compute_cycles),
        key=lambda c: c.memory_cycles,
    )
    back = sorted(
        (c for c in costs if c.memory_cycles > c.compute_cycles),
        key=lambda c: c.compute_cycles,
        reverse=True,
    )
    return [c.index for c in front] + [c.index for c in back]


def schedule_gain(
    config: HardwareConfig,
    decompressor: DecompressorModel | str,
    profiles: ProfileTable | Sequence[PartitionProfile],
) -> dict[str, int]:
    """Trace makespans under the three orders.

    Returns ``{"original": ..., "skew_sorted": ..., "johnson": ...}``
    total cycles.
    """
    costs = StreamingPipeline(config, decompressor).stage_costs(profiles)
    if not costs.n_partitions:
        raise SimulationError("no partitions to schedule")
    records = _cost_records(costs)

    def makespan(order: Sequence[int] | None) -> int:
        return trace_costs(costs, order).total_cycles

    return {
        "original": makespan(None),
        "skew_sorted": makespan(imbalance_order(records)),
        "johnson": makespan(johnson_order(records)),
    }
