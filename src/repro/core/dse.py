"""Design-space exploration: Pareto frontiers over format choices.

Section 4.2 frames resource utilization and power as "our other
metrics for the full design-space exploration"; a single recommended
point (:mod:`repro.core.recommend`) hides the trade-offs.  This module
enumerates the (format, partition size, lane count) space under device
constraints and extracts the Pareto-optimal set for any pair (or more)
of objectives — e.g. latency vs dynamic power, or throughput vs BRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..hardware.multi import MultiLanePipeline
from ..matrix import SparseMatrix
from ..partition import PARTITION_SIZES, ProfileTable
from .simulator import SpmvSimulator

__all__ = ["DesignPoint", "explore", "pareto_frontier"]

#: Objective name -> (extractor key, higher_is_better).
_OBJECTIVES: dict[str, bool] = {
    "total_cycles": False,
    "throughput_bytes_per_s": True,
    "bandwidth_utilization": True,
    "dynamic_power_w": False,
    "energy_j": False,
    "bram_18k": False,
    "ff": False,
    "lut": False,
}


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated accelerator configuration."""

    format_name: str
    partition_size: int
    n_lanes: int
    metrics: dict

    def metric(self, name: str) -> float:
        try:
            return float(self.metrics[name])
        except KeyError:
            raise SimulationError(
                f"design point has no metric {name!r}; available: "
                f"{sorted(self.metrics)}"
            ) from None

    def dominates(self, other: "DesignPoint",
                  objectives: Sequence[str]) -> bool:
        """Pareto dominance: at least as good everywhere, better
        somewhere."""
        at_least_as_good = True
        strictly_better = False
        for name in objectives:
            higher = _OBJECTIVES[name]
            mine, theirs = self.metric(name), other.metric(name)
            better = mine > theirs if higher else mine < theirs
            worse = mine < theirs if higher else mine > theirs
            if worse:
                at_least_as_good = False
                break
            if better:
                strictly_better = True
        return at_least_as_good and strictly_better

    def __repr__(self) -> str:
        return (
            f"DesignPoint({self.format_name!r}, p={self.partition_size}, "
            f"lanes={self.n_lanes})"
        )


def explore(
    matrix: SparseMatrix,
    formats: Sequence[str] = (
        "csr", "bcsr", "csc", "lil", "ell", "coo", "dia",
    ),
    partition_sizes: Sequence[int] = PARTITION_SIZES,
    lane_counts: Sequence[int] = (1,),
    base_config: HardwareConfig = DEFAULT_CONFIG,
    fit_device: bool = True,
    max_workers: int = 1,
) -> list[DesignPoint]:
    """Evaluate every (format, partition size, lanes) combination.

    Multi-lane points scale resources linearly and take their timing
    from the shared-bus lane model; ``fit_device`` drops designs that
    exceed the xq7z020.  The single-lane characterizations run through
    the sweep engine, so ``max_workers > 1`` fans the (format,
    partition size) grid out over worker processes.
    """
    # imported here: repro.engine depends on repro.core at import time
    from ..engine import SweepRunner
    from ..workloads.registry import Workload

    workload = Workload(name="dse", group="dse", matrix=matrix)
    # fail fast: the DSE indexes the full cube, a missing cell would
    # only surface later as an opaque KeyError
    cube = SweepRunner(
        max_workers=max_workers, error_policy="fail_fast"
    ).run_grid(
        [workload], formats, partition_sizes, base_config
    ).by_coords()

    points: list[DesignPoint] = []
    for p in partition_sizes:
        config = base_config.with_partition_size(p)
        simulator = SpmvSimulator(config)
        table: ProfileTable | None = None
        for name in formats:
            single = cube[("dse", name, p)]
            for lanes in lane_counts:
                pipeline = MultiLanePipeline(config, name, lanes)
                resources = pipeline.resources()
                if fit_device and not resources.fits_device:
                    continue
                if lanes == 1:
                    total_cycles = single.total_cycles
                else:
                    if table is None:
                        table = simulator.profile_table(matrix)
                    total_cycles = pipeline.run(table).total_cycles
                seconds = config.seconds(total_cycles)
                power_w = single.dynamic_power_w * lanes
                metrics = {
                    "total_cycles": total_cycles,
                    "total_seconds": seconds,
                    "throughput_bytes_per_s": (
                        single.total_bytes / seconds if seconds else 0.0
                    ),
                    "bandwidth_utilization": (
                        single.bandwidth_utilization
                    ),
                    "dynamic_power_w": power_w,
                    "energy_j": (
                        (power_w + single.static_power_w) * seconds
                    ),
                    "bram_18k": resources.bram_18k,
                    "ff": resources.ff,
                    "lut": resources.lut,
                }
                points.append(
                    DesignPoint(
                        format_name=name,
                        partition_size=p,
                        n_lanes=lanes,
                        metrics=metrics,
                    )
                )
    if not points:
        raise SimulationError(
            "no design fits the device; relax fit_device or shrink the "
            "search space"
        )
    return points


def pareto_frontier(
    points: Sequence[DesignPoint],
    objectives: Sequence[str] = ("total_cycles", "dynamic_power_w"),
) -> list[DesignPoint]:
    """The non-dominated subset of ``points`` for the objectives."""
    for name in objectives:
        if name not in _OBJECTIVES:
            raise SimulationError(
                f"unknown objective {name!r}; choose from "
                f"{', '.join(_OBJECTIVES)}"
            )
    if len(objectives) < 2:
        raise SimulationError("a frontier needs at least two objectives")
    frontier = [
        point
        for point in points
        if not any(
            other.dominates(point, objectives)
            for other in points
            if other is not point
        )
    ]
    key = objectives[0]
    return sorted(frontier, key=lambda p: p.metric(key))
