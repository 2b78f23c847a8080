#!/usr/bin/env python
"""Design-space exploration: Pareto frontiers for an architect.

Section 4.2 calls resource utilization and power "our other metrics
for the full design-space exploration".  This example enumerates the
(format, partition size, lane count) space for a pruned-model weight
matrix, prints the latency-vs-power Pareto frontier, and shows how a
tight BRAM budget moves the chosen design.

Run:  python examples/design_space.py [--workers N]
"""

from __future__ import annotations

import argparse

try:
    import repro  # noqa: F401 — probe for an installed package
except ModuleNotFoundError:  # running from a source checkout
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )

from repro.analysis import format_table
from repro.core import Constraints, explore, pareto_frontier
from repro.core.recommend import recommend
from repro.workloads import random_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep engine (default: 1)",
    )
    args = parser.parse_args()
    weights = random_matrix(1024, density=0.2, seed=6)
    print(f"workload: pruned weight matrix {weights!r}")
    print()

    points = explore(
        weights, lane_counts=(1, 2, 4), max_workers=args.workers
    )
    frontier = pareto_frontier(
        points, ("total_cycles", "dynamic_power_w")
    )
    print(
        format_table(
            ["format", "p", "lanes", "latency us", "dyn W", "BRAM"],
            [
                [
                    point.format_name,
                    point.partition_size,
                    point.n_lanes,
                    point.metric("total_seconds") * 1e6,
                    point.metric("dynamic_power_w"),
                    point.metric("bram_18k"),
                ]
                for point in frontier
            ],
            title=f"Latency / power Pareto frontier "
            f"({len(frontier)} of {len(points)} designs)",
        )
    )
    print()

    resource_frontier = pareto_frontier(
        points, ("total_cycles", "bram_18k")
    )
    print(
        format_table(
            ["format", "p", "lanes", "latency us", "BRAM", "LUT"],
            [
                [
                    point.format_name,
                    point.partition_size,
                    point.n_lanes,
                    point.metric("total_seconds") * 1e6,
                    point.metric("bram_18k"),
                    point.metric("lut"),
                ]
                for point in resource_frontier
            ],
            title="Latency / BRAM Pareto frontier",
        )
    )
    print()

    fast = recommend(weights, objective="latency")
    frugal = recommend(
        weights,
        objective="latency",
        constraints=Constraints(max_bram_18k=8),
    )
    print(
        f"unconstrained pick: {fast.format_name} at "
        f"{fast.partition_size}x{fast.partition_size} "
        f"({fast.best.resources.bram_18k} BRAM)"
    )
    print(
        f"under an 8-BRAM budget: {frugal.format_name} at "
        f"{frugal.partition_size}x{frugal.partition_size} "
        f"({frugal.best.resources.bram_18k} BRAM, "
        f"{len(frugal.rejected)} designs rejected)"
    )


if __name__ == "__main__":
    main()
