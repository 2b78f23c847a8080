#!/usr/bin/env python
"""Graph analytics scenario: BFS, shortest paths and components.

Section 3.3 lists breadth-first search and single-source shortest path
alongside PageRank as the SpMV-shaped graph algorithms.  This example
runs all of them on a road-network stand-in via semiring SpMV, then
traces the adjacency matrix through the accelerator pipeline to show
*where* a mismatched format wastes cycles.

Run:  python examples/graph_analytics.py
"""

from __future__ import annotations

try:
    import repro  # noqa: F401 — probe for an installed package
except ModuleNotFoundError:  # running from a source checkout
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )

import numpy as np

from repro import HardwareConfig, profile_table
from repro.analysis import format_table, render_timeline
from repro.apps import (
    breadth_first_search,
    connected_components,
    single_source_shortest_paths,
)
from repro.hardware import trace_pipeline
from repro.matrix import SparseMatrix
from repro.workloads import road_network


def main() -> None:
    graph = road_network(900, rewire=0.02, seed=11)
    rng = np.random.default_rng(4)
    weighted = SparseMatrix(
        graph.shape, graph.rows, graph.cols,
        rng.uniform(1.0, 10.0, size=graph.nnz),
    )
    print(
        f"road network: {graph.n_rows} junctions, {graph.nnz} road "
        f"segments"
    )
    print()

    bfs = breadth_first_search(graph, source=0)
    print(
        f"BFS from junction 0: {int(bfs.reachable().sum())} reachable, "
        f"eccentricity {bfs.levels.max()}, {bfs.spmv_count} boolean "
        "SpMVs"
    )

    sssp = single_source_shortest_paths(weighted, source=0)
    finite = np.isfinite(sssp.distances)
    print(
        f"SSSP from junction 0: mean travel cost "
        f"{sssp.distances[finite].mean():.1f}, farthest "
        f"{sssp.distances[finite].max():.1f}, {sssp.spmv_count} "
        "tropical SpMVs"
    )

    labels = connected_components(graph)
    print(f"connected components: {len(set(labels))}")
    print()

    # every iteration above streams the adjacency through the
    # accelerator; compare the timeline of a matched vs a mismatched
    # format on exactly that operand.
    config = HardwareConfig(partition_size=16)
    profiles = profile_table(graph, 16)
    print("Streaming the adjacency matrix, per format:")
    print()
    rows = []
    for name in ("coo", "csr", "dia", "csc"):
        trace = trace_pipeline(config, name, profiles)
        rows.append(
            [
                name,
                trace.total_cycles,
                trace.bound(),
                trace.compute_occupancy,
                trace.compute_idle_cycles,
                trace.memory_stall_cycles,
            ]
        )
    print(
        format_table(
            ["format", "cycles", "bound", "comp occ", "bubbles",
             "stalls"],
            rows,
        )
    )
    print()
    for name in ("coo", "csc"):
        print(render_timeline(trace_pipeline(config, name, profiles)))
        print()


if __name__ == "__main__":
    main()
