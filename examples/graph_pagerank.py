#!/usr/bin/env python
"""Graph analytics scenario: PageRank over a web-graph stand-in.

Section 3.3's second domain: vertex-centric graph algorithms reduce to
repeated SpMV over the adjacency structure.  The example ranks a
power-law web graph through encoded sparse formats, verifies that the
ranking is format-independent, and uses the hardware model to compare
formats on the graph's transition matrix — reproducing the paper's
insight that a generic format (COO) beats the specialist DIA on graph
data.

Run:  python examples/graph_pagerank.py
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

from repro import SpmvSimulator, HardwareConfig
from repro.analysis import format_table
from repro.apps import pagerank, transition_matrix
from repro.formats import SPARSE_FORMATS
from repro.workloads import power_law_graph


def main() -> None:
    graph = power_law_graph(1500, avg_degree=8, seed=5)
    print(
        f"web graph stand-in: {graph.n_rows} vertices, "
        f"{graph.nnz} edges, density {graph.density:.2%}"
    )
    print()

    result = pagerank(graph, format_name="csr", partition_size=16)
    top = np.argsort(result.ranks)[::-1][:5]
    print(
        f"PageRank converged in {result.iterations} iterations "
        f"({result.spmv_count} SpMVs)"
    )
    print("top-5 vertices:",
          ", ".join(f"v{v} ({result.ranks[v]:.4f})" for v in top))

    # format independence of the analytics result.
    other = pagerank(graph, format_name="coo", partition_size=16)
    assert np.allclose(result.ranks, other.ranks, atol=1e-8)
    print("COO and CSR pipelines agree on the ranking.")
    print()

    # characterize the operand the iterations actually stream.
    operand = transition_matrix(graph)
    simulator = SpmvSimulator(HardwareConfig(partition_size=16))
    profiles = simulator.profile_table(operand)
    rows = []
    for name in SPARSE_FORMATS:
        spmv = simulator.run_format(name, profiles, workload="pagerank")
        rows.append(
            [
                name,
                spmv.sigma,
                spmv.total_seconds * 1e6,
                spmv.total_seconds * result.spmv_count * 1e3,
                spmv.bandwidth_utilization,
            ]
        )
    rows.sort(key=lambda row: row[2])
    print(
        format_table(
            ["format", "sigma", "SpMV (us)", "PageRank (ms)", "bw util"],
            rows,
            title="Projected accelerator cost per format",
        )
    )
    print()
    by_name = {row[0]: row for row in rows}
    print(
        "paper insight check - generic COO vs specialist DIA on graph "
        f"data: COO {by_name['coo'][2]:.1f} us vs DIA "
        f"{by_name['dia'][2]:.1f} us per SpMV."
    )


if __name__ == "__main__":
    main()
