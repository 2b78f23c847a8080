"""Figure 8: balance ratio — memory latency vs compute latency.

One point per (format, partition size, workload group); the blue line
of the figure is balance ratio = 1.  Paper claims asserted: every
sparse format transfers less than dense; dense sits closest to balance
and drifts memory-bound as partitions grow; CSR/CSC are compute-bound;
high density pushes BCSR toward the memory-bound side.
"""

from __future__ import annotations

import math

from conftest import FORMATS, PARTITION_SIZES, config_at

from repro.analysis import format_table
from repro.core import SpmvSimulator


def build_points(groups):
    points = {}
    for group_name, workloads in groups.items():
        for p in PARTITION_SIZES:
            simulator = SpmvSimulator(config_at(p))
            profile_cache = [
                simulator.profile_table(load.matrix) for load in workloads
            ]
            for name in FORMATS:
                mem = comp = 0
                for load, profiles in zip(workloads, profile_cache):
                    result = simulator.run_format(name, profiles, load.name)
                    mem += result.memory_cycles
                    comp += result.compute_cycles
                points[(group_name, name, p)] = (mem, comp)
    return points


def test_fig8_balance_ratio(
    benchmark, suitesparse_workloads, random_workloads, band_workloads
):
    groups = {
        "suitesparse": suitesparse_workloads,
        "random": random_workloads,
        "band": band_workloads,
    }
    points = benchmark.pedantic(
        build_points, args=(groups,), rounds=1, iterations=1
    )
    print()
    rows = [
        [group, name, p, mem, comp, mem / comp]
        for (group, name, p), (mem, comp) in sorted(points.items())
    ]
    print(
        format_table(
            ["group", "format", "p", "mem cycles", "comp cycles", "ratio"],
            rows,
            title="Figure 8: balance ratio (memory / compute); 1 = balanced",
        )
    )

    # "the latency to transmit data and metadata for all sparse
    # formats is much lower than for the dense format" — true on the
    # paper's sparse workloads (the SuiteSparse group); at density 0.5
    # the index/padding overhead of COO/ELL/DIA legitimately exceeds
    # the dense transfer (cf. Figure 10, where dense utilization 0.5
    # beats COO's 0.33).
    for p in PARTITION_SIZES:
        dense_mem, _ = points[("suitesparse", "dense", p)]
        for name in FORMATS:
            if name == "dense":
                continue
            mem, _ = points[("suitesparse", name, p)]
            assert mem < dense_mem, (name, p)

    for group in groups:
        # dense drifts memory-bound as the partition grows.
        dense_ratios = [
            points[(group, "dense", p)][0] / points[(group, "dense", p)][1]
            for p in PARTITION_SIZES
        ]
        assert dense_ratios[-1] > dense_ratios[0], group

        # CSR and CSC are compute-bound (ratio < 1) in every group.
        for name in ("csr", "csc"):
            mem, comp = points[(group, name, 16)]
            assert mem / comp < 1.0, (group, name)

        # dense is closer to balance than the compute-bound formats.
        dense_dist = abs(math.log(points[(group, "dense", 16)][0]
                                  / points[(group, "dense", 16)][1]))
        csc_dist = abs(math.log(points[(group, "csc", 16)][0]
                                / points[(group, "csc", 16)][1]))
        assert dense_dist < csc_dist, group

    # density pushes BCSR toward the memory-bound side: the random
    # group (up to 0.5 density) must be more memory-bound than the
    # sparse SuiteSparse group.
    random_bcsr = (points[("random", "bcsr", 16)][0]
                   / points[("random", "bcsr", 16)][1])
    suite_bcsr = (points[("suitesparse", "bcsr", 16)][0]
                  / points[("suitesparse", "bcsr", 16)][1])
    assert random_bcsr > suite_bcsr
