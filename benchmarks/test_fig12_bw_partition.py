"""Figure 12: average bandwidth utilization vs partition size.

Averaged per workload group at partition sizes 8/16/32.  Claims
asserted: COO pinned at 0.33 everywhere; for all formats but COO, the
dense/structured groups out-utilize the extremely sparse SuiteSparse
group; DIA's utilization on structured data approaches 1 as the
partition grows (longer diagonals amortize the header).
"""

from __future__ import annotations

import pytest

from conftest import FORMATS, PARTITION_SIZES, config_at

from repro.analysis import grouped_series
from repro.core import SpmvSimulator


def build_table(groups):
    table = {}
    for group_name, workloads in groups.items():
        series = {name: [] for name in FORMATS}
        for p in PARTITION_SIZES:
            simulator = SpmvSimulator(config_at(p))
            sums = {name: 0.0 for name in FORMATS}
            for load in workloads:
                profiles = simulator.profile_table(load.matrix)
                for name in FORMATS:
                    result = simulator.run_format(name, profiles, load.name)
                    sums[name] += result.bandwidth_utilization
            for name in FORMATS:
                series[name].append(sums[name] / len(workloads))
        table[group_name] = series
    return table


def test_fig12_bw_partition(
    benchmark, suitesparse_workloads, random_workloads, band_workloads
):
    groups = {
        "suitesparse": suitesparse_workloads,
        "random": random_workloads,
        "band": band_workloads,
    }
    table = benchmark.pedantic(
        build_table, args=(groups,), rounds=1, iterations=1
    )
    print()
    for group_name, series in table.items():
        print(
            grouped_series(
                PARTITION_SIZES, series,
                title=f"Figure 12 ({group_name}): mean bandwidth "
                "utilization vs partition size",
            )
        )
        print()

    for group_name, series in table.items():
        for value in series["coo"]:
            assert value == pytest.approx(1 / 3), group_name

    # denser/structured groups out-utilize the extremely sparse
    # SuiteSparse group for every format but COO.
    for name in FORMATS:
        if name == "coo":
            continue
        suite = table["suitesparse"][name][1]
        band = table["band"][name][1]
        assert band > suite, name

    # DIA on band matrices: utilization grows with partition size.
    dia_band = table["band"]["dia"]
    assert dia_band[-1] > dia_band[0]
