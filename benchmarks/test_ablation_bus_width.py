"""Ablation: memory-bus bandwidth sweep.

The paper's first insight: "the memory bandwidth is not always the
bottleneck; hence the performance of sparse problems cannot always be
improved by simply adding more memory bandwidth."  This ablation sweeps
the modelled DDR bus from half to 4x the baseline and measures how much
each format's total latency actually improves.

Expected shape: dense (memory-bound) speeds up nearly linearly with
bandwidth, while CSR/CSC (compute-bound decompressors) barely move —
their bottleneck is the decompression logic, exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import FORMATS

from repro.analysis import grouped_series
from repro.core import SpmvSimulator
from repro.hardware import HardwareConfig
from repro.workloads import random_matrix

BUS_BYTES = (4, 8, 16, 32)


def build_series():
    matrix = random_matrix(1024, 0.05, seed=0)
    series = {name: [] for name in FORMATS}
    for bus in BUS_BYTES:
        config = replace(
            HardwareConfig(partition_size=16), axi_bytes_per_cycle=bus
        )
        simulator = SpmvSimulator(config)
        profiles = simulator.profile_table(matrix)
        for name in FORMATS:
            result = simulator.run_format(name, profiles, "rand-0.05")
            series[name].append(result.total_cycles)
    return series


def test_ablation_bus_width(benchmark):
    series = benchmark.pedantic(build_series, rounds=1, iterations=1)
    print()
    print(
        grouped_series(
            BUS_BYTES, series,
            title="Ablation: total cycles vs bus bytes/cycle "
            "(insight 1: bandwidth is not always the bottleneck)",
        )
    )

    def speedup(name: str) -> float:
        return series[name][0] / series[name][-1]

    # dense is memory-bound: large gains until compute takes over.
    assert speedup("dense") > 3.0
    # the compute-bound decompressors barely benefit.
    assert speedup("csc") < 1.2
    assert speedup("csr") < 2.0
    # every compute-bound format gains less than dense.
    for name in FORMATS:
        if name == "dense":
            continue
        assert speedup(name) <= speedup("dense") + 1e-9, name
