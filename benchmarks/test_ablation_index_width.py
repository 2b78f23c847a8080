"""Ablation: on-wire index width.

The paper streams 32-bit fields, which pins COO's bandwidth
utilization at exactly 1/3.  Partitions are small (8-32), so indices
fit easily in 16 or even 8 bits; this ablation asks how much
utilization the metadata-heavy formats recover with narrower indices —
a knob the paper's insights invite architects to tune.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import FORMATS

from repro.analysis import grouped_series
from repro.core import SpmvSimulator
from repro.hardware import HardwareConfig
from repro.workloads import random_matrix

INDEX_BYTES = (1, 2, 4)


def build_series():
    matrix = random_matrix(1024, 0.05, seed=0)
    series = {name: [] for name in FORMATS}
    for width in INDEX_BYTES:
        config = replace(
            HardwareConfig(partition_size=16), index_bytes=width
        )
        simulator = SpmvSimulator(config)
        profiles = simulator.profile_table(matrix)
        for name in FORMATS:
            result = simulator.run_format(name, profiles, "rand-0.05")
            series[name].append(result.bandwidth_utilization)
    return series


def test_ablation_index_width(benchmark):
    series = benchmark.pedantic(build_series, rounds=1, iterations=1)
    print()
    print(
        grouped_series(
            INDEX_BYTES, series,
            title="Ablation: bandwidth utilization vs index bytes "
            "(4 = the paper's 32-bit fields)",
        )
    )

    # COO: utilization = value / (value + 2 * index).
    for width, value in zip(INDEX_BYTES, series["coo"]):
        assert abs(value - 4 / (4 + 2 * width)) < 1e-9

    # dense carries no metadata: immune to the knob.
    assert len(set(series["dense"])) == 1

    # every metadata-carrying format improves with narrower indices.
    for name in FORMATS:
        if name == "dense":
            continue
        values = series[name]
        assert values[0] > values[-1], name

    # the ordering flip the knob enables: with 1-byte indices COO's
    # overhead shrinks from 2x to 0.5x of the payload.
    assert series["coo"][0] > 0.6
