"""Ablation: coarse-grained parallelism (aggregated lanes).

Section 5.1 notes the pipeline "can be aggregated for implementing
coarse-grain parallelism".  This ablation sweeps the lane count and
measures each format's scaling curve on a shared memory channel —
re-deriving insight 1 at the system level: lanes only help formats
whose bottleneck is the decompressor, and every format eventually
hits the memory wall.
"""

from __future__ import annotations

from conftest import FORMATS, config_at

from repro.analysis import grouped_series
from repro.hardware.multi import MultiLanePipeline
from repro.partition import profile_table
from repro.workloads import random_matrix

LANES = (1, 2, 4, 8, 16)


def build_series():
    matrix = random_matrix(1024, 0.2, seed=0)
    profiles = profile_table(matrix, 16)
    config = config_at(16)
    speedups = {name: [] for name in FORMATS}
    bounds = {}
    for name in FORMATS:
        single = MultiLanePipeline(config, name, 1).run(profiles)
        for lanes in LANES:
            result = MultiLanePipeline(config, name, lanes).run(profiles)
            speedups[name].append(result.speedup_over(single))
            bounds[(name, lanes)] = result.bound
    return speedups, bounds


def test_ablation_lanes(benchmark):
    speedups, bounds = benchmark.pedantic(
        build_series, rounds=1, iterations=1
    )
    print()
    print(
        grouped_series(
            LANES, speedups,
            title="Ablation: speedup vs lane count (density 0.2, p=16)",
        )
    )

    # compute-bound CSC scales the furthest before hitting the wall.
    assert speedups["csc"][-1] == max(
        series[-1] for series in speedups.values()
    )
    assert speedups["csc"][2] > 3.5  # near-linear at 4 lanes

    # dense is already memory-bound: one lane is as good as many.
    assert speedups["dense"][-1] < 1.05

    # monotone, never super-linear.
    for name, series in speedups.items():
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:])), name
        assert series[-1] <= LANES[-1] + 1e-9, name

    # every format is memory-bound by 16 lanes on a shared channel.
    for name in FORMATS:
        assert bounds[(name, 16)] == "memory", name
