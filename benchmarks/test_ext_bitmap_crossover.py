"""Extension: bitmap (SparTen/SMASH-style) crossover study.

The paper's related work points at bitmask encodings as the
accelerator-native alternative to index metadata.  This bench sweeps
density and finds where the flat bitmap's constant-size mask beats the
per-entry indices of COO/CSR — and where it drowns below them — on the
same platform as the seven paper formats.
"""

from __future__ import annotations

from conftest import config_at

from repro.analysis import grouped_series
from repro.core import SpmvSimulator
from repro.workloads import PAPER_DENSITIES, random_matrix

FORMATS = ("coo", "csr", "ell", "bitmap", "dense")


def build_series():
    simulator = SpmvSimulator(config_at(16))
    series = {name: [] for name in FORMATS}
    sigma = {name: [] for name in FORMATS}
    for density in PAPER_DENSITIES:
        matrix = random_matrix(1024, density, seed=0)
        profiles = simulator.profile_table(matrix)
        for name in FORMATS:
            result = simulator.run_format(name, profiles, f"d={density}")
            series[name].append(result.bandwidth_utilization)
            sigma[name].append(result.sigma)
    return series, sigma


def test_ext_bitmap_crossover(benchmark):
    series, sigma = benchmark.pedantic(
        build_series, rounds=1, iterations=1
    )
    print()
    print(
        grouped_series(
            PAPER_DENSITIES, series,
            title="Extension: bandwidth utilization vs density "
            "(bitmap vs index formats)",
        )
    )
    print()
    print(
        grouped_series(
            PAPER_DENSITIES, sigma,
            title="Extension: sigma vs density",
        )
    )

    densities = list(PAPER_DENSITIES)
    low = densities.index(0.001)
    high = densities.index(0.3)

    # extremely sparse: the constant mask is dead weight; COO wins.
    assert series["coo"][low] > series["bitmap"][low]
    # ML-regime density: the mask amortizes; bitmap beats COO and CSR.
    assert series["bitmap"][high] > series["coo"][high]
    assert series["bitmap"][high] > series["csr"][high]
    # bitmap's utilization grows monotonically with density.
    values = series["bitmap"]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # compute side: bitmap behaves like a stream format (sigma grows
    # with density, dominated by the entry walk), never like CSC.
    assert sigma["bitmap"][high] < 5.0
