"""Ablation: ELL hardware width, and the ELL+COO / JDS variants.

The paper fixes the ELL padding width at six and notes that "reducing
ELL_MAX_COMP_ROW_LENGTH ... and using optimizations such as ELL-COO
only impact the resource utilization of the FPGA, not the performance"
(compute side), while Section 2 presents ELL+COO and JDS as the fixes
for ELL's padding *transfer*.  This ablation measures both halves:

* compute latency is set by the engine width (shallower adder tree);
* transfer cost is where the variants pay off — ELL+COO and JDS ship
  far fewer padded slots than plain ELL on skewed (power-law) rows.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import format_table, grouped_series
from repro.core import SpmvSimulator
from repro.hardware import HardwareConfig
from repro.workloads import power_law_graph, random_matrix

WIDTHS = (2, 4, 6, 8, 12)


def build_results():
    matrix = power_law_graph(1024, avg_degree=6, seed=0)
    width_series = {"sigma": [], "compute_cycles": []}
    for width in WIDTHS:
        config = replace(
            HardwareConfig(partition_size=16), ell_hardware_width=width
        )
        simulator = SpmvSimulator(config)
        result = simulator.characterize(matrix, "ell", workload="graph")
        width_series["sigma"].append(result.sigma)
        width_series["compute_cycles"].append(result.compute_cycles)

    simulator = SpmvSimulator(HardwareConfig(partition_size=16))
    variants = {}
    for workload_name, workload in (
        ("graph", matrix),
        ("rand-0.4", random_matrix(1024, 0.4, seed=0)),
    ):
        profiles = simulator.profile_table(workload)
        for name in ("ell", "ell+coo", "jds"):
            variants[(workload_name, name)] = simulator.run_format(
                name, profiles, workload_name
            )
    return width_series, variants


def test_ablation_ell_width(benchmark):
    width_series, variants = benchmark.pedantic(
        build_results, rounds=1, iterations=1
    )
    print()
    print(
        grouped_series(
            WIDTHS, width_series,
            title="Ablation: ELL engine width (power-law graph, p=16)",
        )
    )
    print()
    print(
        format_table(
            ["workload", "variant", "sigma", "total bytes", "bw util",
             "cycles"],
            [
                [
                    workload,
                    name,
                    result.sigma,
                    result.total_bytes,
                    result.bandwidth_utilization,
                    result.total_cycles,
                ]
                for (workload, name), result in variants.items()
            ],
            title="ELL vs its variants",
        )
    )

    # compute latency shrinks monotonically with a narrower engine.
    cycles = width_series["compute_cycles"]
    assert cycles == sorted(cycles)

    # JDS never pads, so it always ships fewer bytes than plain ELL.
    for workload in ("graph", "rand-0.4"):
        assert (
            variants[(workload, "jds")].total_bytes
            < variants[(workload, "ell")].total_bytes
        ), workload

    # the hybrid's payoff appears once rows exceed the plane width:
    # on the dense regime it beats plain ELL on the wire, while on the
    # extremely sparse graph its fixed planes are pure overhead.
    assert (
        variants[("rand-0.4", "ell+coo")].total_bytes
        < variants[("rand-0.4", "ell")].total_bytes
    )
    assert (
        variants[("graph", "ell+coo")].total_bytes
        > variants[("graph", "ell")].total_bytes
    )
