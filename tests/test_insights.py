"""The paper's Section 8 insights as end-to-end executable checks.

Each test builds fresh workloads and re-derives one of the concluding
insights from the full stack (formats -> partitioning -> hardware
model -> metrics), independently of the per-figure benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core import SpmvSimulator
from repro.core.recommend import recommend
from repro.formats import PAPER_FORMATS
from repro.hardware import HardwareConfig
from repro.workloads import (
    band_matrix,
    diagonal_matrix,
    power_law_graph,
    random_matrix,
    road_network,
)

CONFIG = HardwareConfig(partition_size=16)


class TestInsight1MemoryBandwidthIsNotAlwaysTheBottleneck:
    """"Unlike a common belief, the memory bandwidth is not always the
    bottleneck ... when using a format such as CSR to efficiently use
    storage, a lower-bandwidth low-cost memory is sufficient." """

    def test_csr_is_compute_bound_on_typical_sparse_data(self):
        matrix = random_matrix(512, 0.05, seed=0)
        result = SpmvSimulator(CONFIG).characterize(matrix, "csr")
        assert result.balance_ratio < 1.0  # compute-bound

    def test_halving_bandwidth_barely_hurts_csr(self):
        matrix = random_matrix(512, 0.05, seed=0)
        fast_bus = SpmvSimulator(CONFIG).characterize(matrix, "csr")
        slow_config = replace(CONFIG, axi_bytes_per_cycle=4)
        slow_bus = SpmvSimulator(slow_config).characterize(matrix, "csr")
        assert slow_bus.total_cycles < 1.15 * fast_bus.total_cycles

    def test_halving_bandwidth_hurts_dense_proportionally(self):
        matrix = random_matrix(512, 0.05, seed=0)
        fast_bus = SpmvSimulator(CONFIG).characterize(matrix, "dense")
        slow_config = replace(CONFIG, axi_bytes_per_cycle=4)
        slow_bus = SpmvSimulator(slow_config).characterize(
            matrix, "dense"
        )
        assert slow_bus.total_cycles > 1.7 * fast_bus.total_cycles


class TestInsight2GenericBeatsSpecialistOnGraphs:
    """"A non-specialized format such as COO performs faster and
    better utilizes the memory bandwidth compared to a specialized
    format such as DIA" on scientific/graph matrices."""

    @pytest.mark.parametrize("seed", range(3))
    def test_coo_faster_than_dia_on_graphs(self, seed):
        graph = power_law_graph(512, avg_degree=5, seed=seed)
        simulator = SpmvSimulator(CONFIG)
        coo = simulator.characterize(graph, "coo")
        dia = simulator.characterize(graph, "dia")
        assert coo.total_cycles < dia.total_cycles
        assert coo.bandwidth_utilization > dia.bandwidth_utilization

    def test_coo_faster_than_dia_on_road_networks(self):
        graph = road_network(900, seed=0)
        simulator = SpmvSimulator(CONFIG)
        coo = simulator.characterize(graph, "coo")
        dia = simulator.characterize(graph, "dia")
        assert coo.total_cycles < dia.total_cycles

    def test_recommender_agrees(self):
        graph = power_law_graph(512, avg_degree=5, seed=7)
        choice = recommend(graph, objective="latency")
        assert choice.format_name != "dia"


class TestInsight3DiaShinesOnStructuredBands:
    """"For structured band matrices, a pattern-specific format such
    as DIA near-perfectly utilizes the memory bandwidth and does it
    better as the partition size increases." """

    def test_dia_bandwidth_near_one_on_diagonal(self):
        matrix = diagonal_matrix(512, seed=0)
        result = SpmvSimulator(CONFIG).characterize(matrix, "dia")
        assert result.bandwidth_utilization > 0.9

    def test_dia_bandwidth_improves_with_partition_size(self):
        matrix = band_matrix(512, 4, seed=0)
        utilizations = []
        for p in (8, 16, 32):
            simulator = SpmvSimulator(CONFIG.with_partition_size(p))
            utilizations.append(
                simulator.characterize(matrix, "dia")
                .bandwidth_utilization
            )
        assert utilizations[0] < utilizations[1] < utilizations[2]

    def test_dia_best_bandwidth_of_all_formats_on_bands(self):
        matrix = band_matrix(512, 4, seed=0)
        simulator = SpmvSimulator(CONFIG)
        results = simulator.characterize_formats(matrix, PAPER_FORMATS)
        best = max(
            results.values(), key=lambda r: r.bandwidth_utilization
        )
        assert best.format_name == "dia"

    def test_but_the_mismatch_shows_in_compute(self):
        """"Otherwise, the mismatch would create a computation
        bottleneck" — DIA's balance stays compute-leaning on bands
        narrower than the engine."""
        matrix = band_matrix(512, 4, seed=0)
        result = SpmvSimulator(CONFIG).characterize(matrix, "dia")
        assert result.balance_ratio < 1.0


class TestInsight4SmallPartitionsForDenseMl:
    """"For less sparse (density > 0.1) applications ... optimizations
    beyond simple partitioning of size 8x8 or at most 16x16 hurt the
    performance."

    What this model reproduces is the *mechanism* behind the insight:
    the decompression overhead relative to dense grows with the
    partition size at ML densities, and the latency returns of larger
    partitions diminish sharply.  The absolute "32x32 is slower"
    outcome does not emerge here (per-partition setup amortizes
    instead); EXPERIMENTS.md records the deviation.
    """

    @pytest.mark.parametrize("fmt", ["csr", "coo", "csc"])
    def test_relative_overhead_grows_with_partition_size(self, fmt):
        matrix = random_matrix(512, 0.3, seed=0)
        sigmas = []
        for p in (8, 16, 32):
            simulator = SpmvSimulator(CONFIG.with_partition_size(p))
            sigmas.append(simulator.characterize(matrix, fmt).sigma)
        assert sigmas[0] < sigmas[-1]

    @pytest.mark.parametrize("fmt", ["bcsr", "dense", "ell"])
    def test_latency_returns_diminish_past_16(self, fmt):
        matrix = random_matrix(512, 0.3, seed=0)
        cycles = {}
        for p in (8, 16, 32):
            simulator = SpmvSimulator(CONFIG.with_partition_size(p))
            cycles[p] = simulator.characterize(matrix, fmt).total_cycles
        gain_8_to_16 = cycles[8] / cycles[16]
        gain_16_to_32 = cycles[16] / cycles[32]
        assert gain_16_to_32 < gain_8_to_16

    def test_bcsr_sigma_worsens_with_partition_size_on_ml_data(self):
        """Figure 7's random-group BCSR trend, the paper's stated
        reason larger partitions stop paying off."""
        matrix = random_matrix(512, 0.3, seed=1)
        sigmas = []
        for p in (16, 32):
            simulator = SpmvSimulator(CONFIG.with_partition_size(p))
            sigmas.append(simulator.characterize(matrix, "bcsr").sigma)
        assert sigmas[1] > sigmas[0]


class TestHeadlineWorstCase:
    """The abstract's core warning: a sparse format's decompression
    "can potentially create a computation bottleneck" that erases the
    transfer win."""

    def test_csc_slower_than_processing_zeros(self):
        """CSC moves ~8x less data than dense yet finishes later."""
        matrix = random_matrix(512, 0.3, seed=0)
        simulator = SpmvSimulator(CONFIG)
        dense = simulator.characterize(matrix, "dense")
        csc = simulator.characterize(matrix, "csc")
        assert csc.total_bytes < 0.7 * dense.total_bytes
        assert csc.total_cycles > 2 * dense.total_cycles

    def test_sigma_and_wall_clock_tell_the_same_story(self):
        matrix = random_matrix(512, 0.3, seed=0)
        simulator = SpmvSimulator(CONFIG)
        results = simulator.characterize_formats(matrix, PAPER_FORMATS)
        by_sigma = sorted(results, key=lambda n: results[n].sigma)
        # compute-dominated regime: sigma ranking ~ latency ranking
        by_latency = sorted(
            results, key=lambda n: results[n].total_cycles
        )
        distance = sum(
            abs(by_sigma.index(name) - by_latency.index(name))
            for name in results
        )
        assert distance <= 2 * len(results)
        assert not math.isnan(results["csc"].sigma)
