"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SpmvSimulator, HardwareConfig
from repro.analysis import characterization_report
from repro.apps import (
    PartitionedSpmvEngine,
    conjugate_gradient,
    pagerank,
)
from repro.core import (
    load_records,
    records_by,
    save_results,
    summarize,
    sweep_formats,
)
from repro.core.recommend import recommend
from repro.formats import PAPER_FORMATS, get_format
from repro.hardware import build_listing, schedule_cycles, trace_pipeline
from repro.io import read_matrix_market, write_matrix_market
from repro.partition import partition_matrix, profile_table
from repro.workloads import (
    Workload,
    poisson_2d,
    power_law_graph,
    random_matrix,
    random_vector,
    standin_by_id,
)


class TestFileToRecommendation:
    """mtx file -> load -> characterize -> recommend -> report."""

    def test_full_flow(self, tmp_path):
        original = standin_by_id("DW", max_dim=1024, seed=0)
        path = tmp_path / "dwt.mtx"
        write_matrix_market(original, path, comment="stand-in for dwt_918")
        matrix = read_matrix_market(path)
        assert matrix == original

        choice = recommend(matrix, objective="latency")
        assert choice.format_name in PAPER_FORMATS

        report = characterization_report(matrix, name="dwt-standin")
        assert choice.format_name in report

    def test_results_persist_and_reload(self, tmp_path):
        load = Workload(
            "int", "random", random_matrix(96, 0.05, seed=1), 0.05
        )
        results = sweep_formats(load, PAPER_FORMATS)
        path = tmp_path / "results.json"
        save_results(results, path)
        records = load_records(path)
        dense = records_by(records, format_name="dense")[0]
        assert dense["sigma"] == 1.0
        # the reloaded records support the same aggregation as live ones
        sigmas = {r["format"]: r["sigma"] for r in records}
        assert max(sigmas, key=sigmas.get) == "csc"


class TestFunctionalVsTimingConsistency:
    """The functional engine and the timing model must agree on the
    partition structure they process."""

    def test_engine_tiles_equal_profile_count(self):
        matrix = power_law_graph(256, avg_degree=4, seed=2)
        engine = PartitionedSpmvEngine(matrix, "csr", 16)
        profiles = profile_table(matrix, 16)
        assert engine.n_tiles == len(profiles)

    def test_profile_nnz_totals_match_matrix(self):
        matrix = random_matrix(128, 0.07, seed=3)
        profiles = profile_table(matrix, 16)
        assert sum(p.nnz for p in profiles) == matrix.nnz

    def test_three_latency_views_are_ordered(self):
        """closed form <= trace <= closed form + drain slack."""
        matrix = random_matrix(128, 0.1, seed=4)
        config = HardwareConfig(partition_size=16)
        simulator = SpmvSimulator(config)
        profiles = simulator.profile_table(matrix)
        for name in PAPER_FORMATS:
            result = simulator.run_format(name, profiles, "x")
            trace = trace_pipeline(config, name, profiles)
            steady = sum(
                t.steady_state_cycles for t in result.pipeline.timings
            )
            assert steady <= trace.total_cycles
            assert trace.total_cycles <= result.total_cycles * 1.3 + 500

    def test_hls_schedule_agrees_with_simulator_compute(self):
        matrix = random_matrix(128, 0.1, seed=5)
        config = HardwareConfig(partition_size=16)
        simulator = SpmvSimulator(config)
        profiles = simulator.profile_table(matrix)
        for name in ("csr", "coo", "ell", "dia"):
            result = simulator.run_format(name, profiles, "x")
            scheduled = sum(
                schedule_cycles(build_listing(name, p, config))
                for p in profiles
            )
            assert scheduled == result.compute_cycles, name


class TestApplicationsShareTheKernel:
    def test_cg_and_pagerank_on_same_formats(self):
        pde = poisson_2d(8)
        graph = power_law_graph(64, avg_degree=4, seed=6)
        for name in ("csr", "coo", "bcsr"):
            cg = conjugate_gradient(
                pde, random_vector(64, seed=7), format_name=name,
                tol=1e-9,
            )
            assert cg.converged, name
            pr = pagerank(graph, format_name=name)
            assert pr.converged, name

    def test_every_format_reproduces_the_same_spmv(self):
        matrix = standin_by_id("RE", max_dim=512, seed=0)
        x = random_vector(matrix.n_cols, seed=8)
        reference = matrix.spmv(x)
        for name in PAPER_FORMATS:
            engine = PartitionedSpmvEngine(matrix, name, 16)
            assert np.allclose(engine.multiply(x), reference), name


class TestSummaryOverFullCube:
    def test_summary_consistent_with_recommendation(self):
        matrix = random_matrix(128, 0.03, seed=9)
        config = HardwareConfig(partition_size=16)
        simulator = SpmvSimulator(config)
        profiles = simulator.profile_table(matrix)
        results = [
            simulator.run_format(name, profiles, "w")
            for name in PAPER_FORMATS
        ]
        scores = {s.format_name: s for s in summarize(results,
                                                      PAPER_FORMATS)}
        fastest = min(results, key=lambda r: r.total_cycles)
        assert scores[fastest.format_name].scores["latency"] == 1.0

    def test_format_roundtrip_through_partitioned_path(self):
        """Tiles encoded per-partition decode back to the matrix."""
        matrix = random_matrix(96, 0.08, seed=10)
        for name in PAPER_FORMATS:
            fmt = get_format(name)
            tiles = partition_matrix(matrix, 16)
            rebuilt_tiles = [
                type(tile)(tile.grid_row, tile.grid_col,
                           fmt.decode(fmt.encode(tile.block)))
                for tile in tiles
            ]
            from repro.partition import reassemble

            assert reassemble(matrix.shape, rebuilt_tiles, 16) == matrix
