"""The sweep engine: parallel == sequential, caching, error surfacing."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.engine import (
    CacheStats,
    CellTelemetry,
    ContentKeyedCache,
    RunTelemetry,
    SweepCell,
    SweepRunner,
    WorkloadSpec,
    build_grid,
    matrix_content_key,
    run_sweep,
    workload_recipe_digest,
)
from repro.core.simulator import SpmvSimulator
from repro.errors import CopernicusError, SweepCellError, SweepConfigError
from repro.hardware.config import DEFAULT_CONFIG
from repro.observability import read_manifest
from repro.formats import PAPER_FORMATS
from repro.partition import PARTITION_SIZES
from repro.workloads import Workload, band_matrix, random_matrix

#: A compact Figure-9-style grid: band + random workloads crossed with
#: every paper format and partition size.
FIG9_SPECS = (
    WorkloadSpec.band(128, 4, seed=0),
    WorkloadSpec.band(128, 16, seed=0),
    WorkloadSpec.random(128, 0.01, seed=0),
    WorkloadSpec.random(128, 0.05, seed=0),
)


def small_workloads() -> list[Workload]:
    return [
        Workload("rand-a", "random", random_matrix(96, 0.05, seed=1)),
        Workload("band-b", "band", band_matrix(96, 4, seed=1)),
    ]


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
class TestGrid:
    def test_build_grid_order_and_size(self):
        workloads = small_workloads()
        cells = build_grid(workloads, ("csr", "coo"), (8, 16))
        assert len(cells) == 2 * 2 * 2
        # workload-major, then partition size, then format.
        assert [c.coords for c in cells[:4]] == [
            ("rand-a", "csr", 8),
            ("rand-a", "coo", 8),
            ("rand-a", "csr", 16),
            ("rand-a", "coo", 16),
        ]

    def test_cell_resolved_config_applies_partition(self):
        cell = build_grid(small_workloads(), ("csr",), (32,))[0]
        assert cell.resolved_config.partition_size == 32

    def test_chunking_groups_by_workload(self):
        cells = build_grid(small_workloads(), ("csr", "coo"), (8, 16))
        chunks = SweepRunner.chunk_cells(cells, target_chunks=2)
        assert len(chunks) == 2
        for chunk in chunks:
            names = {cell.workload_name for _, cell in chunk}
            assert len(names) == 1

    def test_chunking_refines_when_workloads_are_scarce(self):
        cells = build_grid(small_workloads()[:1], ("csr", "coo"), (8, 16))
        chunks = SweepRunner.chunk_cells(cells, target_chunks=4)
        # one workload cannot fill four workers at workload granularity,
        # so chunks split by partition size (formats stay together).
        assert len(chunks) == 2
        for chunk in chunks:
            sizes = {cell.partition_size for _, cell in chunk}
            assert len(sizes) == 1


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class TestCache:
    def test_content_key_ignores_object_identity(self):
        a = random_matrix(64, 0.1, seed=9)
        b = random_matrix(64, 0.1, seed=9)
        assert a is not b
        assert matrix_content_key(a) == matrix_content_key(b)

    def test_content_key_distinguishes_content(self):
        a = random_matrix(64, 0.1, seed=9)
        b = random_matrix(64, 0.1, seed=10)
        assert matrix_content_key(a) != matrix_content_key(b)

    def test_get_or_create_counts_hits_and_misses(self):
        cache = ContentKeyedCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_create(
                ("profiles", "k"), lambda: calls.append(1) or "v"
            )
            assert value == "v"
        assert len(calls) == 1
        assert cache.stats.hits_for("profiles") == 2
        assert cache.stats.misses_for("profiles") == 1

    def test_stats_merge(self):
        a = CacheStats({"x": 1}, {"x": 2})
        b = CacheStats({"x": 10, "y": 1}, {})
        merged = a.merged(b)
        assert merged.hits == {"x": 11, "y": 1}
        assert merged.misses == {"x": 2}
        assert merged.total_hits == 12
        assert merged.total_misses == 2


# ----------------------------------------------------------------------
# Sequential vs parallel equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestRunnerEquivalence:
    def test_fig9_style_parallel_matches_sequential(self):
        """A Figure-9-style sweep: identical results on 1 vs 4 workers,
        with the encode cache demonstrably hitting."""
        sequential = run_sweep(
            FIG9_SPECS, PAPER_FORMATS, PARTITION_SIZES,
            max_workers=1, encode=True,
        )
        parallel = run_sweep(
            FIG9_SPECS, PAPER_FORMATS, PARTITION_SIZES,
            max_workers=4, encode=True,
        )
        assert len(sequential) == len(FIG9_SPECS) * len(PAPER_FORMATS) * len(
            PARTITION_SIZES
        )
        # cell-for-cell identity, in grid order.
        assert len(sequential) == len(parallel)
        for left, right in zip(sequential.results, parallel.results):
            assert left == right
        # one encoding per (workload, format), identical accounting.
        assert sequential.encodings.keys() == parallel.encodings.keys()
        for key, summary in sequential.encodings.items():
            assert parallel.encodings[key] == summary
        # the encode cache hit in both modes: each (workload, format)
        # encodes once and is reused for the other partition sizes.
        assert sequential.stats.hits_for("encode") > 0
        assert parallel.stats.hits_for("encode") > 0

    def test_materialized_workloads_match_specs(self):
        specs = [WorkloadSpec.random(96, 0.05, seed=1, name="rand-a"),
                 WorkloadSpec.band(96, 4, seed=1, name="band-b")]
        from_specs = run_sweep(specs, ("csr", "dia"), (16,))
        from_workloads = run_sweep(small_workloads(), ("csr", "dia"), (16,))
        assert from_specs.results == from_workloads.results

    def test_slice_reuse_keys_on_the_whole_config(self):
        """Configs differing only outside ``partition_size`` never share
        a resolved config or a static estimate, even in adjacent cells."""
        checked = replace(
            DEFAULT_CONFIG, integrity_check=True, clock_mhz=200.0
        )
        cells = [
            SweepCell(workload, name, p, config)
            for workload in small_workloads()
            for p in (8, 16)
            for config in (DEFAULT_CONFIG, checked)
            for name in ("csr", "coo")
        ]
        results = SweepRunner().run(cells).results
        assert len(results) == len(cells)
        by_cell = {}
        for cell, result in zip(cells, results):
            assert result == SpmvSimulator(cell.resolved_config).characterize(
                cell.workload.matrix, cell.format_name, cell.workload_name
            )
            by_cell[cell.coords, cell.config] = result
        for coords in {cell.coords for cell in cells}:
            plain = by_cell[coords, DEFAULT_CONFIG]
            assert plain.resources is not by_cell[coords, checked].resources
            assert plain.power is not by_cell[coords, checked].power

    def test_empty_grid(self):
        outcome = SweepRunner().run([])
        assert outcome.results == []
        assert outcome.stats.total_hits == 0


# ----------------------------------------------------------------------
# Cache observability through the runner
# ----------------------------------------------------------------------
class TestRunnerCaching:
    def test_profile_cache_hits_across_formats(self):
        outcome = run_sweep(small_workloads(), ("csr", "coo", "ell"), (16,))
        # per workload: one profile miss, then two hits (coo, ell).
        assert outcome.stats.misses_for("profiles") == 2
        assert outcome.stats.hits_for("profiles") == 4

    def test_matrix_cache_hits_for_spec_cells(self):
        outcome = run_sweep(
            [WorkloadSpec.random(96, 0.05, seed=1)], ("csr", "coo"), (8, 16),
        )
        # the matrix materializes once; the other three cells hit.
        assert outcome.stats.misses_for("matrix") == 1
        assert outcome.stats.hits_for("matrix") == 3

    def test_sequential_cache_is_shared_across_chunks(self):
        # two workloads with *identical* content dedupe across chunks
        # in the sequential path (one cache spans the whole grid).
        twins = [
            Workload("twin-a", "random", random_matrix(96, 0.05, seed=7)),
            Workload("twin-b", "random", random_matrix(96, 0.05, seed=7)),
        ]
        outcome = run_sweep(twins, ("csr",), (16,))
        assert outcome.stats.misses_for("profiles") == 1
        assert outcome.stats.hits_for("profiles") == 1

    def test_outcome_lookup(self):
        outcome = run_sweep(small_workloads(), ("csr",), (16,))
        result = outcome.result("rand-a", "csr", 16)
        assert result.workload == "rand-a"
        assert result.format_name == "csr"
        assert result.partition_size == 16


# ----------------------------------------------------------------------
# Failure surfacing
# ----------------------------------------------------------------------
class TestRunnerErrors:
    def bad_grid(self) -> list[SweepCell]:
        cells = build_grid(small_workloads(), ("csr",), (16,))
        bad = SweepCell(
            workload=cells[-1].workload,
            format_name="no-such-format",
            partition_size=16,
        )
        return cells + [bad]

    def test_sequential_failure_names_the_cell(self):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                max_workers=1, error_policy="fail_fast"
            ).run(self.bad_grid())
        assert excinfo.value.coords == ("band-b", "no-such-format", 16)
        assert "no-such-format" in str(excinfo.value)

    def test_parallel_failure_names_the_cell(self):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(
                max_workers=2, error_policy="fail_fast"
            ).run(self.bad_grid())
        assert excinfo.value.coords == ("band-b", "no-such-format", 16)

    def test_default_policy_collects_instead_of_raising(self):
        # error_policy defaults to "collect": the bad cell becomes a
        # FailedCell and every healthy cell still gets its result.
        outcome = SweepRunner(max_workers=1).run(self.bad_grid())
        assert not outcome.ok
        assert outcome.n_failed == 1
        failed = outcome.failure("band-b", "no-such-format", 16)
        assert "no-such-format" in failed.message
        assert len(outcome.results) == len(self.bad_grid()) - 1
        with pytest.raises(SweepCellError):
            outcome.raise_if_failed()

    def test_all_zero_matrix_failure_is_annotated(self):
        from repro.matrix import SparseMatrix

        empty = Workload("empty", "test", SparseMatrix.empty((32, 32)))
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep([empty], ("csr",), (16,), error_policy="fail_fast")
        assert excinfo.value.coords == ("empty", "csr", 16)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)

    @pytest.mark.parametrize("workers", [0, -1, -16])
    def test_bad_worker_counts_raise_copernicus_error(self, workers):
        """`--workers 0` and friends must fail as a library error the
        CLI can render, not a raw traceback."""
        with pytest.raises(CopernicusError) as excinfo:
            SweepRunner(max_workers=workers)
        assert isinstance(excinfo.value, SweepConfigError)
        assert str(workers) in str(excinfo.value)

    def test_non_integer_worker_count_rejected(self):
        with pytest.raises(SweepConfigError):
            SweepRunner(max_workers=2.5)
        with pytest.raises(SweepConfigError):
            SweepRunner(max_workers=True)


# ----------------------------------------------------------------------
# Process-boundary contracts: everything a worker returns must pickle
# ----------------------------------------------------------------------
class TestPickling:
    def test_sweep_cell_error_keeps_coords(self):
        error = SweepCellError(("band-b", "csr", 16), "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SweepCellError)
        assert clone.coords == ("band-b", "csr", 16)
        assert clone.reason == "boom"
        assert "band-b" in str(clone)

    def test_cell_telemetry_pickles(self):
        cell = CellTelemetry(
            index=3,
            workload="band-4",
            format_name="csr",
            partition_size=16,
            cache_key="ab" * 16,
            wall_s=0.25,
        )
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.coords == ("band-4", "csr", 16)

    def test_run_telemetry_pickles_with_metrics(self):
        outcome = run_sweep(
            [WorkloadSpec.random(96, 0.05, seed=1)],
            ("csr",),
            (16,),
            telemetry=True,
        )
        clone = pickle.loads(pickle.dumps(outcome.telemetry))
        assert isinstance(clone, RunTelemetry)
        assert [c.index for c in clone.cells] == [
            c.index for c in outcome.telemetry.cells
        ]
        assert (
            clone.metrics.counters == outcome.telemetry.metrics.counters
        )
        assert clone.digest() == outcome.telemetry.digest()

    def test_cache_stats_pickle(self):
        stats = CacheStats({"profiles": 2}, {"profiles": 1})
        assert pickle.loads(pickle.dumps(stats)) == stats


# ----------------------------------------------------------------------
# Telemetry: 1-worker and 2-worker runs are semantically equivalent
# ----------------------------------------------------------------------
class TestTelemetryEquivalence:
    """The observability acceptance criterion: same grid, different
    worker counts -> identical cell results AND semantically equivalent
    manifests (same cells, same cache-key set, merged counters)."""

    GRID = (
        WorkloadSpec.random(96, 0.05, seed=1),
        WorkloadSpec.band(96, 4, seed=1),
    )
    FORMATS = ("csr", "coo", "dia")
    PARTITIONS = (8, 16)

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("manifests")
        outcomes, manifests = {}, {}
        for workers in (1, 2):
            outcome = run_sweep(
                self.GRID,
                self.FORMATS,
                self.PARTITIONS,
                max_workers=workers,
                telemetry=True,
            )
            outcomes[workers] = outcome
            manifests[workers] = read_manifest(
                outcome.write_manifest(tmp / f"w{workers}.jsonl")
            )
        return outcomes, manifests

    def test_cell_results_identical(self, runs):
        outcomes, _ = runs
        assert outcomes[1].results == outcomes[2].results

    def test_manifest_cells_and_cache_keys_match(self, runs):
        _, manifests = runs
        assert (
            manifests[1].cell_coords() == manifests[2].cell_coords()
        )
        assert manifests[1].cache_keys() == manifests[2].cache_keys()
        assert manifests[1].recipes() == manifests[2].recipes()
        # deterministic model metrics agree cell by cell.
        def by_coords(manifest):
            return {
                (c["workload"], c["format"], c["partition_size"]): c
                for c in manifest.cells
            }

        one, two = by_coords(manifests[1]), by_coords(manifests[2])
        for coords, cell in one.items():
            for metric in ("total_cycles", "sigma", "total_bytes"):
                assert cell[metric] == two[coords][metric], coords

    def test_run_digests_match(self, runs):
        outcomes, _ = runs
        assert (
            outcomes[1].telemetry.digest()
            == outcomes[2].telemetry.digest()
        )

    def test_counters_are_merged_not_lost(self, runs):
        outcomes, manifests = runs
        for workers in (1, 2):
            outcome, manifest = outcomes[workers], manifests[workers]
            counters = manifest.counters()
            # every executed cell is counted exactly once...
            assert counters["sweep.cells"] == len(outcome.results)
            # ...and the manifest's cache counters equal the runner's
            # merged stats (the sum over all workers).
            for kind, count in outcome.stats.hits.items():
                assert counters[f"cache.{kind}.hits"] == count
            for kind, count in outcome.stats.misses.items():
                assert counters[f"cache.{kind}.misses"] == count
            timer = outcome.telemetry.metrics.timer("sweep.cell")
            assert timer.count == len(outcome.results)

    def test_telemetry_off_produces_identical_results(self, runs):
        outcomes, _ = runs
        plain = run_sweep(
            self.GRID, self.FORMATS, self.PARTITIONS, max_workers=1
        )
        assert plain.telemetry is None
        assert plain.results == outcomes[1].results
        assert plain.stats.hits == outcomes[1].stats.hits
        assert plain.stats.misses == outcomes[1].stats.misses


# ----------------------------------------------------------------------
# Telemetry plumbing details
# ----------------------------------------------------------------------
class TestTelemetryPlumbing:
    def test_cells_come_back_in_grid_order(self):
        outcome = run_sweep(
            small_workloads(), ("csr", "coo"), (8, 16),
            max_workers=2, telemetry=True,
        )
        indexes = [cell.index for cell in outcome.telemetry.cells]
        assert indexes == list(range(len(outcome.results)))
        for cell, result in zip(
            outcome.telemetry.cells, outcome.results
        ):
            assert cell.coords == (
                result.workload,
                result.format_name,
                result.partition_size,
            )

    def test_empty_grid_with_telemetry(self):
        outcome = SweepRunner(telemetry=True).run([])
        assert outcome.telemetry is not None
        assert outcome.telemetry.cells == []
        assert outcome.telemetry.n_chunks == 0

    def test_recipe_digest_spec_vs_materialized(self):
        spec = WorkloadSpec.random(96, 0.05, seed=1, name="rand-a")
        materialized = Workload(
            "rand-a", "random", random_matrix(96, 0.05, seed=1)
        )
        # spec digests hash the recipe, matrices hash their content —
        # both are deterministic, but deliberately different spaces.
        assert workload_recipe_digest(spec) == spec.recipe_digest
        assert workload_recipe_digest(materialized) == (
            matrix_content_key(materialized.matrix)
        )
