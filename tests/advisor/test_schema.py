"""Golden-schema tests for the ``repro bench advisor`` report.

Pins the exact field sets of the suite's ``bench/v2`` report, its
gates, and the rank statistics it scores with (``rankdata`` and
``spearman`` tie handling, by table).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench_advisor import (
    SUITE,
    advisor_sections,
    rankdata,
    spearman,
)
from repro.engine.specs import WorkloadSpec
from repro.envelope import BENCH_SCHEMA, envelope
from repro.errors import SimulationError

#: bench/v2 golden field sets of the advisor suite.
BENCH_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "accuracy", "latency", "per_workload",
}
GATE_FIELDS = {"name", "path", "op", "bound", "value", "passed"}
MACHINE_FIELDS = {
    "cpu_count", "platform", "machine", "python", "implementation",
}
BENCH_CONFIG_FIELDS = {
    "objective", "formats", "partitions", "sample", "n_workloads",
}
BENCH_SAMPLE_FIELDS = {"band_rows", "every", "offset", "floor_bands"}
BENCH_ACCURACY_FIELDS = {
    "spearman_mean", "spearman_min", "top1_agreement", "top3_agreement",
    "regret_max",
}
BENCH_LATENCY_FIELDS = {
    "exact_ms_geomean", "sampled_ms_geomean", "speedup_geomean",
    "speedup_min",
}
BENCH_WORKLOAD_FIELDS = {
    "workload", "n", "nnz", "spearman", "exact_best", "sampled_best",
    "top1", "top3", "regret", "exact_ms", "sampled_ms", "speedup",
}


def test_schema_version_strings() -> None:
    assert BENCH_SCHEMA == "bench/v2"
    assert [(g.name, g.path, g.op, g.bound) for g in SUITE.gates] == [
        ("spearman_mean", "accuracy.spearman_mean", ">=", 0.9),
        ("top3_agreement", "accuracy.top3_agreement", ">=", 0.95),
        ("speedup_geomean", "latency.speedup_geomean", ">=", 1.5),
    ]
    # no quick mode: --quick runs full size with every gate
    assert SUITE.quick_gates is None
    assert SUITE.resolve(quick=True) == SUITE.resolve()


class TestRankStatistics:
    @pytest.mark.parametrize(
        "values, ranks",
        [
            ([], []),
            ([5.0], [1.0]),
            ([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]),
            ([1.0, 1.0], [1.5, 1.5]),
            ([2.0, 1.0, 2.0, 3.0], [2.5, 1.0, 2.5, 4.0]),
            ([7.0, 7.0, 7.0], [2.0, 2.0, 2.0]),
            ([0.0, 4.0, 4.0, 1.0, 4.0], [1.0, 4.0, 4.0, 2.0, 4.0]),
        ],
    )
    def test_rankdata_shares_ties(self, values, ranks) -> None:
        assert rankdata(values).tolist() == ranks

    @pytest.mark.parametrize(
        "a, b, rho",
        [
            ([1, 2, 3], [10, 20, 30], 1.0),
            ([1, 2, 3], [30, 20, 10], -1.0),
            ([1, 2, 3, 4], [1, 3, 2, 4], 0.8),
            # ties: ranks (1.5, 1.5, 3) against (1, 2, 3)
            ([1, 1, 2], [1, 2, 3], 0.8660254037844387),
            # a constant side has no order to disagree with
            ([4, 4, 4], [1, 2, 3], 1.0),
            ([9], [2], 1.0),
        ],
    )
    def test_spearman_table(self, a, b, rho) -> None:
        assert spearman(a, b) == pytest.approx(rho, abs=1e-12)
        assert spearman(b, a) == pytest.approx(rho, abs=1e-12)


#: Two matrices at the sampling floor, small enough for a unit test.
SPECS = (
    WorkloadSpec.random(2048, 0.002, seed=3, name="r2048"),
    WorkloadSpec.band(2048, 8, seed=4, name="b2048"),
)


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self) -> dict:
        sections = advisor_sections(seed=11, repeats=1, specs=SPECS)
        config = sections.pop("config")
        return envelope("advisor", config, sections, SUITE.gates)

    def test_field_sets(self, report) -> None:
        assert set(report) == BENCH_FIELDS
        assert report["schema"] == BENCH_SCHEMA
        assert report["suite"] == "advisor"
        assert set(report["machine"]) == MACHINE_FIELDS
        assert [g["name"] for g in report["gates"]] == [
            "spearman_mean", "top3_agreement", "speedup_geomean",
        ]
        for gate in report["gates"]:
            assert set(gate) == GATE_FIELDS
        assert set(report["config"]) == BENCH_CONFIG_FIELDS
        assert set(report["config"]["sample"]) == BENCH_SAMPLE_FIELDS
        assert report["config"]["n_workloads"] == len(SPECS)
        assert set(report["accuracy"]) == BENCH_ACCURACY_FIELDS
        assert set(report["latency"]) == BENCH_LATENCY_FIELDS
        assert [row["workload"] for row in report["per_workload"]] == [
            spec.name for spec in SPECS
        ]
        for row in report["per_workload"]:
            assert set(row) == BENCH_WORKLOAD_FIELDS

    def test_report_is_json_serializable(self, report) -> None:
        encoded = json.dumps(report, sort_keys=True)
        assert json.loads(encoded) == report

    def test_agreement_rates_are_fractions(self, report) -> None:
        accuracy = report["accuracy"]
        for key in ("spearman_mean", "spearman_min", "top1_agreement",
                    "top3_agreement"):
            assert -1.0 <= accuracy[key] <= 1.0
        for row in report["per_workload"]:
            assert row["regret"] >= 0.0
            assert row["top3"] or not row["top1"]
            assert np.isfinite(row["speedup"])

    def test_a_matrix_that_runs_exact_stops_the_suite(self) -> None:
        small = WorkloadSpec.random(256, 0.05, seed=1, name="r256")
        with pytest.raises(SimulationError, match="r256.*ran exact"):
            advisor_sections(seed=11, repeats=1, specs=(small,))
