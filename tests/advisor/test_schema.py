"""Golden-schema tests for the advisor artifacts.

Mirrors the serve golden-schema suite: the exact field sets of
``advisor_model/v1`` and the advisor suite's ``bench/v2`` report are
pinned here, along
with the self-verification contract — digest stability across
spelling, reject-on-unknown-version, reject-on-tamper, and
reject-on-feature-mismatch.
"""

from __future__ import annotations

import json

import pytest

from repro.advisor import (
    ADVISOR_MODEL_SCHEMA,
    FEATURE_NAMES,
    bench_advisor,
    load_model,
    model_from_payload,
    save_model,
)
from repro.advisor.bench import SUITE
from repro.envelope import BENCH_SCHEMA, envelope
from repro.errors import AdvisorModelError
from tests.advisor.conftest import tiny_specs

#: advisor_model/v1 golden field sets — update only with a schema bump.
MODEL_FIELDS = {
    "schema", "feature_p", "block_size", "sample_cap", "ridge_lambda",
    "features", "standardize", "heads", "training", "digest",
}
HEAD_FIELDS = {"format", "partition_size", "bias", "weights"}

#: bench/v2 golden field sets of the advisor suite.
BENCH_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "model", "accuracy", "latency", "per_workload",
}
GATE_FIELDS = {"name", "path", "op", "bound", "value", "passed"}
MACHINE_FIELDS = {
    "cpu_count", "platform", "machine", "python", "implementation",
}
BENCH_MODEL_FIELDS = {
    "digest", "feature_p", "n_features", "n_heads", "ridge_lambda",
    "training",
}
BENCH_CONFIG_FIELDS = {
    "objective", "formats", "partitions", "n_heldout", "n_cells",
    "repeats",
}
BENCH_ACCURACY_FIELDS = {
    "spearman_mean", "spearman_min", "top1_agreement", "top3_agreement",
}
BENCH_LATENCY_FIELDS = {
    "per_workload", "exact_ms_geomean", "fast_ms_geomean",
    "speedup_geomean", "speedup_min",
}
BENCH_WORKLOAD_FIELDS = {
    "workload", "recipe_digest", "spearman", "exact_best",
    "predicted_best", "top1", "top3",
}


def test_schema_version_strings() -> None:
    assert ADVISOR_MODEL_SCHEMA == "advisor_model/v1"
    assert BENCH_SCHEMA == "bench/v2"
    assert [(g.name, g.path, g.op, g.bound) for g in SUITE.gates] == [
        ("spearman_mean", "accuracy.spearman_mean", ">=", 0.9),
        ("top3_agreement", "accuracy.top3_agreement", ">=", 0.95),
        ("speedup_min", "latency.speedup_min", ">=", 50),
    ]
    # no quick mode: --quick runs full size with every gate
    assert SUITE.quick_gates is None
    assert SUITE.resolve(quick=True) == SUITE.resolve()


class TestModelArtifact:
    def test_field_sets(self, tiny_model) -> None:
        payload = tiny_model.to_payload()
        assert set(payload) == MODEL_FIELDS
        assert payload["schema"] == ADVISOR_MODEL_SCHEMA
        assert payload["features"] == list(FEATURE_NAMES)
        assert set(payload["standardize"]) == {"mean", "scale"}
        for head in payload["heads"]:
            assert set(head) == HEAD_FIELDS

    def test_digest_is_stable_across_key_order(self, tiny_model) -> None:
        payload = tiny_model.to_payload()
        reordered = json.loads(
            json.dumps(payload, sort_keys=True)
        )
        assert model_from_payload(reordered).digest == tiny_model.digest

    def test_save_load_round_trip(self, tiny_model, tmp_path) -> None:
        path = save_model(tiny_model, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded == tiny_model
        assert loaded.digest == tiny_model.digest

    def test_unknown_schema_version_is_rejected(
        self, tiny_model
    ) -> None:
        payload = tiny_model.to_payload()
        payload["schema"] = "advisor_model/v999"
        with pytest.raises(AdvisorModelError, match="unsupported"):
            model_from_payload(payload)

    def test_feature_schema_mismatch_is_rejected(
        self, tiny_model
    ) -> None:
        payload = tiny_model.to_payload()
        payload["features"] = payload["features"][:-1] + ["bogus"]
        with pytest.raises(AdvisorModelError, match="feature schema"):
            model_from_payload(payload)

    def test_tampered_weights_are_rejected(self, tiny_model) -> None:
        payload = tiny_model.to_payload()
        payload["heads"][0]["bias"] += 1.0
        with pytest.raises(AdvisorModelError, match="digest mismatch"):
            model_from_payload(payload)

    def test_missing_file_is_a_typed_error(self, tmp_path) -> None:
        with pytest.raises(AdvisorModelError, match="cannot read"):
            load_model(tmp_path / "nope.json")

    def test_non_json_file_is_a_typed_error(self, tmp_path) -> None:
        path = tmp_path / "garbage.json"
        path.write_text("}{ not json")
        with pytest.raises(AdvisorModelError, match="not valid JSON"):
            load_model(path)


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self, tiny_model) -> dict:
        specs = tiny_specs()
        sections = bench_advisor(
            tiny_model,
            specs[:2],
            repeats=1,
            latency_specs=specs[2:3],
        )
        config = sections.pop("config")
        return envelope("advisor", config, sections, SUITE.gates)

    def test_field_sets(self, report, tiny_model) -> None:
        assert set(report) == BENCH_FIELDS
        assert report["schema"] == BENCH_SCHEMA
        assert report["suite"] == "advisor"
        assert set(report["machine"]) == MACHINE_FIELDS
        assert [g["name"] for g in report["gates"]] == [
            "spearman_mean", "top3_agreement", "speedup_min",
        ]
        for gate in report["gates"]:
            assert set(gate) == GATE_FIELDS
        assert set(report["model"]) == BENCH_MODEL_FIELDS
        assert report["model"]["digest"] == tiny_model.digest
        assert set(report["config"]) == BENCH_CONFIG_FIELDS
        assert set(report["accuracy"]) == BENCH_ACCURACY_FIELDS
        assert set(report["latency"]) == BENCH_LATENCY_FIELDS
        for row in report["per_workload"]:
            assert set(row) == BENCH_WORKLOAD_FIELDS
        for row in report["latency"]["per_workload"]:
            assert set(row) == {
                "workload", "nnz", "exact_ms", "fast_ms", "speedup",
            }

    def test_report_is_json_serializable(self, report) -> None:
        encoded = json.dumps(report, sort_keys=True)
        assert json.loads(encoded) == report

    def test_agreement_rates_are_fractions(self, report) -> None:
        accuracy = report["accuracy"]
        for key in BENCH_ACCURACY_FIELDS:
            assert -1.0 <= accuracy[key] <= 1.0
