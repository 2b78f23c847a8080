"""Golden-schema tests for every payload the serving stack emits.

Mirrors the manifest golden-schema suite: the exact field sets of the
``serve/v1`` response bodies, the ``metrics/v1`` export, and the
loadgen ``bench/v2`` report are pinned here.  Adding, removing,
or renaming a field is a wire-contract change — it must bump the
schema tag and update these sets deliberately, never silently.
"""

from __future__ import annotations

import asyncio
import json

from repro.envelope import BENCH_SCHEMA
from repro.observability import METRICS_SCHEMA, MetricsRegistry, metrics_payload
from repro.serve import (
    SERVE_SCHEMA,
    SweepBackend,
    canonical_json,
    error_payload,
    health_payload,
    parse_query,
    query_digest,
)
from repro.serve.loadgen import RequestOutcome, bench_report
from repro.serve.protocol import CELL_FIELDS
from tests.serve.helpers import (
    characterize_payload,
    get_path,
    post_json,
    running_server,
)

WORKLOAD = {"kind": "random", "n": 32, "density": 0.1, "seed": 1}

#: serve/v1 golden field sets — update only with a schema bump.
CHARACTERIZE_FIELDS = {"schema", "endpoint", "digest", "query", "cells"}
ADVISE_FIELDS = CHARACTERIZE_FIELDS | {
    "objective", "best", "ranking", "n_rejected",
}
CELL_GOLDEN = {"format", "partition_size", *CELL_FIELDS}
ERROR_FIELDS = {"schema", "error"}
ERROR_DETAIL_FIELDS = {"type", "message", "status"}

#: metrics/v1 golden field set.
METRICS_FIELDS = {
    "schema", "counters", "timers", "spans", "n_spans_total", "extra",
}

#: loadgen bench/v2 golden field sets.
BENCH_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "requests", "wall_s", "throughput_rps", "latency_ms", "statuses",
    "retries", "n_5xx", "n_degraded", "sources", "hostile", "server",
}
BENCH_CONFIG_FIELDS = {"mix", "seed", "concurrency"}
BENCH_HOSTILE_FIELDS = {
    "requests", "statuses", "contained", "served_2xx", "worker_harm",
}
BENCH_RETRY_FIELDS = {"total", "requests_retried", "resolved_429"}
MACHINE_FIELDS = {
    "cpu_count", "platform", "machine", "python", "implementation",
}
BENCH_LATENCY_FIELDS = {"p50", "p90", "p99", "mean", "max"}
BENCH_SERVER_FIELDS = {
    "coalesce_hits", "coalesce_misses", "coalesce_hit_rate",
    "cache_hits", "cache_misses", "cache_hit_rate", "computations",
}


def test_schema_version_strings() -> None:
    assert SERVE_SCHEMA == "serve/v1"
    assert METRICS_SCHEMA == "metrics/v1"
    assert BENCH_SCHEMA == "bench/v2"


class TestServeV1Bodies:
    def _execute(self, endpoint: str, payload: dict) -> dict:
        query = parse_query(endpoint, payload)
        return SweepBackend().execute(query)

    def test_characterize_field_set(self) -> None:
        body = self._execute(
            "characterize",
            {"workload": WORKLOAD, "formats": ["coo"], "partitions": [8]},
        )
        assert set(body) == CHARACTERIZE_FIELDS
        assert body["schema"] == SERVE_SCHEMA
        assert body["endpoint"] == "characterize"
        for cell in body["cells"]:
            assert set(cell) == CELL_GOLDEN

    def test_characterize_query_echo_field_set(self) -> None:
        body = self._execute(
            "characterize",
            {"workload": WORKLOAD, "formats": ["coo"], "partitions": [8]},
        )
        assert set(body["query"]) == {
            "endpoint", "workload", "formats", "partitions",
        }

    def test_advise_field_set(self) -> None:
        body = self._execute(
            "advise",
            {
                "workload": WORKLOAD,
                "formats": ["coo", "csr"],
                "partitions": [8],
                "objective": "latency",
            },
        )
        assert set(body) == ADVISE_FIELDS
        assert set(body["best"]) == {"format", "partition_size", "value"}
        for entry in body["ranking"]:
            assert set(entry) == {"format", "partition_size", "value"}
        assert set(body["query"]) == {
            "endpoint", "workload", "formats", "partitions",
            "objective", "constraints",
        }

    def test_error_field_set(self) -> None:
        body = error_payload("ServeRequestError", "bad", 400)
        assert set(body) == ERROR_FIELDS
        assert set(body["error"]) == ERROR_DETAIL_FIELDS
        assert body["schema"] == SERVE_SCHEMA

    def test_health_field_set(self) -> None:
        assert set(health_payload()) == {"schema", "ok"}


class TestCanonicalEncoding:
    def test_key_order_does_not_change_bytes(self) -> None:
        a = {"zebra": 1, "alpha": {"y": 2, "x": 3}}
        b = {"alpha": {"x": 3, "y": 2}, "zebra": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_compact_separators(self) -> None:
        assert canonical_json({"a": [1, 2]}) == b'{"a":[1,2]}'

    def test_digest_ignores_spelling_order(self) -> None:
        noisy = parse_query("characterize", {
            "workload": WORKLOAD,
            "formats": ["csr", "coo", "csr"],
            "partitions": [16, 8],
        })
        tidy = parse_query("characterize", {
            "workload": WORKLOAD,
            "formats": ["coo", "csr"],
            "partitions": [8, 16],
        })
        assert query_digest(noisy) == query_digest(tidy)

    def test_digest_separates_endpoints_and_workloads(self) -> None:
        base = {"workload": WORKLOAD, "formats": ["coo"], "partitions": [8]}
        other_workload = {
            "workload": {**WORKLOAD, "seed": 2},
            "formats": ["coo"],
            "partitions": [8],
        }
        digests = {
            query_digest(parse_query("characterize", base)),
            query_digest(parse_query("advise", base)),
            query_digest(parse_query("characterize", other_workload)),
        }
        assert len(digests) == 3


class TestMetricsV1:
    def test_field_set(self) -> None:
        registry = MetricsRegistry()
        registry.incr("a")
        registry.observe("t", 0.1)
        registry.add_span("s", 0.2, (("k", "v"),))
        payload = metrics_payload(registry, extra={"gauge": 1})
        assert set(payload) == METRICS_FIELDS
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["extra"] == {"gauge": 1}
        assert payload["n_spans_total"] == 1

    def test_spans_truncate_most_recent_first(self) -> None:
        registry = MetricsRegistry()
        for index in range(10):
            registry.add_span("s", float(index))
        payload = metrics_payload(registry, max_spans=3)
        assert payload["n_spans_total"] == 10
        assert [s["duration_s"] for s in payload["spans"]] == [
            9.0, 8.0, 7.0,
        ]

    def test_live_endpoint_matches_golden(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                await post_json(
                    server, "characterize", characterize_payload()
                )
                _, _, body = await get_path(server, "/metrics")
                payload = json.loads(body)
                assert set(payload) == METRICS_FIELDS
                assert set(payload["extra"]) == {
                    "server", "cache", "singleflight", "guard",
                }
                assert set(payload["extra"]["server"]) == {
                    "max_inflight", "queue_limit", "budget_s",
                    "running", "waiting", "inflight_digests",
                    "computations",
                }
                assert set(payload["extra"]["cache"]) == {
                    "capacity", "entries", "hits", "misses",
                    "evictions",
                }
                assert set(payload["extra"]["singleflight"]) == {
                    "leaders", "coalesced", "failures",
                }
                assert set(payload["extra"]["guard"]) == {
                    "enabled", "breakers", "shedder", "sandbox",
                }
                assert payload["extra"]["guard"]["enabled"] is True
                assert (
                    payload["extra"]["guard"]["shedder"]["enabled"]
                    is False
                )
                assert set(payload["extra"]["guard"]["sandbox"]) == {
                    "spawned", "spawns", "jobs",
                }

        asyncio.run(main())


class TestBenchServeV1:
    def _metrics(self, computations: int, **counters: int) -> dict:
        return {
            "counters": dict(counters),
            "extra": {"server": {"computations": computations}},
        }

    def test_field_set(self) -> None:
        outcomes = [
            RequestOutcome("characterize", 200, 0.01, "computed", ""),
            RequestOutcome("characterize", 200, 0.002, "cache", ""),
            RequestOutcome("advise", 504, 0.05, "", ""),
        ]
        report = bench_report(
            mix="mixed",
            seed=7,
            concurrency=4,
            outcomes=outcomes,
            wall_s=0.06,
            metrics_before=self._metrics(0),
            metrics_after=self._metrics(
                1,
                **{
                    "serve.coalesce.hits": 1,
                    "serve.coalesce.misses": 1,
                    "serve.cache.hits": 1,
                    "serve.cache.misses": 2,
                },
            ),
        )
        assert set(report) == BENCH_FIELDS
        assert report["schema"] == BENCH_SCHEMA
        assert report["suite"] == "loadgen"
        assert set(report["config"]) == BENCH_CONFIG_FIELDS
        assert report["config"] == {
            "mix": "mixed", "seed": 7, "concurrency": 4,
        }
        assert set(report["hostile"]) == BENCH_HOSTILE_FIELDS
        assert set(report["machine"]) == MACHINE_FIELDS
        assert set(report["latency_ms"]) == BENCH_LATENCY_FIELDS
        assert set(report["server"]) == BENCH_SERVER_FIELDS
        assert report["statuses"] == {"200": 2, "504": 1}
        assert set(report["retries"]) == BENCH_RETRY_FIELDS
        assert report["retries"] == {
            "total": 0, "requests_retried": 0, "resolved_429": 0,
        }
        assert report["n_5xx"] == 1
        assert report["sources"] == {"computed": 1, "cache": 1}
        assert report["server"]["coalesce_hit_rate"] == 0.5
        assert report["server"]["computations"] == 1
        # the mixed mix's gates: the 504 fails zero_5xx, one coalesce
        # hit clears coalesced
        verdicts = {g["name"]: g["passed"] for g in report["gates"]}
        assert verdicts == {"zero_5xx": False, "coalesced": True}
        assert report["n_gates_failed"] == 1
