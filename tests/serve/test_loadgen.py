"""Load-generator tests: deterministic planning, mix shapes, the
percentile math, and a small live run against a real server."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import LoadGenError
from repro.serve import plan_requests, run_loadgen
from repro.serve.loadgen import HOT_POOL_SIZE, percentile
from repro.serve.protocol import parse_query, query_digest
from tests.serve.helpers import running_server


def _digests(planned) -> list[str]:
    return [
        query_digest(parse_query(p.endpoint, p.payload))
        for p in planned
    ]


class TestPlanning:
    def test_same_inputs_plan_identical_traffic(self) -> None:
        first = plan_requests("mixed", 50, seed=7)
        second = plan_requests("mixed", 50, seed=7)
        assert first == second

    def test_different_seeds_plan_different_traffic(self) -> None:
        assert plan_requests("mixed", 50, seed=7) != plan_requests(
            "mixed", 50, seed=8
        )

    def test_hot_mix_reuses_a_small_pool(self) -> None:
        planned = plan_requests("hot", 100, seed=3)
        distinct = set(_digests(planned))
        assert len(distinct) <= HOT_POOL_SIZE
        # skew: the hottest key dominates
        counts = sorted(
            (
                sum(1 for d in _digests(planned) if d == digest)
                for digest in distinct
            ),
            reverse=True,
        )
        assert counts[0] > 100 // HOT_POOL_SIZE

    def test_unique_mix_never_repeats_a_digest(self) -> None:
        planned = plan_requests("unique", 60, seed=3)
        digests = _digests(planned)
        assert len(set(digests)) == 60

    def test_mixed_mix_carries_advise_traffic(self) -> None:
        planned = plan_requests("mixed", 100, seed=3)
        endpoints = {p.endpoint for p in planned}
        assert endpoints == {"characterize", "advise"}

    def test_every_planned_request_is_valid(self) -> None:
        for mix in ("hot", "unique", "mixed"):
            for planned in plan_requests(mix, 40, seed=5):
                parse_query(planned.endpoint, planned.payload)

    def test_bad_inputs_raise(self) -> None:
        with pytest.raises(LoadGenError):
            plan_requests("tsunami", 10, seed=1)
        with pytest.raises(LoadGenError):
            plan_requests("hot", 0, seed=1)


class TestPercentile:
    def test_nearest_rank(self) -> None:
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 100) == 10.0
        assert percentile([42.0], 50) == 42.0

    def test_order_independent(self) -> None:
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_bad_inputs_raise(self) -> None:
        with pytest.raises(LoadGenError):
            percentile([], 50)
        with pytest.raises(LoadGenError):
            percentile([1.0], 0)
        with pytest.raises(LoadGenError):
            percentile([1.0], 101)


class TestLiveRun:
    def test_hot_run_coalesces_and_reports(self) -> None:
        async def main() -> None:
            async with running_server(max_inflight=2) as server:
                report = await run_loadgen(
                    server.host,
                    server.port,
                    mix="hot",
                    requests=30,
                    seed=7,
                    concurrency=6,
                )
                assert report["schema"] == "bench/v2"
                assert report["suite"] == "loadgen"
                assert report["requests"] == 30
                assert report["n_5xx"] == 0
                assert report["statuses"] == {"200": 30}
                # the accounting closes: every response has a source,
                # and computed == backend computations
                assert sum(report["sources"].values()) == 30
                server_stats = report["server"]
                assert server_stats["computations"] == (
                    report["sources"]["computed"]
                )
                assert (
                    server_stats["coalesce_hits"]
                    + server_stats["cache_hits"]
                    + server_stats["computations"]
                ) == 30
                assert server_stats["coalesce_hit_rate"] > 0
                assert report["latency_ms"]["p50"] <= (
                    report["latency_ms"]["p99"]
                )
                assert report["throughput_rps"] > 0
                # the hot mix's gates: no 5xx, some coalescing
                assert report["n_gates_failed"] == 0
                assert [g["name"] for g in report["gates"]] == [
                    "zero_5xx", "coalesced",
                ]

        asyncio.run(main())

    def test_unique_run_never_coalesces(self) -> None:
        async def main() -> None:
            async with running_server(max_inflight=2) as server:
                report = await run_loadgen(
                    server.host,
                    server.port,
                    mix="unique",
                    requests=10,
                    seed=7,
                    concurrency=4,
                )
                assert report["n_5xx"] == 0
                server_stats = report["server"]
                assert server_stats["coalesce_hits"] == 0
                assert server_stats["cache_hits"] == 0
                assert server_stats["computations"] == 10

        asyncio.run(main())
