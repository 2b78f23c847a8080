"""End-to-end tests of the characterization server over real sockets.

Covers the full request ladder: routing and HTTP hygiene, the query
endpoints, response byte-identity under coalescing, the LRU layer,
admission control (429), and budget degradation (approximate answers
and 504s).  Injected ``delay`` faults make the backend predictably
slow where a test needs an in-flight window or a blown budget.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from tests.serve.helpers import (
    WORKLOAD,
    characterize_payload,
    get_path,
    post_json,
    running_server,
)

# one injected delay per sweep cell; see repro.engine.faults
SLOW_EVERY_CELL = "delay@*:*:*#delay=0.2#times=none"


class TestRouting:
    def test_healthz(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await get_path(server, "/healthz")
                assert status == 200
                assert json.loads(body) == {
                    "ok": True,
                    "schema": "serve/v1",
                }

        asyncio.run(main())

    def test_metrics_route(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await get_path(server, "/metrics")
                assert status == 200
                payload = json.loads(body)
                assert payload["schema"] == "metrics/v1"
                assert payload["extra"]["cache"]["entries"] == 0

        asyncio.run(main())

    def test_unknown_route_is_404(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await get_path(server, "/nope")
                assert status == 404
                assert json.loads(body)["error"]["type"] == "NotFound"

        asyncio.run(main())

    def test_wrong_methods_are_405(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, headers, _ = await get_path(
                    server, "/characterize"
                )
                assert status == 405
                assert headers["allow"] == "POST"
                status, _, _ = await post_json(server, "metrics", {})
                assert status == 405

        asyncio.run(main())

    def test_oversized_body_is_413(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                from repro.serve import http_request

                status, _, body = await http_request(
                    server.host, server.port, "POST", "/characterize",
                    b"x" * (2 << 20),
                )
                assert status == 413
                assert json.loads(body)["error"]["status"] == 413

        asyncio.run(main())


class TestQueryEndpoints:
    def test_characterize_round_trip(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, headers, body = await post_json(
                    server, "characterize",
                    characterize_payload(
                        formats=["coo", "csr"], partitions=[8, 16]
                    ),
                )
                assert status == 200
                assert headers["x-copernicus-source"] == "computed"
                payload = json.loads(body)
                assert payload["schema"] == "serve/v1"
                assert payload["digest"] == (
                    headers["x-copernicus-digest"]
                )
                # one cell per (format, partition) pair
                assert len(payload["cells"]) == 4
                coords = {
                    (c["format"], c["partition_size"])
                    for c in payload["cells"]
                }
                assert coords == {
                    ("coo", 8), ("coo", 16), ("csr", 8), ("csr", 16),
                }

        asyncio.run(main())

    def test_advise_round_trip(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await post_json(
                    server, "advise",
                    {
                        "workload": WORKLOAD,
                        "formats": ["coo", "csr", "ell"],
                        "partitions": [8],
                        "objective": "latency",
                    },
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["objective"] == "latency"
                assert payload["best"]["format"] in (
                    "coo", "csr", "ell"
                )
                ranked = [r["value"] for r in payload["ranking"]]
                assert ranked == sorted(ranked)  # latency: lower first
                assert payload["best"]["value"] == ranked[0]

        asyncio.run(main())

    def test_spelling_order_shares_one_digest(self) -> None:
        """Normalization: format/partition order must not change the
        digest (or the coalescing/cache key)."""

        async def main() -> None:
            async with running_server() as server:
                _, first_headers, _ = await post_json(
                    server, "characterize",
                    characterize_payload(
                        formats=["csr", "coo"], partitions=[16, 8]
                    ),
                )
                _, second_headers, _ = await post_json(
                    server, "characterize",
                    characterize_payload(
                        formats=["coo", "csr"], partitions=[8, 16]
                    ),
                )
                assert first_headers["x-copernicus-digest"] == (
                    second_headers["x-copernicus-digest"]
                )
                assert second_headers["x-copernicus-source"] == "cache"

        asyncio.run(main())

    def test_bad_json_is_400(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                from repro.serve import http_request

                status, _, body = await http_request(
                    server.host, server.port, "POST", "/characterize",
                    b"{not json",
                )
                assert status == 400
                error = json.loads(body)["error"]
                assert error["type"] == "ServeRequestError"
                assert "JSON" in error["message"]

        asyncio.run(main())

    def test_invalid_query_lists_every_problem(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await post_json(
                    server, "characterize",
                    {
                        "workload": {
                            "kind": "random", "n": 32,
                            "density": 0.1,
                        },
                        "formats": ["csr", "imaginary"],
                        "surprise": 1,
                    },
                )
                assert status == 400
                message = json.loads(body)["error"]["message"]
                assert "imaginary" in message
                assert "surprise" in message

        asyncio.run(main())

    def test_dimension_cap_is_enforced(self) -> None:
        async def main() -> None:
            async with running_server(max_dim=64) as server:
                status, _, body = await post_json(
                    server, "characterize",
                    characterize_payload(
                        workload={
                            "kind": "random", "n": 128,
                            "density": 0.1, "seed": 1,
                        }
                    ),
                )
                assert status == 400
                assert "workload.n" in (
                    json.loads(body)["error"]["message"]
                )

        asyncio.run(main())


class TestCoalescingAndCache:
    def test_concurrent_identical_requests_compute_once(self) -> None:
        """N concurrent identical queries: one backend computation,
        N byte-for-byte identical bodies."""

        async def main() -> None:
            async with running_server(
                faults=SLOW_EVERY_CELL
            ) as server:
                payload = characterize_payload(
                    formats=["coo"], partitions=[8]
                )
                responses = await asyncio.gather(*(
                    post_json(server, "characterize", payload)
                    for _ in range(6)
                ))
                assert server.backend.computations == 1
                bodies = {body for _, _, body in responses}
                assert len(bodies) == 1
                statuses = [status for status, _, _ in responses]
                assert statuses == [200] * 6
                sources = sorted(
                    headers["x-copernicus-source"]
                    for _, headers, _ in responses
                )
                assert sources == ["coalesced"] * 5 + ["computed"]

        asyncio.run(main())

    def test_distinct_queries_never_coalesce(self) -> None:
        async def main() -> None:
            async with running_server(
                faults=SLOW_EVERY_CELL, max_inflight=4
            ) as server:
                payloads = [
                    characterize_payload(
                        formats=["coo"], partitions=[8],
                        workload={
                            "kind": "random", "n": 32,
                            "density": 0.1, "seed": seed,
                        },
                    )
                    for seed in range(3)
                ]
                responses = await asyncio.gather(*(
                    post_json(server, "characterize", p)
                    for p in payloads
                ))
                assert server.backend.computations == 3
                digests = {
                    headers["x-copernicus-digest"]
                    for _, headers, _ in responses
                }
                assert len(digests) == 3

        asyncio.run(main())

    def test_cache_hit_serves_identical_bytes(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                payload = characterize_payload()
                _, first_headers, first_body = await post_json(
                    server, "characterize", payload
                )
                _, second_headers, second_body = await post_json(
                    server, "characterize", payload
                )
                assert first_headers["x-copernicus-source"] == (
                    "computed"
                )
                assert second_headers["x-copernicus-source"] == "cache"
                assert first_body == second_body
                assert server.backend.computations == 1
                assert server.cache.hits == 1

        asyncio.run(main())

    def test_lru_eviction_forces_recompute(self) -> None:
        async def main() -> None:
            async with running_server(cache_size=1) as server:
                first = characterize_payload(
                    workload={
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 1,
                    }
                )
                second = characterize_payload(
                    workload={
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 2,
                    }
                )
                await post_json(server, "characterize", first)
                await post_json(server, "characterize", second)
                # first was evicted by second: recompute
                _, headers, _ = await post_json(
                    server, "characterize", first
                )
                assert headers["x-copernicus-source"] == "computed"
                assert server.backend.computations == 3
                assert server.cache.evictions == 2

        asyncio.run(main())


class TestAdmissionControl:
    def test_overload_answers_429_and_server_survives(self) -> None:
        async def main() -> None:
            async with running_server(
                max_inflight=1,
                queue_limit=1,
                faults=SLOW_EVERY_CELL,
            ) as server:
                payloads = [
                    characterize_payload(
                        formats=["coo"], partitions=[8],
                        workload={
                            "kind": "random", "n": 32,
                            "density": 0.1, "seed": seed,
                        },
                    )
                    for seed in range(5)
                ]
                responses = await asyncio.gather(*(
                    post_json(server, "characterize", p)
                    for p in payloads
                ))
                statuses = sorted(s for s, _, _ in responses)
                assert set(statuses) <= {200, 429}
                assert statuses.count(429) >= 1
                assert statuses.count(200) >= 1
                refused = next(
                    (headers, body)
                    for status, headers, body in responses
                    if status == 429
                )
                headers, body = refused
                assert headers["retry-after"] == "1"
                assert json.loads(body)["error"]["type"] == (
                    "ServeOverloadedError"
                )
                # the refusal was load shedding, not a crash
                status, _, _ = await get_path(server, "/healthz")
                assert status == 200

        asyncio.run(main())


    @pytest.mark.parametrize(
        ("max_inflight", "queue_limit", "n"),
        [(1, 1, 5), (2, 3, 9), (1, 2, 6)],
    )
    def test_burst_admits_exactly_inflight_plus_queue(
        self, max_inflight, queue_limit, n
    ) -> None:
        """n distinct queries in one event-loop iteration: exactly
        ``max_inflight + queue_limit`` leaders are admitted."""

        async def main() -> None:
            async with running_server(
                max_inflight=max_inflight,
                queue_limit=queue_limit,
                faults=SLOW_EVERY_CELL,
            ) as server:
                bodies = [
                    json.dumps(characterize_payload(
                        formats=["coo"], partitions=[8],
                        workload={**WORKLOAD, "seed": seed},
                    )).encode()
                    for seed in range(n)
                ]
                answers = await asyncio.gather(*(
                    server._handle_query("characterize", body)
                    for body in bodies
                ))
                statuses = [status for status, _, _ in answers]
                admitted = max_inflight + queue_limit
                assert statuses.count(200) == admitted
                assert statuses.count(429) == n - admitted
                counters = server.metrics.snapshot()["counters"]
                assert counters["serve.decision.refuse.queue-full"] == (
                    n - admitted
                )
                for status, body, _ in answers:
                    if status == 429:
                        message = json.loads(body)["error"]["message"]
                        assert (
                            f"{max_inflight} computations running, "
                            f"{queue_limit} queued" in message
                        )

        asyncio.run(main())


class TestBudgetDegradation:
    def test_blown_budget_with_no_cheaper_form_is_504(self) -> None:
        async def main() -> None:
            async with running_server(
                budget_s=0.05, faults=SLOW_EVERY_CELL
            ) as server:
                payload = characterize_payload(
                    formats=["coo"], partitions=[8]
                )
                status, _, body = await post_json(
                    server, "characterize", payload
                )
                assert status == 504
                error = json.loads(body)["error"]
                assert error["type"] == "ServeBudgetError"
                assert "background" in error["message"]

                # the timed-out computation kept running and landed
                # in the cache: the retry answers instantly
                for _ in range(50):
                    if len(server.cache):
                        break
                    await asyncio.sleep(0.05)
                status, headers, _ = await post_json(
                    server, "characterize", payload
                )
                assert status == 200
                assert headers["x-copernicus-source"] == "cache"

        asyncio.run(main())

    def test_blown_budget_degrades_to_cached_approximate(self) -> None:
        """The degradation ladder end-to-end: a budget-blown wide
        query answers with the cached result of its approximate form
        (smallest partition only), marked via header — not a 504."""

        async def main() -> None:
            async with running_server(
                budget_s=0.1, faults=SLOW_EVERY_CELL
            ) as server:
                narrow = characterize_payload(
                    formats=["coo"], partitions=[8]
                )
                wide = characterize_payload(
                    formats=["coo"], partitions=[8, 16]
                )
                # seed the approximate form's cache entry (the 504'd
                # computation completes in the background)
                status, _, _ = await post_json(
                    server, "characterize", narrow
                )
                assert status == 504
                for _ in range(50):
                    if len(server.cache):
                        break
                    await asyncio.sleep(0.05)
                assert len(server.cache) == 1

                status, headers, body = await post_json(
                    server, "characterize", wide
                )
                assert status == 200
                assert headers["x-copernicus-degraded"] == (
                    "cached-approximate"
                )
                payload = json.loads(body)
                # the body IS the approximate query's canonical body
                assert payload["query"]["partitions"] == [8]

        asyncio.run(main())

    def test_no_budget_waits_for_the_full_answer(self) -> None:
        async def main() -> None:
            async with running_server(
                budget_s=None, faults=SLOW_EVERY_CELL
            ) as server:
                status, headers, _ = await post_json(
                    server, "characterize",
                    characterize_payload(
                        formats=["coo"], partitions=[8]
                    ),
                )
                assert status == 200
                assert headers["x-copernicus-source"] == "computed"
                assert "x-copernicus-degraded" not in headers

        asyncio.run(main())


class TestTelemetry:
    def test_request_counters_and_spans(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                payload = characterize_payload()
                await post_json(server, "characterize", payload)
                await post_json(server, "characterize", payload)
                _, _, body = await get_path(server, "/metrics")
                metrics = json.loads(body)
                counters = metrics["counters"]
                assert counters["serve.requests"] == 2
                assert counters["serve.http.200"] == 2
                assert counters["serve.cache.hits"] == 1
                assert counters["serve.coalesce.misses"] == 1
                spans = [
                    s for s in metrics["spans"]
                    if s["name"] == "serve.request"
                ]
                assert len(spans) == 2
                # most recent first: the cache hit leads
                assert spans[0]["labels"]["source"] == "cache"
                assert spans[1]["labels"]["source"] == "computed"
                extra = metrics["extra"]
                assert extra["server"]["computations"] == 1
                assert extra["cache"]["hits"] == 1
                assert extra["singleflight"]["leaders"] == 1

        asyncio.run(main())
