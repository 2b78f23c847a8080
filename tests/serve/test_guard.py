"""Serve-side guard integration over real sockets.

Covers the untrusted-``mtx`` sandbox gate, the per-route circuit
breaker (opening on a poison route, recovering after the window, armed
on a default server, a half-open probe refused by admission handed
back), priority shedding under an unmeetable SLO, the
guard section of the metrics export, and — without a socket — the one
rendering of every refusal's ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import (
    ServeCircuitOpenError,
    ServeDrainingError,
    ServeOverloadedError,
    ServeShedError,
)
from repro.guard import GuardPolicy, SandboxLimits
from repro.serve.server import _response_bytes, render_error
from tests.serve.helpers import (
    get_path,
    post_json,
    running_server,
)

VALID_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "6 6 4\n"
    "1 1 1.5\n"
    "2 3 -2.0\n"
    "5 2 4.0\n"
    "6 6 7.0\n"
)

#: A header that lies four orders of magnitude past any real machine.
BOMB_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "1180591620717411303424 4 1\n"
    "1 1 1.0\n"
)


def mtx_payload(content: str) -> dict:
    return {
        "workload": {"kind": "mtx", "content": content},
        "formats": ["coo", "csr"],
        "partitions": [8],
    }


class TestSandboxGate:
    def test_benign_mtx_is_characterized(self) -> None:
        async def main() -> None:
            async with running_server(
                sandbox_limits=SandboxLimits(wall_s=5.0)
            ) as server:
                status, _, body = await post_json(
                    server, "characterize", mtx_payload(VALID_MTX)
                )
                assert status == 200
                payload = json.loads(body)
                assert len(payload["cells"]) == 2

        asyncio.run(main())

    def test_content_is_never_echoed_back(self) -> None:
        async def main() -> None:
            async with running_server(
                sandbox_limits=SandboxLimits(wall_s=5.0)
            ) as server:
                status, _, body = await post_json(
                    server, "characterize", mtx_payload(VALID_MTX)
                )
                assert status == 200
                echoed = json.loads(body)["query"]["workload"]
                assert "content" not in echoed
                assert echoed["content_bytes"] == len(
                    VALID_MTX.encode()
                )

        asyncio.run(main())

    def test_poison_header_is_refused_without_guard_policy(self) -> None:
        # the sandbox gate needs no guard tuning: hostile mtx
        # content is always contained
        async def main() -> None:
            async with running_server(
                sandbox_limits=SandboxLimits(wall_s=5.0)
            ) as server:
                status, _, body = await post_json(
                    server, "characterize", mtx_payload(BOMB_MTX)
                )
                assert status == 400
                error = json.loads(body)["error"]
                assert error["type"] in (
                    "ServeSandboxError", "ServeRequestError",
                )

        asyncio.run(main())

    def test_malformed_mtx_is_a_typed_400(self) -> None:
        async def main() -> None:
            async with running_server(
                sandbox_limits=SandboxLimits(wall_s=5.0)
            ) as server:
                status, _, body = await post_json(
                    server,
                    "characterize",
                    mtx_payload("definitely not matrixmarket"),
                )
                assert status == 400
                assert json.loads(body)["schema"] == "serve/v1"

        asyncio.run(main())

    def test_oversized_content_rejected_at_parse(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                status, _, body = await post_json(
                    server,
                    "characterize",
                    mtx_payload("x" * ((1 << 19) + 1)),
                )
                assert status == 400
                message = json.loads(body)["error"]["message"]
                assert "content exceeds" in message

        asyncio.run(main())


class TestCircuitBreaker:
    def test_default_server_arms_its_breakers(self) -> None:
        async def main() -> None:
            async with running_server(
                faults="raise@*:dia:*#times=none"
            ) as server:
                poison = {
                    "workload": {
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 1,
                    },
                    "formats": ["dia"],
                    "partitions": [8],
                }
                # GuardPolicy() defaults: five failures open the route
                for seed in range(20, 25):
                    poison["workload"]["seed"] = seed
                    status, _, _ = await post_json(
                        server, "characterize", poison
                    )
                    assert status == 500
                poison["workload"]["seed"] = 25
                status, headers, body = await post_json(
                    server, "characterize", poison
                )
                assert status == 503
                assert int(headers["retry-after"]) >= 1
                assert (
                    json.loads(body)["error"]["type"]
                    == "ServeCircuitOpenError"
                )

        asyncio.run(main())

    def test_opens_on_poison_route_and_recovers(self) -> None:
        async def main() -> None:
            policy = GuardPolicy(
                breaker_threshold=2, breaker_recovery_s=0.3
            )
            async with running_server(
                faults="raise@*:dia:*#times=none",
                guard_policy=policy,
            ) as server:
                poison = {
                    "workload": {
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 1,
                    },
                    "formats": ["dia"],
                    "partitions": [8],
                }
                for seed in (11, 12):
                    poison["workload"]["seed"] = seed
                    status, _, _ = await post_json(
                        server, "characterize", poison
                    )
                    assert status == 500
                # threshold hit: the breaker now answers instantly
                poison["workload"]["seed"] = 13
                status, headers, body = await post_json(
                    server, "characterize", poison
                )
                assert status == 503
                assert int(headers["retry-after"]) >= 1
                assert (
                    json.loads(body)["error"]["type"]
                    == "ServeCircuitOpenError"
                )
                # ... even for queries that would have succeeded
                healthy = {**poison, "formats": ["coo"]}
                status, _, _ = await post_json(
                    server, "characterize", healthy
                )
                assert status == 503
                # after the recovery window a probe closes it again
                await asyncio.sleep(0.35)
                status, _, _ = await post_json(
                    server, "characterize", healthy
                )
                assert status == 200
                snapshot = server._breaker("characterize").snapshot()
                assert snapshot["state"] == "closed"
                assert snapshot["transitions"]["closed-open"] == 1
                assert snapshot["transitions"]["half-open-closed"] == 1

        asyncio.run(main())

    def test_probe_refused_by_admission_is_handed_back(self) -> None:
        """A half-open probe refused with 429 never reaches the
        backend, so it must not leave the route refusing everything."""

        async def main() -> None:
            policy = GuardPolicy(
                breaker_threshold=1, breaker_recovery_s=0.2
            )
            async with running_server(
                faults=(
                    "raise@*:dia:*#times=none,"
                    "delay@*:ell:*#delay=1.0#times=none"
                ),
                guard_policy=policy,
                max_inflight=1,
                queue_limit=1,
            ) as server:
                poison = {
                    "workload": {
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 3,
                    },
                    "formats": ["dia"],
                    "partitions": [8],
                }
                status, _, _ = await post_json(
                    server, "characterize", poison
                )
                assert status == 500  # /characterize is now open
                # two slow /advise computations (another route) hold
                # the only backend slot and the only queue place
                slow = [
                    asyncio.create_task(post_json(
                        server,
                        "advise",
                        {
                            **poison,
                            "workload": {**poison["workload"],
                                         "seed": seed},
                            "formats": ["ell", "coo"],
                            "objective": "latency",
                        },
                    ))
                    for seed in (4, 5)
                ]
                await asyncio.sleep(0.4)  # past the recovery window
                healthy = {**poison, "formats": ["coo"]}
                status, _, _ = await post_json(
                    server, "characterize", healthy
                )
                assert status == 429  # the probe, refused by admission
                assert [s for s, _, _ in await asyncio.gather(*slow)] == [
                    200, 200,
                ]
                # the next caller probes, succeeds and closes the route
                status, _, _ = await post_json(
                    server, "characterize", healthy
                )
                assert status == 200
                snapshot = server._breaker("characterize").snapshot()
                assert snapshot["state"] == "closed"

        asyncio.run(main())

    def test_routes_have_independent_breakers(self) -> None:
        async def main() -> None:
            policy = GuardPolicy(
                breaker_threshold=1, breaker_recovery_s=60.0
            )
            async with running_server(
                faults="raise@*:dia:*#times=none",
                guard_policy=policy,
            ) as server:
                poison = {
                    "workload": {
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 2,
                    },
                    "formats": ["dia"],
                    "partitions": [8],
                }
                status, _, _ = await post_json(
                    server, "characterize", poison
                )
                assert status == 500
                status, _, _ = await post_json(
                    server, "characterize", poison
                )
                assert status == 503
                # /advise is a different route: its breaker is closed
                status, _, _ = await post_json(
                    server,
                    "advise",
                    {**poison, "formats": ["coo", "csr"],
                     "objective": "latency"},
                )
                assert status == 200

        asyncio.run(main())


class TestLoadShedding:
    def test_priorities_separate_under_pressure(self) -> None:
        async def main() -> None:
            # an unmeetable SLO: the first observed latency puts the
            # window severely over the line
            policy = GuardPolicy(shed_p99_ms=0.01)
            async with running_server(guard_policy=policy) as server:
                base = {
                    "workload": {
                        "kind": "random", "n": 32,
                        "density": 0.1, "seed": 1,
                    },
                    "formats": ["coo"],
                    "partitions": [8],
                }

                async def probe(priority, seed):
                    payload = {
                        **base,
                        "workload": {**base["workload"], "seed": seed},
                    }
                    return await post_json(
                        server, "characterize", payload,
                        headers={"X-Copernicus-Priority": priority},
                    )

                status, _, _ = await probe("high", 50)
                assert status == 200  # primes the window
                status, _, _ = await probe("high", 51)
                assert status == 200  # high is never shed
                status, headers, body = await probe("low", 52)
                assert status == 503
                assert headers["retry-after"] == "1"
                assert (
                    json.loads(body)["error"]["type"] == "ServeShedError"
                )
                status, _, _ = await probe("normal", 53)
                assert status == 503
                # an unknown spelling cannot buy priority
                status, _, _ = await probe("urgent", 54)
                assert status == 503
                counters = server.metrics.snapshot()["counters"]
                assert counters["serve.decision.refuse.shed-low"] == 2
                assert counters["serve.decision.refuse.shed-normal"] == 1

        asyncio.run(main())


class TestGuardMetrics:
    def test_guarded_metrics_section(self) -> None:
        async def main() -> None:
            # an SLO no 32x32 sweep comes near: shedding armed, idle
            policy = GuardPolicy(shed_p99_ms=60_000.0)
            async with running_server(guard_policy=policy) as server:
                await post_json(
                    server,
                    "characterize",
                    {
                        "workload": {
                            "kind": "random", "n": 32,
                            "density": 0.1, "seed": 1,
                        },
                        "formats": ["coo"],
                        "partitions": [8],
                    },
                )
                _, _, body = await get_path(server, "/metrics")
                guard = json.loads(body)["extra"]["guard"]
                assert guard["enabled"] is True
                assert guard["breakers"]["characterize"]["state"] == (
                    "closed"
                )
                assert guard["shedder"]["enabled"] is True
                assert guard["shedder"]["window_fill"] >= 1
                assert guard["sandbox"]["spawned"] is False

        asyncio.run(main())

    def test_sandbox_stats_after_mtx_traffic(self) -> None:
        async def main() -> None:
            async with running_server(
                sandbox_limits=SandboxLimits(wall_s=5.0)
            ) as server:
                await post_json(
                    server, "characterize", mtx_payload(VALID_MTX)
                )
                _, _, body = await get_path(server, "/metrics")
                sandbox = json.loads(body)["extra"]["guard"]["sandbox"]
                assert sandbox["spawned"] is True
                assert sandbox["jobs"] >= 1

        asyncio.run(main())


class TestRefusalRendering:
    """Every refusal renders one ``Retry-After``, whole seconds, >= 1."""

    @pytest.mark.parametrize(
        ("error", "status", "retry_after"),
        [
            (ServeOverloadedError("queue full"), 429, "1"),
            (ServeDrainingError("draining"), 503, "1"),
            (ServeShedError("shed"), 503, "1"),
            (ServeCircuitOpenError("open", 2.2), 503, "3"),
            (ServeCircuitOpenError("open", 0.3), 503, "1"),
        ],
        ids=["overloaded", "draining", "shed", "breaker", "breaker-short"],
    )
    def test_exactly_one_retry_after(
        self, error, status, retry_after
    ) -> None:
        wire = _response_bytes(*render_error(error))
        head, _, body = wire.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[1] == str(status)
        values = [
            line.split(":", 1)[1].strip()
            for line in lines[1:]
            if line.lower().startswith("retry-after:")
        ]
        assert values == [retry_after]
        assert json.loads(body)["error"]["type"] == type(error).__name__
