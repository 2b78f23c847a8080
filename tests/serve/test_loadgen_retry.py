"""Client-side 429 retry: backoff, the Retry-After floor, reporting.

A stub HTTP server (not the real backend — these tests are about the
*client's* discipline) answers 429 a configurable number of times per
distinct request body before yielding 200, which pins down exactly
when the loadgen retries, how long it waits, and what the
loadgen report's retry block says.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.engine.retry import RetryPolicy
from repro.errors import LoadGenError
from repro.serve.loadgen import (
    RequestOutcome,
    _retry_after_floor,
    bench_report,
    plan_requests,
    run_load,
)

FAST_POLICY = RetryPolicy(
    max_attempts=4, base_delay_s=0.001, max_delay_s=0.01, jitter=0.0
)


class StubServer:
    """Answers 429 (with Retry-After) ``fail_first`` times per
    distinct request body, then 200."""

    def __init__(self, fail_first: int, retry_after: str = "0"):
        self.fail_first = fail_first
        self.retry_after = retry_after
        self.hits: dict[bytes, int] = {}
        self._server = None
        self.host = "127.0.0.1"
        self.port = 0

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        await reader.readline()
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        self.hits[body] = self.hits.get(body, 0) + 1
        if self.hits[body] <= self.fail_first:
            status, payload = 429, b'{"error": "busy"}'
            extra = f"Retry-After: {self.retry_after}\r\n"
        else:
            status, payload = 200, b'{"ok": true}'
            extra = ""
        writer.write(
            (
                f"HTTP/1.1 {status} X\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extra}Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()
        writer.close()


def _run(coro):
    return asyncio.run(coro)


class TestRetryLoop:
    def test_429s_resolve_after_retries(self):
        async def main():
            async with StubServer(fail_first=2) as stub:
                planned = plan_requests("unique", 3, seed=1)
                outcomes, _ = await run_load(
                    stub.host, stub.port, planned, concurrency=2,
                    retry_policy=FAST_POLICY,
                )
                assert [o.status for o in outcomes] == [200, 200, 200]
                assert [o.n_retries for o in outcomes] == [2, 2, 2]

        _run(main())

    def test_exhausted_policy_reports_the_final_429(self):
        async def main():
            async with StubServer(fail_first=99) as stub:
                planned = plan_requests("unique", 1, seed=1)
                outcomes, _ = await run_load(
                    stub.host, stub.port, planned,
                    retry_policy=FAST_POLICY,
                )
                assert outcomes[0].status == 429
                # max_attempts=4: one try plus three retries
                assert outcomes[0].n_retries == 3

        _run(main())

    def test_no_policy_means_no_retries(self):
        async def main():
            async with StubServer(fail_first=1) as stub:
                planned = plan_requests("unique", 1, seed=1)
                outcomes, _ = await run_load(
                    stub.host, stub.port, planned
                )
                assert outcomes[0].status == 429
                assert outcomes[0].n_retries == 0

        _run(main())

    def test_retry_after_header_is_the_delay_floor(self):
        async def main():
            async with StubServer(
                fail_first=1, retry_after="0.2"
            ) as stub:
                planned = plan_requests("unique", 1, seed=1)
                start = time.perf_counter()
                outcomes, _ = await run_load(
                    stub.host, stub.port, planned,
                    retry_policy=FAST_POLICY,
                )
                elapsed = time.perf_counter() - start
                assert outcomes[0].status == 200
                # the policy's own backoff is ~1ms; the wait observed
                # can only come from honouring the server's floor
                assert elapsed >= 0.15

        _run(main())

    def test_transport_failure_raises_unless_tolerated(self):
        async def main():
            async with StubServer(fail_first=0) as stub:
                host, port = stub.host, stub.port
            # the stub is closed now: connections are refused
            planned = plan_requests("unique", 1, seed=1)
            with pytest.raises(LoadGenError):
                await run_load(host, port, planned)
            outcomes, _ = await run_load(
                host, port, planned, tolerate_errors=True
            )
            assert outcomes[0].status == 0

        _run(main())


class TestRetryAfterParsing:
    @pytest.mark.parametrize(
        ("headers", "expected"),
        [
            ({"retry-after": "1"}, 1.0),
            ({"retry-after": "0.25"}, 0.25),
            ({"retry-after": "-3"}, 0.0),
            ({"retry-after": "soon"}, 0.0),
            ({"retry-after": None}, 0.0),
            ({}, 0.0),
        ],
    )
    def test_floor(self, headers, expected):
        assert _retry_after_floor(headers) == expected


class TestRetryReporting:
    def _metrics(self) -> dict:
        return {
            "counters": {},
            "extra": {"server": {"computations": 0}},
        }

    def test_report_counts_total_retried_and_resolved(self):
        outcomes = [
            RequestOutcome("characterize", 200, 0.01, "computed", ""),
            RequestOutcome(
                "characterize", 200, 0.01, "computed", "", n_retries=2
            ),
            RequestOutcome(
                "characterize", 429, 0.01, "", "", n_retries=3
            ),
        ]
        report = bench_report(
            mix="unique",
            seed=1,
            concurrency=2,
            outcomes=outcomes,
            wall_s=0.1,
            metrics_before=self._metrics(),
            metrics_after=self._metrics(),
        )
        assert report["retries"] == {
            "total": 5,
            "requests_retried": 2,
            "resolved_429": 1,
        }
        assert report["statuses"] == {"200": 2, "429": 1}

    def test_live_report_after_stub_retries(self):
        async def main():
            async with StubServer(fail_first=1) as stub:
                planned = plan_requests("unique", 2, seed=3)
                outcomes, wall_s = await run_load(
                    stub.host, stub.port, planned,
                    retry_policy=FAST_POLICY,
                )
                report = bench_report(
                    mix="unique",
                    seed=3,
                    concurrency=8,
                    outcomes=outcomes,
                    wall_s=wall_s,
                    metrics_before=self._metrics(),
                    metrics_after=self._metrics(),
                )
                assert report["retries"]["total"] == 2
                assert report["retries"]["requests_retried"] == 2
                assert report["retries"]["resolved_429"] == 2
                assert report["n_5xx"] == 0

        _run(main())
