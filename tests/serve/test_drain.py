"""Graceful drain: the SIGTERM contract of ``repro serve``.

The contract under test (see :meth:`CharacterizationServer.drain`):
once a drain begins, no new query work is accepted (structured 503
with ``Retry-After``, never a dropped connection), in-flight requests
get the timeout to finish normally, stragglers are cancelled onto the
wire as 503s, ``/metrics`` keeps answering for the final scrape, and
the last ``metrics/v1`` snapshot is flushed atomically to disk.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.io_atomic import TMP_MARKER
from repro.observability import METRICS_SCHEMA
from tests.serve.helpers import (
    characterize_payload,
    post_json,
    running_server,
)


async def _open(server):
    return await asyncio.open_connection(server.host, server.port)


async def _send_request(
    reader, writer, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict, bytes]:
    """Speak HTTP on an *already-open* connection (the drain races
    this suite cares about happen on connections accepted before the
    listener closed)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    return await _read_response(reader)


async def _read_response(reader) -> tuple[int, dict, bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: dict = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _draining(server):
    while not server.draining:
        await asyncio.sleep(0.005)


class TestDrainRefusal:
    def test_query_on_open_connection_gets_structured_503(self):
        async def main():
            async with running_server() as server:
                reader, writer = await _open(server)
                drain_task = asyncio.create_task(
                    server.drain(timeout_s=5.0)
                )
                await _draining(server)
                status, headers, body = await _send_request(
                    reader, writer, "POST", "/characterize",
                    characterize_payload(),
                )
                assert status == 503
                assert headers["retry-after"] == "1"
                payload = json.loads(body)
                assert payload["error"]["type"] == "ServeDrainingError"
                snapshot = await drain_task
                counters = snapshot["counters"]
                assert counters["serve.drain.initiated"] == 1
                assert counters["serve.decision.refuse.draining"] == 1
                assert counters["serve.http.503"] == 1
                writer.close()

        asyncio.run(main())

    def test_metrics_scrape_still_answers_during_drain(self):
        async def main():
            async with running_server() as server:
                reader, writer = await _open(server)
                drain_task = asyncio.create_task(
                    server.drain(timeout_s=5.0)
                )
                await _draining(server)
                status, _, body = await _send_request(
                    reader, writer, "GET", "/metrics"
                )
                assert status == 200
                assert json.loads(body)["schema"] == METRICS_SCHEMA
                await drain_task
                writer.close()

        asyncio.run(main())

    def test_listener_refuses_new_connections_after_drain(self):
        async def main():
            async with running_server() as server:
                await server.drain(timeout_s=0.1)
                with pytest.raises(OSError):
                    await _open(server)

        asyncio.run(main())


class TestDrainInflight:
    def test_inflight_request_finishes_normally(self):
        async def main():
            async with running_server() as server:
                request = asyncio.create_task(
                    post_json(
                        server, "characterize", characterize_payload()
                    )
                )
                await asyncio.sleep(0.05)  # let it reach the backend
                snapshot = await server.drain(timeout_s=30.0)
                status, _, _ = await request
                assert status == 200
                assert (
                    snapshot["counters"].get("serve.drain.cancelled", 0)
                    == 0
                )

        asyncio.run(main())

    def test_straggler_is_cancelled_onto_the_wire_as_503(self):
        async def main():
            async with running_server() as server:
                # a connection that never sends a request models a
                # handler stuck past the drain deadline
                reader, writer = await _open(server)
                await asyncio.sleep(0.05)
                snapshot = await server.drain(timeout_s=0.05)
                assert (
                    snapshot["counters"]["serve.drain.cancelled"] == 1
                )
                status, _, body = await _read_response(reader)
                assert status == 503
                payload = json.loads(body)
                assert payload["error"]["type"] == "ServeDrainingError"
                writer.close()

        asyncio.run(main())


class TestDrainAccounting:
    def test_counters_match_the_wire_status(self):
        """Both drain refusals are counted as the 503 they write."""

        async def main():
            async with running_server(
                faults="delay@*:*:*#delay=0.5#times=none"
            ) as server:
                # a straggler: mid-computation when the drain expires
                straggler = asyncio.create_task(
                    post_json(
                        server, "characterize", characterize_payload()
                    )
                )
                await asyncio.sleep(0.1)  # let it reach the backend
                reader, writer = await _open(server)
                drain_task = asyncio.create_task(
                    server.drain(timeout_s=0.3)
                )
                await _draining(server)
                # a refusal: new work on an already-open connection
                refused, headers, _ = await _send_request(
                    reader, writer, "POST", "/characterize",
                    characterize_payload(formats=["coo"]),
                )
                snapshot = await drain_task
                cancelled, _, _ = await straggler
                writer.close()
                assert (refused, cancelled) == (503, 503)
                assert headers["retry-after"] == "1"
                counters = snapshot["counters"]
                assert counters["serve.decision.refuse.draining"] == 1
                assert counters["serve.drain.cancelled"] == 1
                assert counters["serve.requests"] == 2
                assert counters["serve.http.503"] == 2
                assert counters["serve.http.5xx"] == 2
                assert "serve.http.500" not in counters
                assert counters["serve.errors.ServeDrainingError"] == 2
                statuses = [
                    span["labels"]["status"]
                    for span in snapshot["spans"]
                    if span["name"] == "serve.request"
                ]
                assert statuses == [503, 503]

        asyncio.run(main())


class TestDrainSnapshot:
    def test_final_snapshot_lands_on_disk_atomically(self, tmp_path):
        path = tmp_path / "final-metrics.json"

        async def main():
            async with running_server() as server:
                await post_json(
                    server, "characterize", characterize_payload()
                )
                returned = await server.drain(
                    timeout_s=1.0, snapshot_path=path
                )
                on_disk = json.loads(path.read_text())
                assert on_disk["schema"] == METRICS_SCHEMA
                assert on_disk == returned
                assert (
                    on_disk["counters"]["serve.drain.initiated"] == 1
                )
                leftovers = [
                    p.name
                    for p in tmp_path.iterdir()
                    if TMP_MARKER in p.name
                ]
                assert leftovers == []

        asyncio.run(main())

    def test_drain_is_idempotent(self):
        async def main():
            async with running_server() as server:
                first = await server.drain(timeout_s=0.1)
                second = await server.drain(timeout_s=0.1)
                assert (
                    second["counters"]["serve.drain.initiated"] == 1
                )
                assert first["schema"] == second["schema"]

        asyncio.run(main())

    def test_negative_timeout_rejected(self):
        async def main():
            async with running_server() as server:
                with pytest.raises(ServeError):
                    await server.drain(timeout_s=-1.0)

        asyncio.run(main())
