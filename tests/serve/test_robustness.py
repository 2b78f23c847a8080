"""Fault injection against a live server: errors are structured,
the process keeps serving.

Reuses the sweep engine's deterministic fault grammar
(``repro.engine.faults``) to detonate worker crashes and corrupt
streams inside the backend while requests are in flight.  The
contract under test: every failure surfaces as a ``serve/v1`` error
body with a typed ``error.type`` — never a hang, never a raw
traceback on the wire — and the very next request is answered
normally.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.errors import SweepConfigError
from repro.serve.backend import SweepBackend
from repro.serve.server import CharacterizationServer
from tests.serve.helpers import (
    characterize_payload,
    get_path,
    post_json,
    running_server,
)

# targeted faults: csr cells die, every other format stays healthy
CRASH_CSR = "crash@*:csr:*#times=none"
CORRUPT_CSR = (
    "corrupt@*:csr:*#ckind=bitflip#ber=0.01#mode=strict#times=none"
)


def _csr_query() -> dict:
    return characterize_payload(formats=["coo", "csr"], partitions=[8])


def _healthy_query() -> dict:
    return characterize_payload(formats=["coo"], partitions=[8])


class TestWorkerCrashFault:
    def test_crash_is_a_structured_500(self) -> None:
        async def main() -> None:
            async with running_server(faults=CRASH_CSR) as server:
                status, _, body = await post_json(
                    server, "characterize", _csr_query()
                )
                assert status == 500
                text = body.decode()
                assert "Traceback" not in text
                error = json.loads(body)["error"]
                assert error["type"] == "SweepCellError"
                assert error["status"] == 500
                # the message names the failing cell and root cause
                assert "csr" in error["message"]
                assert "WorkerCrashError" in error["message"]

        asyncio.run(main())

    def test_server_keeps_serving_after_crash(self) -> None:
        async def main() -> None:
            async with running_server(faults=CRASH_CSR) as server:
                status, _, _ = await post_json(
                    server, "characterize", _csr_query()
                )
                assert status == 500
                # healthy formats still answer on the same server
                status, headers, _ = await post_json(
                    server, "characterize", _healthy_query()
                )
                assert status == 200
                assert headers["x-copernicus-source"] == "computed"
                status, _, _ = await get_path(server, "/healthz")
                assert status == 200

        asyncio.run(main())

    def test_crash_under_concurrent_load(self) -> None:
        """A failing digest and healthy digests in flight together:
        the failure reaches exactly its own waiters."""

        async def main() -> None:
            async with running_server(
                faults=CRASH_CSR, max_inflight=4
            ) as server:
                responses = await asyncio.gather(
                    post_json(server, "characterize", _csr_query()),
                    post_json(server, "characterize", _csr_query()),
                    post_json(server, "characterize", _healthy_query()),
                    post_json(server, "characterize", _healthy_query()),
                )
                statuses = [status for status, _, _ in responses]
                assert statuses[:2] == [500, 500]
                assert statuses[2:] == [200, 200]
                # both failures carry the same structured body
                assert responses[0][2] == responses[1][2]

        asyncio.run(main())

    def test_failures_are_not_cached(self) -> None:
        async def main() -> None:
            async with running_server(faults=CRASH_CSR) as server:
                for _ in range(2):
                    status, _, _ = await post_json(
                        server, "characterize", _csr_query()
                    )
                    assert status == 500
                # each attempt recomputed: errors never enter the LRU
                assert len(server.cache) == 0
                assert server.flight.stats.failures == 2

        asyncio.run(main())


class TestCorruptStreamFault:
    def test_corruption_is_a_structured_500(self) -> None:
        async def main() -> None:
            async with running_server(faults=CORRUPT_CSR) as server:
                status, _, body = await post_json(
                    server, "characterize", _csr_query()
                )
                assert status == 500
                text = body.decode()
                assert "Traceback" not in text
                error = json.loads(body)["error"]
                assert error["type"] == "SweepCellError"
                assert "FormatIntegrityError" in error["message"]

        asyncio.run(main())

    def test_server_keeps_serving_after_corruption(self) -> None:
        async def main() -> None:
            async with running_server(faults=CORRUPT_CSR) as server:
                status, _, _ = await post_json(
                    server, "characterize", _csr_query()
                )
                assert status == 500
                status, _, _ = await post_json(
                    server, "characterize", _healthy_query()
                )
                assert status == 200
                _, _, body = await get_path(server, "/metrics")
                counters = json.loads(body)["counters"]
                assert counters["serve.errors.SweepCellError"] == 1
                assert counters["serve.http.5xx"] == 1
                assert counters["serve.http.200"] == 1

        asyncio.run(main())


class TestMalformedTrafficResilience:
    def test_garbage_then_valid_on_one_server(self) -> None:
        async def main() -> None:
            async with running_server() as server:
                from repro.serve import http_request

                for garbage in (b"", b"{}", b'{"workload": 5}'):
                    status, _, body = await http_request(
                        server.host, server.port, "POST",
                        "/characterize", garbage,
                    )
                    assert status == 400
                    assert "Traceback" not in body.decode()
                status, _, _ = await post_json(
                    server, "characterize", _healthy_query()
                )
                assert status == 200

        asyncio.run(main())


class TestAdvisorModelResilience:
    """A bad ``advisor_model`` path must never take the server down.

    Loading happens at construction; a missing or corrupt artifact is
    counted as a typed load failure and the server simply runs with
    the advisor disabled — every ``/advise`` query takes the exact
    path.
    """

    def _advise_query(self) -> dict:
        return {
            "workload": {
                "kind": "random", "n": 32, "density": 0.1, "seed": 1,
            },
            "formats": ["coo", "csr"],
            "partitions": [8],
            "objective": "latency",
        }

    def _assert_degraded_to_exact(self, model_path: str) -> None:
        async def main() -> None:
            async with running_server(
                advisor_model=model_path
            ) as server:
                assert server.advisor is None
                status, headers, body = await post_json(
                    server, "advise", self._advise_query()
                )
                assert status == 200
                assert headers["x-copernicus-source"] == "computed"
                assert "cells" in json.loads(body)

                _, _, metrics = await get_path(server, "/metrics")
                payload = json.loads(metrics)
                counters = payload["counters"]
                assert counters["serve.advisor.load_failures"] == 1
                assert counters[
                    "serve.advisor.errors.AdvisorModelError"
                ] == 1
                assert payload["extra"]["advisor"]["enabled"] is False

        asyncio.run(main())

    def test_missing_model_file_degrades_to_exact(
        self, tmp_path
    ) -> None:
        self._assert_degraded_to_exact(str(tmp_path / "absent.json"))

    def test_corrupt_model_file_degrades_to_exact(
        self, tmp_path
    ) -> None:
        path = tmp_path / "corrupt.json"
        path.write_text('{"schema": "advisor_model/v1", "digest": "x"')
        self._assert_degraded_to_exact(str(path))

    def test_tampered_model_file_degrades_to_exact(
        self, tmp_path
    ) -> None:
        from repro.advisor import save_model, sweep_training_rows, train_model
        from tests.advisor.conftest import tiny_specs

        specs = tiny_specs()[:2]
        rows = sweep_training_rows(specs, ("coo", "csr"), (8,))
        model = train_model(specs, rows)
        payload = model.to_payload()
        payload["heads"][0]["bias"] += 1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(payload))
        self._assert_degraded_to_exact(str(path))


class TestDurabilityFaultsRefused:
    """io_atomic hooks are process-global; a server's sweeps share them."""

    @pytest.mark.parametrize(
        "faults",
        [
            "disk-full@checkpoint",
            "crash@*:csr:*,torn-write@shards#after=2",
            "sigterm@serve#midflight",
        ],
    )
    def test_backend_refuses_durability_clauses(self, faults) -> None:
        with pytest.raises(SweepConfigError, match="sweep-cell faults"):
            SweepBackend(faults=faults)
        with pytest.raises(SweepConfigError):
            CharacterizationServer("127.0.0.1", 0, faults=faults)

    def test_cell_clauses_are_still_accepted(self) -> None:
        assert SweepBackend(faults=CRASH_CSR).faults.describe() == CRASH_CSR

    def test_cli_exits_2_without_a_traceback(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--port", "0",
                "--inject-faults", "disk-full@checkpoint",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
