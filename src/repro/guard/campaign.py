"""The gated ``bench_guard/v1`` campaign behind ``repro guard``.

One command proves the whole defense line end to end, in four phases:

1. **Corpus replay** — every committed regression case in
   ``tests/corpus/`` re-executes through :func:`~repro.guard.fuzz.
   execute_case` (sandbox armed).  The gate: every input comes back as
   a *typed* verdict — zero crash outcomes, zero exceptions escaping
   the harness.
2. **Seeded fuzz budget** — a fresh :func:`~repro.guard.fuzz.fuzz_run`
   over all generator kinds and formats.  The gate: zero new crash
   signatures beyond what the corpus already records (the corpus holds
   *fixed* crashes, so in a healthy tree that set is empty).
3. **Breaker exercise** — a live server with a poison route (every
   ``dia`` cell fault-injected) is driven to its failure threshold;
   the gate: the route's breaker *opens* (503 + ``Retry-After``
   answered from the breaker, not the backend) AND *recovers* (a
   half-open probe closes it and a healthy request answers 200).
4. **Priority shedding** — a live server with a deliberately tiny p99
   SLO sheds under pressure; the gate: ``high``-priority requests all
   answer 200 with bounded p99 while ``normal``/``low`` are refused
   with 503 + ``Retry-After``.  A hostile loadgen mix (malformed
   matrices straight from the fuzz generators) runs against the same
   guarded server class; the gate: zero worker harm — every hostile
   request is contained as a 4xx/503, never a connection drop or an
   unhandled 500.

:func:`run_guard_campaign` returns the report;
:func:`check_guard_campaign` turns failed gates into a
:class:`~repro.errors.GuardError` (exit 2 on the CLI).
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from .. import io_atomic
from ..errors import GuardError
from ..observability import machine_metadata
from .fuzz import FuzzReport, execute_case, fuzz_run, load_corpus
from .overload import GuardPolicy
from .sandbox import Sandbox, SandboxLimits

__all__ = [
    "BENCH_GUARD_SCHEMA",
    "DEFAULT_CORPUS_DIR",
    "check_guard_campaign",
    "run_guard_campaign",
    "write_guard_report",
]

BENCH_GUARD_SCHEMA = "bench_guard/v1"

#: The committed regression corpus CI replays (repo-relative).
DEFAULT_CORPUS_DIR = (
    Path(__file__).resolve().parents[3] / "tests" / "corpus"
)

#: A benign workload the serve phases query.
_BENIGN = {"kind": "random", "n": 32, "density": 0.1, "seed": 1}


# ----------------------------------------------------------------------
# Phase 1+2: the fuzz surface
# ----------------------------------------------------------------------
def _replay_phase(
    corpus_dir: "str | Path", sandbox: "Sandbox | None"
) -> dict:
    cases = load_corpus(corpus_dir)
    report = FuzzReport(seed=0)
    unhandled: list[str] = []
    started = time.perf_counter()
    for case in cases:
        # execute_case is contractually exception-free; this except is
        # the measurement of that contract, not a convenience trap
        try:
            outcome = execute_case(case, sandbox=sandbox)
        except BaseException as error:  # noqa: BLE001 — the gate itself
            unhandled.append(
                f"{case.kind}-{case.seed}: "
                f"{type(error).__name__}: {error}"
            )
            continue
        report.record(outcome)
    report.wall_s = time.perf_counter() - started
    return {
        "corpus_dir": str(corpus_dir),
        "n_cases": len(cases),
        "by_verdict": dict(sorted(report.by_verdict.items())),
        "crash_signatures": list(report.crash_signatures),
        "unhandled_exceptions": unhandled,
        "wall_s": report.wall_s,
    }


def _fuzz_phase(
    seed: int,
    *,
    n_cases: "int | None",
    budget_s: "float | None",
    known_signatures: "set[str]",
    sandbox: "Sandbox | None",
) -> dict:
    unhandled: list[str] = []
    try:
        report = fuzz_run(
            seed, n_cases=n_cases, budget_s=budget_s, sandbox=sandbox
        )
    except BaseException as error:  # noqa: BLE001 — the gate itself
        unhandled.append(f"{type(error).__name__}: {error}")
        report = FuzzReport(seed=seed)
    payload = report.to_dict()
    payload["new_crash_signatures"] = [
        signature
        for signature in report.crash_signatures
        if signature not in known_signatures
    ]
    payload["unhandled_exceptions"] = unhandled
    return payload


# ----------------------------------------------------------------------
# Phase 3: breaker opens and recovers on a live server
# ----------------------------------------------------------------------
async def _post(server, endpoint: str, payload: dict, priority=None):
    import json

    from ..serve import http_request

    headers = (
        {"X-Copernicus-Priority": priority} if priority else None
    )
    return await http_request(
        server.host,
        server.port,
        "POST",
        f"/{endpoint}",
        json.dumps(payload).encode(),
        headers=headers,
    )


async def _breaker_phase() -> dict:
    from ..serve import CharacterizationServer

    policy = GuardPolicy(
        breaker_threshold=3, breaker_recovery_s=0.4
    )
    # every dia cell raises persistently: a poison route the breaker
    # must learn to answer for
    server = CharacterizationServer(
        port=0,
        max_inflight=2,
        faults="raise@*:dia:*#times=none",
        guard_policy=policy,
    )
    await server.start()
    try:
        poison_statuses: list[int] = []
        for index in range(policy.breaker_threshold):
            status, _, _ = await _post(
                server,
                "characterize",
                {
                    "workload": {**_BENIGN, "seed": 100 + index},
                    "formats": ["dia"],
                    "partitions": [8],
                },
            )
            poison_statuses.append(status)
        # threshold reached: the next request must be refused by the
        # breaker itself, with a Retry-After hint
        status, headers, _ = await _post(
            server,
            "characterize",
            {
                "workload": {**_BENIGN, "seed": 999},
                "formats": ["dia"],
                "partitions": [8],
            },
        )
        open_status = status
        retry_after = headers.get("retry-after", "")
        # sit out the recovery window, then probe with a healthy query
        # — half-open lets it through, success closes the breaker
        await asyncio.sleep(policy.breaker_recovery_s + 0.05)
        probe_status, _, _ = await _post(
            server,
            "characterize",
            {
                "workload": _BENIGN,
                "formats": ["coo"],
                "partitions": [8],
            },
        )
        breaker = server._breaker("characterize")
        transitions = dict(sorted(breaker.transitions.items()))
        return {
            "policy": {
                "threshold": policy.breaker_threshold,
                "recovery_s": policy.breaker_recovery_s,
            },
            "poison_statuses": poison_statuses,
            "open_status": open_status,
            "retry_after": retry_after,
            "probe_status": probe_status,
            "final_state": breaker.state,
            "transitions": transitions,
            "opened": open_status == 503
            and transitions.get("closed-open", 0) >= 1,
            "recovered": probe_status == 200
            and transitions.get("half-open-closed", 0) >= 1,
        }
    finally:
        await server.aclose()


# ----------------------------------------------------------------------
# Phase 4a: priority shedding keeps the high class bounded
# ----------------------------------------------------------------------
async def _shed_phase() -> dict:
    from ..serve import CharacterizationServer
    from ..serve.loadgen import percentile

    # a deliberately unmeetable SLO: any real sweep latency is far
    # beyond 2x this threshold, so after the window holds one sample
    # the shedder is severely over the line and sheds normal+low
    policy = GuardPolicy(shed_p99_ms=0.01)
    server = CharacterizationServer(
        port=0, max_inflight=2, guard_policy=policy
    )
    await server.start()
    try:
        high_latencies_ms: list[float] = []
        by_priority: dict[str, dict] = {}

        async def _probe(priority: str, seed: int) -> None:
            started = time.perf_counter()
            status, headers, _ = await _post(
                server,
                "characterize",
                {
                    "workload": {**_BENIGN, "seed": seed},
                    "formats": ["coo"],
                    "partitions": [8],
                },
                priority=priority,
            )
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            record = by_priority.setdefault(
                priority,
                {"requests": 0, "statuses": {}, "retry_after": ""},
            )
            record["requests"] += 1
            record["statuses"][str(status)] = (
                record["statuses"].get(str(status), 0) + 1
            )
            if headers.get("retry-after"):
                record["retry_after"] = headers["retry-after"]
            if priority == "high" and status == 200:
                high_latencies_ms.append(elapsed_ms)

        # prime the latency window (high is never shed, so these all
        # reach the backend and their latencies are observed)
        for seed in range(200, 204):
            await _probe("high", seed)
        # under severe pressure: high keeps serving, the rest shed
        for seed in range(300, 304):
            await _probe("high", seed)
            await _probe("normal", seed)
            await _probe("low", seed)
        shedder = server.shedder.snapshot()
        high = by_priority.get("high", {"statuses": {}})
        normal = by_priority.get("normal", {"statuses": {}})
        low = by_priority.get("low", {"statuses": {}})
        return {
            "policy": {"shed_p99_ms": policy.shed_p99_ms},
            "by_priority": by_priority,
            "high_p99_ms": percentile(high_latencies_ms, 99)
            if high_latencies_ms
            else 0.0,
            "shedder": shedder,
            "high_all_served": set(high["statuses"]) == {"200"},
            "low_all_shed": set(low["statuses"]) == {"503"}
            and bool(low.get("retry_after")),
            "normal_all_shed": set(normal["statuses"]) == {"503"}
            and bool(normal.get("retry_after")),
        }
    finally:
        await server.aclose()


# ----------------------------------------------------------------------
# Phase 4b: hostile traffic is contained at the wire
# ----------------------------------------------------------------------
async def _hostile_phase(
    seed: int, requests: int, concurrency: int
) -> dict:
    from ..serve import CharacterizationServer
    from ..serve.loadgen import (
        bench_report,
        fetch_metrics,
        plan_requests,
        run_load,
    )

    server = CharacterizationServer(
        port=0,
        max_inflight=2,
        sandbox_limits=SandboxLimits(wall_s=5.0),
    )
    await server.start()
    try:
        planned = plan_requests("hostile", requests, seed)
        before = await fetch_metrics(server.host, server.port)
        # tolerate_errors: a dead worker shows up as a status-0
        # outcome (counted as worker harm) instead of killing the
        # measurement — the whole point of this phase
        outcomes, wall_s = await run_load(
            server.host,
            server.port,
            planned,
            concurrency=concurrency,
            tolerate_errors=True,
        )
        after = await fetch_metrics(server.host, server.port)
        report = bench_report(
            mix="hostile",
            seed=seed,
            concurrency=concurrency,
            outcomes=outcomes,
            wall_s=wall_s,
            metrics_before=before,
            metrics_after=after,
        )
        guard_extra = after["extra"]["guard"]
        return {
            "requests": report["requests"],
            "statuses": report["statuses"],
            "hostile": report["hostile"],
            "sandbox": guard_extra["sandbox"],
            "wall_s": wall_s,
        }
    finally:
        await server.aclose()


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_guard_campaign(
    seed: int = 7,
    *,
    corpus_dir: "str | Path | None" = None,
    fuzz_cases: "int | None" = 400,
    fuzz_budget_s: "float | None" = None,
    hostile_requests: int = 40,
    concurrency: int = 4,
    sandbox_limits: "SandboxLimits | None" = None,
) -> dict:
    """Run all four phases and return the ``bench_guard/v1`` report.

    Deterministic per ``(seed, fuzz_cases, hostile_requests)`` up to
    wall-clock fields.  Use :func:`check_guard_campaign` to turn
    failed gates into a :class:`~repro.errors.GuardError`.
    """
    if hostile_requests < 1:
        raise GuardError(
            f"hostile_requests must be >= 1, got {hostile_requests}"
        )
    started = time.perf_counter()
    corpus = (
        Path(corpus_dir) if corpus_dir is not None
        else DEFAULT_CORPUS_DIR
    )
    with Sandbox(sandbox_limits or SandboxLimits(wall_s=5.0)) as sb:
        replay = _replay_phase(corpus, sb)
        fuzz = _fuzz_phase(
            seed,
            n_cases=fuzz_cases,
            budget_s=fuzz_budget_s,
            known_signatures=set(replay["crash_signatures"]),
            sandbox=sb,
        )
    breaker = asyncio.run(_breaker_phase())
    shedding = asyncio.run(_shed_phase())
    hostile = asyncio.run(
        _hostile_phase(seed, hostile_requests, concurrency)
    )
    gates = {
        "corpus_zero_crashes": not replay["crash_signatures"],
        "corpus_zero_unhandled": not replay["unhandled_exceptions"],
        "fuzz_zero_new_crashes": not fuzz["new_crash_signatures"]
        and not fuzz["unhandled_exceptions"],
        "breaker_opened": breaker["opened"],
        "breaker_recovered": breaker["recovered"],
        "high_priority_served": shedding["high_all_served"],
        "low_priority_shed": shedding["low_all_shed"],
        "hostile_zero_worker_harm": (
            hostile["hostile"]["worker_harm"] == 0
        ),
    }
    return {
        "schema": BENCH_GUARD_SCHEMA,
        "machine": machine_metadata(),
        "config": {
            "seed": seed,
            "corpus_dir": str(corpus),
            "fuzz_cases": fuzz_cases,
            "fuzz_budget_s": fuzz_budget_s,
            "hostile_requests": hostile_requests,
            "concurrency": concurrency,
        },
        "corpus": replay,
        "fuzz": fuzz,
        "breaker": breaker,
        "shedding": shedding,
        "hostile": hostile,
        "summary": {
            "gates": gates,
            "n_gates_failed": sum(
                1 for passed in gates.values() if not passed
            ),
            "inputs_executed": replay["n_cases"]
            + fuzz["inputs_tried"],
            "wall_s": time.perf_counter() - started,
        },
    }


def check_guard_campaign(report: dict) -> None:
    """Raise :class:`GuardError` naming every failed gate."""
    gates = report["summary"]["gates"]
    failed = sorted(
        name for name, passed in gates.items() if not passed
    )
    if not failed:
        return
    raise GuardError(
        f"{len(failed)} guard gate(s) failed: {', '.join(failed)} "
        "(see the bench_guard/v1 report for the phase records)"
    )


def write_guard_report(report: dict, path: "str | Path") -> Path:
    """Atomically persist one campaign report."""
    target = Path(path)
    io_atomic.atomic_write_json(target, report)
    return target
