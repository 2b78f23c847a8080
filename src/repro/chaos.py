"""Chaos campaign runner: seeded crash/recovery schedules, hard-gated.

``repro bench chaos`` turns the durability clauses of the deterministic
fault grammar (:mod:`repro.engine.faults`) into a verdict.  One
campaign runs N seeded *schedules*; each schedule injects a randomly
drawn fault plan into a real target and then checks hard invariants
on what recovery produced:

* **queue schedules** — a distributed queue sweep runs under the
  plan (torn shard/checkpoint writes, suppressed heartbeats, ENOSPC,
  worker and merge crashes).  Whatever state the crash leaves behind
  is repaired by the doctor (:mod:`repro.doctor`), the sweep is
  resumed chaos-free from the surviving checkpoint, and the campaign
  gates on: recovered checkpoint digest == the sequential reference
  digest, zero lost or duplicated cells, and a clean post-repair
  doctor audit.
* **serve schedules** — a live server takes seeded load while a
  drain (the campaign's ``sigterm@serve#midflight``) lands
  mid-flight.  Gates: no status outside {200, 429, 503} (transport
  refusals after the listener closes count as shed load, status 0),
  and a valid final ``metrics/v1`` snapshot on disk.

Every schedule's plan is drawn from ``random.Random(seed)``, so a
campaign is exactly reproducible: same ``(seed, n_schedules)``, same
faults at the same operation counts, same verdict.  Recorded crash
messages name files relative to the campaign's work directory, with
process ids masked, so they do not differ between reruns by a pid or
a temporary path.
A schedule that violates any invariant lands in the report, and the
suite's zero-violations gate fails the run (CLI exit 2): chaos
findings are test failures, not log lines.
"""

from __future__ import annotations

import asyncio
import json
import re
import tempfile
import time
from pathlib import Path
from random import Random

from .doctor import diagnose_queue
from .engine import WorkloadSpec, checkpoint_digest
from .engine.faults import FaultPlan, FaultSpec
from .engine.distributed import QueueOptions
from .engine.retry import RetryPolicy
from .engine.runner import SweepRunner
from .envelope import Gate, Param, Suite
from .errors import ChaosError, CopernicusError
from .observability import METRICS_SCHEMA

__all__ = [
    "SUITE",
    "campaign_grid",
    "random_plan",
    "run_chaos_campaign",
]

#: The small sweep grid every queue schedule runs (8 cells: fast
#: enough to crash and recover twenty times in one CI job, wide
#: enough that chunks land on both workers).
_SPEC_BUILDERS = (
    lambda: WorkloadSpec.random(48, 0.08, seed=101),
    lambda: WorkloadSpec.band(48, 5, seed=102),
)
_FORMATS = ("csr", "coo")
_PARTITIONS = (8, 16)

#: Requests per serve schedule, sized so a drain reliably lands while
#: some are still in flight.
_SERVE_REQUESTS = 32

#: Every ``serve_every``-th schedule is a serve schedule; the rest
#: are queue schedules.
_SERVE_EVERY = 5


def campaign_grid() -> list:
    """The workload specs every queue schedule sweeps."""
    return [build() for build in _SPEC_BUILDERS]


# ----------------------------------------------------------------------
# Fault-plan sampling (pure, seeded)
# ----------------------------------------------------------------------
_CATALOG = (
    lambda rng: FaultSpec(
        "torn-write", "shards",
        frac=rng.choice((0.25, 0.5, 0.75)),
        after=rng.randrange(1, 5),
    ),
    lambda rng: FaultSpec(
        "torn-write", "checkpoint",
        frac=rng.choice((0.25, 0.5, 0.75)),
        after=rng.randrange(1, 9),
    ),
    lambda rng: FaultSpec(
        "stale-lease", "worker",
        after=rng.randrange(1, 3),
        times=None,
    ),
    lambda rng: FaultSpec(
        "slow-io", "blobs",
        ms=rng.choice((5.0, 15.0, 30.0)),
        times=None,
    ),
    lambda rng: FaultSpec(
        "disk-full", "shards", after=rng.randrange(2, 8)
    ),
    lambda rng: FaultSpec(
        "disk-full", "checkpoint", after=rng.randrange(2, 9)
    ),
    lambda rng: FaultSpec(
        "crash", "worker", after=rng.randrange(1, 5)
    ),
    lambda rng: FaultSpec("crash", "merge"),
)


def random_plan(rng: Random) -> FaultPlan:
    """One schedule's fault plan: one or (sometimes) two draws."""
    n_specs = 2 if rng.random() < 0.3 else 1
    return FaultPlan.of(
        *(rng.choice(_CATALOG)(rng) for _ in range(n_specs))
    )


# ----------------------------------------------------------------------
# Queue schedules: inject -> crash -> doctor -> resume -> gate
# ----------------------------------------------------------------------
def _reference_digest(workdir: Path) -> tuple[str, int]:
    """The sequential no-chaos digest every recovery must reproduce."""
    checkpoint = workdir / "reference.jsonl"
    runner = SweepRunner(
        max_workers=1,
        error_policy="fail_fast",
        backend="inline",
        checkpoint=checkpoint,
    )
    outcome = runner.run_grid(
        campaign_grid(), _FORMATS, _PARTITIONS
    )
    return checkpoint_digest(checkpoint), len(outcome.results)


#: Process-id suffixes of coordinator and worker shard names.
_PID = re.compile(r"\b(coordinator|w\d+)-\d+\b")


def _stable_message(error: BaseException, workdir: Path) -> str:
    """``Type: message`` with the workdir prefix and pids masked."""
    text = f"{type(error).__name__}: {error}"
    text = text.replace(str(workdir), "<workdir>")
    return _PID.sub(r"\1-<pid>", text)


def _run_queue_schedule(
    index: int,
    rng: Random,
    workdir: Path,
    reference: str,
    n_cells: int,
    workers: int,
) -> dict:
    plan = random_plan(rng)
    checkpoint = workdir / f"schedule-{index}.jsonl"
    queue_dir = workdir / f"queue-{index}"
    crashed: str | None = None
    runner = SweepRunner(
        max_workers=workers,
        error_policy="collect",
        backend="queue",
        checkpoint=checkpoint,
        faults=plan,
        queue_options=QueueOptions(
            queue_dir=str(queue_dir),
            lease_timeout_s=1.0,
            poll_interval_s=0.05,
            n_shards=4,
            keep_queue=True,
            speculate_factor=3.0,
            speculate_min_samples=4,
            speculate_floor_s=2.0,
        ),
    )
    try:
        runner.run_grid(campaign_grid(), _FORMATS, _PARTITIONS)
    except (CopernicusError, OSError) as error:
        # an injected ChaosCrash, or a fault surfacing as ENOSPC or
        # torn state mid-run, is a crash the campaign must recover
        # from; whether the recovery is *correct* is decided by the
        # gates below, not by which exception carried the crash
        crashed = _stable_message(error, workdir)

    violations: list[str] = []

    # 1. repair whatever the crash left behind (requeue expired
    #    claims, drop torn tails, salvage stranded shard results)
    time.sleep(0.1)  # let crashed workers' leases age past zero
    repair = diagnose_queue(
        queue_dir,
        repair=True,
        lease_timeout_s=0.05,
        checkpoint=checkpoint,
    )

    # 2. resume chaos-free from the surviving checkpoint
    try:
        resumed = SweepRunner(
            max_workers=1,
            error_policy="fail_fast",
            backend="inline",
            checkpoint=checkpoint,
            resume=True,
        ).run_grid(campaign_grid(), _FORMATS, _PARTITIONS)
    except (CopernicusError, OSError) as error:
        violations.append(
            f"resume-failed: {type(error).__name__}: {error}"
        )
        resumed = None

    # 3. the hard gates
    recovered_digest = ""
    if resumed is not None:
        recovered_digest = checkpoint_digest(checkpoint)
        if recovered_digest != reference:
            violations.append(
                f"digest-mismatch: {recovered_digest[:16]} != "
                f"{reference[:16]}"
            )
        if len(resumed.results) != n_cells or not resumed.ok:
            violations.append(
                f"lost-cells: {len(resumed.results)}/{n_cells} "
                f"recovered, {resumed.n_failed} failed"
            )
        coords = [
            (r.workload, r.format_name, r.partition_size)
            for r in resumed.results
        ]
        if len(set(coords)) != len(coords):
            violations.append("duplicated-cells")
    check = diagnose_queue(
        queue_dir,
        repair=False,
        lease_timeout_s=3600.0,
        checkpoint=checkpoint,
    )
    if not check["clean"]:
        violations.append(
            "doctor-dirty: " + json.dumps(check["by_kind"])
        )

    return {
        "index": index,
        "kind": "queue",
        "plan": plan.describe(),
        "fault_kinds": sorted({s.kind for s in plan.specs}),
        "crashed": crashed,
        "recovered_digest": recovered_digest,
        "doctor": {
            "n_findings": repair["n_findings"],
            "n_repaired": repair["n_repaired"],
            "by_kind": repair["by_kind"],
        },
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Serve schedules: load -> drain mid-flight -> gate
# ----------------------------------------------------------------------
async def _serve_schedule(
    index: int, rng: Random, workdir: Path
) -> dict:
    from .serve.loadgen import plan_requests, run_load
    from .serve.server import CharacterizationServer

    # one backend lane + a short admission queue: requests are still
    # in flight (running, queued, or 429-retrying) when the drain
    # lands, which is the scenario under test
    server = CharacterizationServer(
        "127.0.0.1", 0, max_inflight=1, queue_limit=2
    )
    await server.start()
    snapshot_path = workdir / f"serve-{index}.json"
    violations: list[str] = []
    try:
        planned = plan_requests(
            "unique", _SERVE_REQUESTS, seed=rng.randrange(1 << 20)
        )
        drain_after_s = rng.uniform(0.01, 0.08)
        load = asyncio.ensure_future(
            run_load(
                server.host,
                server.port,
                planned,
                concurrency=4,
                retry_policy=RetryPolicy(
                    max_attempts=3,
                    base_delay_s=0.05,
                    max_delay_s=0.2,
                ),
                retry_seed=index,
                tolerate_errors=True,
            )
        )
        await asyncio.sleep(drain_after_s)
        snapshot = await server.drain(
            timeout_s=5.0, snapshot_path=snapshot_path
        )
        outcomes, _ = await load
    finally:
        await server.aclose()

    statuses: dict[str, int] = {}
    for outcome in outcomes:
        key = str(outcome.status)
        statuses[key] = statuses.get(key, 0) + 1
    bad = {
        status
        for status in statuses
        if status not in {"0", "200", "429", "503"}
    }
    if bad:
        violations.append(
            "serve-bad-status: " + ",".join(sorted(bad))
        )
    if snapshot.get("schema") != METRICS_SCHEMA:
        violations.append("snapshot-bad-schema")
    try:
        on_disk = json.loads(snapshot_path.read_text())
        if on_disk.get("schema") != METRICS_SCHEMA:
            violations.append("snapshot-file-bad-schema")
    except (OSError, json.JSONDecodeError) as error:
        violations.append(
            f"snapshot-unreadable: {type(error).__name__}"
        )

    counters = snapshot.get("counters", {})
    return {
        "index": index,
        "kind": "serve",
        "plan": "sigterm@serve#midflight",
        "fault_kinds": ["sigterm"],
        "crashed": None,
        "statuses": statuses,
        "drain": {
            "refused": int(counters.get("serve.drain.refused", 0)),
            "cancelled": int(
                counters.get("serve.drain.cancelled", 0)
            ),
        },
        "violations": violations,
    }


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_chaos_campaign(
    seed: int = 7,
    n_schedules: int = 20,
    *,
    workers: int = 2,
    workdir: "str | Path | None" = None,
) -> dict:
    """Run a full campaign and return its report sections.

    Deterministic per ``(seed, n_schedules)``: schedule ``i`` draws
    its fault plan from ``Random(seed * 10007 + i)``.  The sections
    record every schedule's verdict; :data:`SUITE` gates them.
    """
    if n_schedules < 1:
        raise ChaosError(
            f"n_schedules must be >= 1, got {n_schedules}"
        )
    if workers < 1:
        raise ChaosError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()

    def _campaign(root: Path) -> dict:
        reference, n_cells = _reference_digest(root)
        schedules: list[dict] = []
        for index in range(n_schedules):
            rng = Random(seed * 10007 + index)
            if index % _SERVE_EVERY == _SERVE_EVERY - 1:
                record = asyncio.run(
                    _serve_schedule(index, rng, root)
                )
            else:
                record = _run_queue_schedule(
                    index, rng, root, reference, n_cells, workers
                )
            schedules.append(record)

        recoveries: dict[str, int] = {}
        for record in schedules:
            if record["violations"]:
                continue
            for kind in record["fault_kinds"]:
                recoveries[kind] = recoveries.get(kind, 0) + 1
        n_violations = sum(
            len(record["violations"]) for record in schedules
        )
        return {
            "config": {"n_cells": n_cells, "serve_every": _SERVE_EVERY},
            "reference": {"digest": reference, "n_cells": n_cells},
            "schedules": schedules,
            "summary": {
                "n_schedules": n_schedules,
                "n_queue": sum(
                    1 for r in schedules if r["kind"] == "queue"
                ),
                "n_serve": sum(
                    1 for r in schedules if r["kind"] == "serve"
                ),
                "n_crashed": sum(
                    1 for r in schedules if r["crashed"]
                ),
                "n_recovered": sum(
                    1 for r in schedules if not r["violations"]
                ),
                "n_violations": n_violations,
                "recoveries_by_fault_kind": dict(
                    sorted(recoveries.items())
                ),
                "uncaught_failures": 0,
                "wall_s": time.perf_counter() - started,
            },
        }

    if workdir is not None:
        root = Path(workdir)
        root.mkdir(parents=True, exist_ok=True)
        return _campaign(root)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _campaign(Path(tmp))


def _describe(report: dict) -> list[str]:
    summary = report["summary"]
    recoveries = ", ".join(
        f"{kind}={count}"
        for kind, count in summary["recoveries_by_fault_kind"].items()
    )
    lines = [
        f"chaos campaign: seed={report['config']['seed']} "
        f"schedules={summary['n_schedules']} "
        f"({summary['n_queue']} queue, {summary['n_serve']} serve) "
        f"in {summary['wall_s']:.1f}s",
        f"reference digest: {report['reference']['digest'][:16]} "
        f"({report['reference']['n_cells']} cells)",
        f"crashed: {summary['n_crashed']}, recovered clean: "
        f"{summary['n_recovered']}, invariant violations: "
        f"{summary['n_violations']}",
        f"recoveries by fault kind: {recoveries or 'none'}",
    ]
    lines.extend(
        f"schedule {record['index']} ({record['plan']}): "
        + ", ".join(record["violations"])
        for record in report["schedules"]
        if record["violations"]
    )
    return lines


#: ``repro bench chaos``.  ``digest-mismatch``, ``lost-cells`` and
#: ``resume-failed`` are violations, so the first gate covers recovery.
SUITE = Suite(
    name="chaos",
    help="run seeded crash/recovery schedules and gate on "
    "recovery invariants",
    seed=7,
    output="BENCH_chaos.json",
    params=(
        Param("n_schedules", 20, "crash/recovery schedules to run",
              option="--schedules"),
        Param("workers", 2, "queue worker processes per schedule"),
        Param(
            "workdir", None,
            "keep schedule artifacts (queues, checkpoints, snapshots) "
            "under this directory instead of a private temporary one",
            type=str,
        ),
    ),
    body=run_chaos_campaign,
    gates=(
        Gate("zero_violations", "summary.n_violations", "==", 0),
        Gate("zero_uncaught", "summary.uncaught_failures", "==", 0),
    ),
    describe=_describe,
)
