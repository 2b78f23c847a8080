"""Distributed sweep backend: a file-based work queue, no new deps.

``QueueExecutor`` dispatches sweep chunks through a directory any
number of worker processes can share — locally, or across machines via
a network filesystem.  Everything is plain files and atomic renames,
so the only requirement on the transport is POSIX rename semantics:

::

    queue/
      queue.json    schema + ExecutionSettings as flat JSON (workers
                    read it; the fault plan as its describe() string)
      tasks/        unclaimed task files: a<attempt>-s<shard>-<digest>.task
      claimed/      claimed tasks (atomically renamed out of tasks/)
                    + <digest>.owner sidecars naming the claiming worker
      leases/       <worker>.lease heartbeat files (touched per cell)
      results/      <worker>.jsonl per-worker shard checkpoints
      done/         <digest>.done JSON completion markers: worker,
                    attempt, cache-stat delta, metrics, typed fatal error
      blobs/        content-addressed matrix blobs (StoredWorkload)
      workers/      <worker>.json registrations
      STOP          coordinator's shutdown signal to idle workers

**Claiming** is one atomic ``os.rename`` from ``tasks/`` to
``claimed/`` — exactly one worker wins, losers move on.  Tasks are
**digest-sharded**: each task's shard is derived from its chunk
digest, each worker has a home shard derived from its id, and workers
prefer home-shard tasks before *stealing* from other shards — claim
contention stays low while no worker ever idles beside a non-empty
queue.

**Fault tolerance** reuses the pool backend's recovery ladder with the
lease as the crash detector: a worker heartbeats its lease file after
every cell, so a task whose owner's lease goes stale is *reclaimed* —
re-enqueued with the attempt count bumped, then bisected once retries
are exhausted, then (single cell) recorded as a
:class:`~repro.engine.grid.FailedCell`.  A premature reclaim (slow
worker, not dead) is harmless: cells are deterministic, duplicate
executions produce identical records, and every merge deduplicates by
cell digest.

**Checkpointing is hierarchical**: each worker appends finished cells
to its own JSONL shard in ``results/`` (same format as ordinary sweep
checkpoints, cell-granular durability), and the coordinator merges
the shards into the canonical checkpoint in ascending grid order —
the order a ``max_workers=1`` sequential run writes — so
:func:`~repro.engine.checkpoint.checkpoint_digest` comparison against
a sequential checkpoint is the correctness gate.  The merged shards
are also the run's outcome: the coordinator returns results built
from the same merged state it writes.  Done markers and
``queue.json`` are plain JSON; only task files and blobs pickle.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .. import io_atomic
from ..errors import QueueError, SweepCellError, SweepConfigError
from ..observability import MetricsRegistry
from ..workloads.registry import Workload
from .cache import CacheStats, ContentKeyedCache, matrix_content_key
from .checkpoint import CheckpointWriter, cell_digests, load_checkpoint
from .executors import (
    CheckpointSink,
    ExecutionSettings,
    SweepExecutor,
    _Chunk,
    _ChunkOutput,
    _run_chunk,
)
from .faults import FaultPlan
from .grid import FailedCell, SweepCell
from .telemetry import CellTelemetry, workload_recipe_digest

__all__ = [
    "QUEUE_KIND",
    "QUEUE_SCHEMA",
    "QueueOptions",
    "QueueLayout",
    "StoredWorkload",
    "QueueExecutor",
    "run_worker",
]

QUEUE_KIND = "copernicus-work-queue"
QUEUE_SCHEMA = 2


def _encode_blob(obj) -> bytes:
    return zlib.compress(pickle.dumps(obj, protocol=4))


def _decode_blob(data: bytes):
    return pickle.loads(zlib.decompress(data))


def _encode_field(obj) -> str:
    return base64.b64encode(_encode_blob(obj)).decode("ascii")


def _decode_field(text: str):
    return _decode_blob(base64.b64decode(text))


#: ``queue.json``'s ``settings`` object: every ``ExecutionSettings``
#: field with the JSON types it may hold (``faults`` is the plan's
#: ``FaultPlan.describe()`` string).
_SETTINGS_TYPES: dict[str, tuple[type, ...]] = {
    "encode": (bool,),
    "telemetry": (bool,),
    "error_policy": (str,),
    "faults": (str, type(None)),
    "max_retries": (int,),
    "chunk_timeout": (int, float, type(None)),
    "max_workers": (int,),
    "max_pool_restarts": (int, type(None)),
}
#: A ``done/<digest>.done`` marker's fields and their JSON types.
_DONE_TYPES: dict[str, tuple[type, ...]] = {
    "digest": (str,),
    "worker": (str,),
    "attempt": (int,),
    "stolen": (bool,),
    "cache": (dict,),
    "metrics": (dict, type(None)),
    "fatal": (dict, type(None)),
}
#: A marker's ``fatal`` object: :class:`SweepCellError`'s fields.
_FATAL_TYPES: dict[str, tuple[type, ...]] = {
    "coords": (list,),
    "reason": (str,),
    "traceback_text": (str,),
    "recipe_digest": (str,),
    "attempts": (int,),
}


def _field_problem(obj, types: dict[str, tuple[type, ...]]) -> str:
    """Why ``obj`` is not an object of exactly ``types``' fields, each
    of an allowed JSON type; empty when it is."""
    if not isinstance(obj, dict):
        return f"expected an object, got {type(obj).__name__}"
    missing = sorted(set(types) - set(obj))
    unknown = sorted(set(obj) - set(types))
    if missing or unknown:
        return f"missing fields {missing}, unknown fields {unknown}"
    for name, kinds in types.items():
        if type(obj[name]) not in kinds:
            return f"field {name!r} holds a {type(obj[name]).__name__}"
    return ""


def _read_done(path: Path) -> "dict | None":
    """One done marker, validated and decoded; None if unusable.

    An unreadable, unparsable or invalid marker reads as *not done*:
    the coordinator skips it (the task's worker replaces it when it
    finishes) and the doctor reports it as ``corrupt-done``.  In the
    returned marker ``cache`` is a :class:`CacheStats`, ``metrics`` a
    :class:`MetricsRegistry` or None, and ``fatal`` a
    :class:`SweepCellError` or None.
    """
    try:
        marker = json.loads(path.read_text(encoding="utf-8"))
        cache, fatal = marker["cache"], marker["fatal"]
        counts = [*cache["hits"].values(), *cache["misses"].values()]
        if (
            _field_problem(marker, _DONE_TYPES)
            or set(cache) != {"hits", "misses"}
            or any(type(count) is not int for count in counts)
            or fatal is not None and (
                _field_problem(fatal, _FATAL_TYPES)
                or [type(c) for c in fatal["coords"]] != [str, str, int]
            )
        ):
            return None
        metrics = marker["metrics"]
        return {
            **marker,
            "cache": CacheStats(dict(cache["hits"]), dict(cache["misses"])),
            "metrics": None if metrics is None
            else MetricsRegistry.from_snapshot(metrics),
            "fatal": None if fatal is None else SweepCellError(
                tuple(fatal["coords"]),
                fatal["reason"],
                traceback_text=fatal["traceback_text"],
                recipe_digest=fatal["recipe_digest"],
                attempts=fatal["attempts"],
            ),
        }
    except (OSError, AttributeError, KeyError, TypeError, ValueError):
        return None  # ValueError covers JSON and UTF-8 decode errors


# ----------------------------------------------------------------------
# Content-addressed matrix shipping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoredWorkload:
    """A materialized workload parked in the queue's blob store.

    Tasks carrying a big generated matrix would otherwise re-pickle it
    into every task file, again on every retry and twice more per
    bisection.  Instead the coordinator writes the pickled
    :class:`Workload` **once** into ``blobs/<content_key>.blob`` and
    ships this ~200-byte reference; workers rehydrate through their
    content-keyed cache, so a chunk's cells (and successive chunks on
    one worker) load the blob a single time.

    ``recipe_digest`` is the matrix content key — the exact digest a
    sequential run derives from the materialized matrix — so cell
    digests, checkpoints and claims are identical across backends.
    """

    name: str
    group: str
    parameter: float
    content_key: str
    store_dir: str

    @property
    def recipe_digest(self) -> str:
        return self.content_key

    @property
    def cache_key(self) -> tuple:
        return ("matrix", "stored", self.content_key)

    def build(self) -> Workload:
        path = Path(self.store_dir) / f"{self.content_key}.blob"
        io_atomic.fire("blob.read", path)
        try:
            data = path.read_bytes()
        except OSError as error:
            raise QueueError(
                f"workload blob {path} vanished from the queue's "
                f"blob store: {error}"
            ) from error
        matrix = _decode_blob(data)
        if matrix_content_key(matrix) != self.content_key:
            raise QueueError(
                f"workload blob {path} does not match its content "
                f"key (corrupt blob store?)"
            )
        return Workload(
            name=self.name,
            group=self.group,
            matrix=matrix,
            parameter=self.parameter,
        )


# ----------------------------------------------------------------------
# Queue directory layout
# ----------------------------------------------------------------------
class QueueLayout:
    """Paths and primitive operations of one queue directory."""

    SUBDIRS = (
        "tasks",
        "claimed",
        "leases",
        "results",
        "done",
        "blobs",
        "workers",
    )

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.tasks = self.root / "tasks"
        self.claimed = self.root / "claimed"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.done = self.root / "done"
        self.blobs = self.root / "blobs"
        self.workers = self.root / "workers"
        self.meta = self.root / "queue.json"
        self.stop = self.root / "STOP"

    def create(self, settings: ExecutionSettings, n_shards: int) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for name in self.SUBDIRS:
            (self.root / name).mkdir(exist_ok=True)
        if self.stop.exists():
            self.stop.unlink()
        settings_json = {
            field.name: getattr(settings, field.name)
            for field in fields(settings)
        }
        if settings.faults is not None:
            settings_json["faults"] = settings.faults.describe()
        io_atomic.atomic_write_text(
            self.meta,
            json.dumps(
                {
                    "kind": QUEUE_KIND,
                    "schema": QUEUE_SCHEMA,
                    "n_shards": n_shards,
                    "settings": settings_json,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )

    def load_meta(self) -> tuple[ExecutionSettings, int]:
        """Validate the directory is a compatible queue; load settings.

        Every settings field must be present with its JSON type; a
        missing, unknown or mistyped field raises :class:`QueueError`.
        """
        if not self.meta.exists():
            raise QueueError(
                f"{self.root} is not a work queue (no queue.json); "
                f"point --queue at a directory created by "
                f"'repro sweep --backend queue'"
            )
        try:
            meta = json.loads(self.meta.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise QueueError(
                f"unreadable queue metadata {self.meta}: {error}"
            ) from error
        if not isinstance(meta, dict) or meta.get("kind") != QUEUE_KIND:
            kind = meta.get("kind") if isinstance(meta, dict) else None
            raise QueueError(
                f"{self.root}: not a work queue (kind={kind!r})"
            )
        if meta.get("schema") != QUEUE_SCHEMA:
            raise QueueError(
                f"{self.root}: unsupported queue schema "
                f"{meta.get('schema')!r} (expected {QUEUE_SCHEMA})"
            )
        problem = _field_problem(meta.get("settings"), _SETTINGS_TYPES)
        if type(meta.get("n_shards")) is not int or meta["n_shards"] < 1:
            problem = problem or f"bad n_shards {meta.get('n_shards')!r}"
        if problem:
            raise QueueError(f"{self.root}: invalid queue.json: {problem}")
        settings = dict(meta["settings"])
        try:
            if settings["faults"] is not None:
                settings["faults"] = FaultPlan.parse(settings["faults"])
        except SweepConfigError as error:
            raise QueueError(
                f"{self.root}: invalid queue.json fault plan: {error}"
            ) from error
        return ExecutionSettings(**settings), meta["n_shards"]

    # ------------------------------------------------------------------
    def store_blob(self, matrix) -> str:
        key = matrix_content_key(matrix)
        path = self.blobs / f"{key}.blob"
        if not path.exists():
            io_atomic.atomic_write_bytes(path, _encode_blob(matrix))
        return key

    def task_name(self, attempt: int, shard: int, digest: str) -> str:
        return f"a{attempt:02d}-s{shard:02d}-{digest}.task"

    def write_task(
        self,
        chunk_digest: str,
        shard: int,
        attempt: int,
        chunk: _Chunk,
        digests: list[str],
    ) -> None:
        """Publish one task file (atomically, so claims never see a
        partial write)."""
        record = {
            "digest": chunk_digest,
            "shard": shard,
            "attempt": attempt,
            "n_cells": len(chunk),
            "workloads": sorted({c.workload_name for _, c in chunk}),
            "chunk": _encode_field((chunk, digests)),
        }
        name = self.task_name(attempt, shard, chunk_digest)
        io_atomic.atomic_write_text(
            self.tasks / name, json.dumps(record, sort_keys=True)
        )

    def claim(self, name: str, worker_id: str) -> "Path | None":
        """Atomically claim one task file; None if somebody else won."""
        source = self.tasks / name
        target = self.claimed / name
        try:
            os.rename(source, target)
        except OSError:
            return None
        io_atomic.atomic_write_text(
            self.claimed / (name[: -len(".task")] + ".owner"),
            worker_id,
        )
        return target

    def read_task(self, path: Path) -> tuple[dict, _Chunk, list[str]]:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            chunk, digests = _decode_field(record["chunk"])
        except Exception as error:  # noqa: BLE001 — corrupt task file
            raise QueueError(
                f"corrupt task file {path}: "
                f"{type(error).__name__}: {error}"
            ) from error
        return record, chunk, digests

    def heartbeat(self, worker_id: str) -> None:
        lease = self.leases / f"{worker_id}.lease"
        try:
            io_atomic.fire("queue.heartbeat", lease)
        except io_atomic.HookSuppressed:
            return  # chaos: the worker is alive but looks dead
        lease.touch()

    def lease_age(self, worker_id: str, now: float) -> "float | None":
        lease = self.leases / f"{worker_id}.lease"
        try:
            return now - lease.stat().st_mtime
        except OSError:
            return None

    def write_done(self, chunk_digest: str, marker: dict) -> None:
        io_atomic.atomic_write_text(
            self.done / f"{chunk_digest}.done",
            json.dumps(marker, sort_keys=True),
        )

    def shard_of(self, digest: str, n_shards: int) -> int:
        return int(digest[:8], 16) % n_shards

    def home_shard(self, worker_id: str, n_shards: int) -> int:
        digest = hashlib.blake2b(
            worker_id.encode("utf-8"), digest_size=8
        ).hexdigest()
        return int(digest[:8], 16) % n_shards


def _chunk_digest(digests: list[str]) -> str:
    """Identity of one task: the digests of the cells it carries."""
    payload = repr(tuple(digests))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


def _parse_task_name(name: str) -> tuple[int, int, str]:
    """``a<attempt>-s<shard>-<digest>.task`` -> (attempt, shard, digest)."""
    stem = name[: -len(".task")]
    try:
        attempt_part, shard_part, digest = stem.split("-", 2)
        return int(attempt_part[1:]), int(shard_part[1:]), digest
    except (ValueError, IndexError) as error:
        raise QueueError(f"malformed task name {name!r}") from error


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def run_worker(
    queue_dir: str | Path,
    worker_id: str | None = None,
    poll_interval_s: float = 0.05,
    max_chunks: int | None = None,
    oneshot: bool = False,
) -> dict:
    """Claim-and-execute loop of one queue worker (``repro worker``).

    Runs until the coordinator's ``STOP`` marker appears (or
    ``oneshot`` / ``max_chunks`` bounds the run), keeping one
    content-keyed cache across every chunk it executes so a stolen
    chunk still reuses blobs, profiles and encodings already loaded.
    Each claimed task runs through :func:`_run_task`, which records
    it in this worker's own shard checkpoint
    ``results/<worker>.jsonl`` and announces it with a JSON ``done``
    marker.  Returns worker stats.
    """
    layout = QueueLayout(queue_dir)
    settings, n_shards = layout.load_meta()
    if settings.faults is not None and settings.faults.durable:
        # the plan rides in queue.json so every worker — spawned or
        # external — injects the same durability faults, with worker
        # semantics (fatal faults really kill the process)
        settings.faults.install("worker")
    if worker_id is None:
        worker_id = f"w-{os.uname().nodename}-{os.getpid()}"
    if poll_interval_s <= 0:
        raise QueueError(
            f"poll_interval_s must be > 0, got {poll_interval_s}"
        )
    home = layout.home_shard(worker_id, n_shards)
    io_atomic.atomic_write_text(
        layout.workers / f"{worker_id}.json",
        json.dumps(
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "home_shard": home,
            },
            sort_keys=True,
        ),
    )
    layout.heartbeat(worker_id)

    shard_path = layout.results / f"{worker_id}.jsonl"
    cache = ContentKeyedCache()
    n_chunks = 0
    n_cells = 0
    n_stolen = 0
    with CheckpointWriter(shard_path) as writer:
        while max_chunks is None or n_chunks < max_chunks:
            claimed = _claim_next(layout, worker_id, home, n_shards)
            if claimed is None:
                if layout.stop.exists() or oneshot:
                    break
                layout.heartbeat(worker_id)
                time.sleep(poll_interval_s)
                continue
            marker = _run_task(
                layout, settings, cache, writer, worker_id, home, claimed,
                in_worker=True,
            )
            n_chunks += 1
            n_cells += len(claimed[2])
            n_stolen += marker["stolen"]
            if marker["fatal"] is not None:
                break
    return {
        "worker": worker_id,
        "home_shard": home,
        "n_chunks": n_chunks,
        "n_cells": n_cells,
        "n_stolen": n_stolen,
        "shard": str(shard_path),
    }


def _claim_next(
    layout: QueueLayout, worker_id: str, home: int, n_shards: int
):
    """Claim the preferred available task: home shard first, then
    steal from the nearest shard (deterministic ring order)."""
    try:
        names = sorted(
            entry.name
            for entry in layout.tasks.iterdir()
            if entry.name.endswith(".task")
        )
    except OSError:
        return None
    if not names:
        return None

    def preference(name: str) -> tuple:
        attempt, shard, digest = _parse_task_name(name)
        return ((shard - home) % n_shards, attempt, digest)

    for name in sorted(names, key=preference):
        target = layout.claim(name, worker_id)
        if target is None:
            continue  # another worker won the rename
        record, chunk, digests = layout.read_task(target)
        return target, record, chunk, digests
    return None


def _run_task(
    layout: QueueLayout,
    settings: ExecutionSettings,
    cache: ContentKeyedCache,
    writer: CheckpointWriter,
    worker_id: str,
    home: int,
    claimed: tuple,
    in_worker: bool,
) -> dict:
    """Run one claimed task, record it in the shard, mark it done.

    The one per-task path of queue workers (``in_worker=True``) and
    of the degraded coordinator (``in_worker=False``, which re-raises
    a fatal :class:`SweepCellError` instead of writing it into the
    marker).  Every finished cell is appended to ``writer``'s shard
    and heartbeats ``worker_id``'s lease; the chunk's encodings and
    failures follow, then the JSON done marker, which is returned.
    The cache persists across tasks, so the marker's cache stats are
    a *delta*: the stats object is swapped out before the chunk runs
    while the memo store stays warm.
    """
    task_path, record, chunk, digests = claimed
    digest_by_index = {
        index: digest
        for (index, _cell), digest in zip(chunk, digests)
    }

    def on_cell(index, cell, result, wall_s, matrix_key):
        writer.record_result(
            digest_by_index[index],
            cell,
            result,
            wall_s=wall_s,
            cache_key=matrix_key,
        )
        layout.heartbeat(worker_id)

    layout.heartbeat(worker_id)
    cache.stats = CacheStats()
    metrics = fatal = None
    try:
        output = _run_chunk(
            chunk,
            settings.encode,
            cache,
            telemetry=settings.telemetry,
            error_policy=settings.error_policy,
            faults=settings.faults,
            attempt=int(record["attempt"]),
            in_worker=in_worker,
            on_cell=on_cell,
        )
    except SweepCellError as error:
        if not in_worker:
            _discard_claim(layout, task_path)
            raise
        fatal = error
    else:
        _results, encodings, _stats, _spans, metrics, failures = output
        for summary in encodings.values():
            writer.record_encoding(summary)
        for failure in failures:
            writer.record_failure(digest_by_index[failure.index], failure)
    marker = {
        "digest": record["digest"],
        "worker": worker_id,
        "attempt": int(record["attempt"]),
        "stolen": int(record["shard"]) != home,
        "cache": {
            "hits": dict(cache.stats.hits),
            "misses": dict(cache.stats.misses),
        },
        "metrics": None if metrics is None else metrics.snapshot(),
        "fatal": None if fatal is None else {
            "coords": list(fatal.coords),
            "reason": fatal.reason,
            "traceback_text": fatal.traceback_text,
            "recipe_digest": fatal.recipe_digest,
            "attempts": fatal.attempts,
        },
    }
    layout.write_done(record["digest"], marker)
    _discard_claim(layout, task_path)
    return marker


def _discard_claim(layout: QueueLayout, task_path: Path) -> None:
    for path in (
        task_path,
        task_path.with_name(
            task_path.name[: -len(".task")] + ".owner"
        ),
    ):
        try:
            path.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueueOptions:
    """Knobs of the queue backend's coordinator.

    ``queue_dir=None`` uses a private temporary directory, removed
    after the run unless ``keep_queue``.  ``spawn_workers=None``
    spawns ``max_workers`` local worker processes; ``0`` spawns none
    and waits for external ``repro worker --queue DIR`` processes
    (possibly on other machines sharing the directory).
    """

    queue_dir: "str | None" = None
    spawn_workers: "int | None" = None
    lease_timeout_s: float = 10.0
    poll_interval_s: float = 0.05
    n_shards: int = 16
    keep_queue: bool = False
    speculate_factor: "float | None" = None
    speculate_min_samples: int = 5
    speculate_floor_s: float = 1.0

    def __post_init__(self) -> None:
        if (
            self.speculate_factor is not None
            and self.speculate_factor < 1.0
        ):
            raise QueueError(
                f"speculate_factor must be >= 1, got "
                f"{self.speculate_factor}"
            )
        if self.speculate_min_samples < 1:
            raise QueueError(
                f"speculate_min_samples must be >= 1, got "
                f"{self.speculate_min_samples}"
            )
        if self.speculate_floor_s < 0:
            raise QueueError(
                f"speculate_floor_s must be >= 0, got "
                f"{self.speculate_floor_s}"
            )
        if self.lease_timeout_s <= 0:
            raise QueueError(
                f"lease_timeout_s must be > 0, got "
                f"{self.lease_timeout_s}"
            )
        if self.poll_interval_s <= 0:
            raise QueueError(
                f"poll_interval_s must be > 0, got "
                f"{self.poll_interval_s}"
            )
        if self.n_shards < 1:
            raise QueueError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.spawn_workers is not None and self.spawn_workers < 0:
            raise QueueError(
                f"spawn_workers must be >= 0, got "
                f"{self.spawn_workers}"
            )


class _Outstanding:
    """One not-yet-done task the coordinator is tracking."""

    def __init__(
        self, chunk: _Chunk, digests: list[str], attempt: int
    ) -> None:
        self.chunk = chunk
        self.digests = digests
        self.attempt = attempt
        self.first_seen_claimed: "float | None" = None
        self.published_at: float = time.time()
        self.speculated: bool = False


class QueueExecutor(SweepExecutor):
    """The coordinator side of the work-queue backend.

    Publishes every chunk as a digest-sharded task file, optionally
    spawns local worker processes, then supervises: collecting done
    markers, reclaiming tasks whose worker lease went stale (bumping
    the attempt, bisecting past the retry budget — the pool backend's
    ladder, with the lease as the crash detector), respawning dead
    spawned workers within a bounded budget, and degrading to
    in-process execution if workers keep dying.  Finally the
    per-worker shard checkpoints are merged into the canonical
    checkpoint in grid order, and that merged state comes back as the
    run's single output, crash failures included.
    """

    def __init__(
        self,
        settings: ExecutionSettings,
        options: "QueueOptions | None" = None,
    ) -> None:
        super().__init__(settings)
        self.options = options or QueueOptions()
        self._durations: list[float] = []

    # -- helpers -------------------------------------------------------
    def _spawn_target(self) -> int:
        if self.options.spawn_workers is not None:
            return self.options.spawn_workers
        return self.settings.max_workers

    def _respawn_budget(self, chunks: list[_Chunk]) -> int:
        biggest = max(len(chunk) for chunk in chunks)
        depth = max(1, biggest.bit_length())
        return self._spawn_target() + (
            self.settings.max_retries + 1
        ) * (depth + 1)

    def _spawn_worker(
        self, layout: QueueLayout, ordinal: int
    ) -> subprocess.Popen:
        log_path = layout.root / f"worker-{ordinal:02d}.log"
        log = log_path.open("ab")
        try:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "--queue",
                    str(layout.root),
                    "--worker-id",
                    f"w{ordinal:02d}-{os.getpid()}",
                    "--poll-interval",
                    str(self.options.poll_interval_s),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env={
                    **os.environ,
                    "PYTHONPATH": os.pathsep.join(
                        [str(Path(__file__).resolve().parents[2])]
                        + (
                            [os.environ["PYTHONPATH"]]
                            if os.environ.get("PYTHONPATH")
                            else []
                        )
                    ),
                },
            )
        finally:
            log.close()
        return process

    # -- main loop -----------------------------------------------------
    def run_chunks(
        self,
        chunks: list[_Chunk],
        sink: "CheckpointSink | None" = None,
    ) -> tuple[list[_ChunkOutput], list[FailedCell], dict[str, int]]:
        if not chunks:
            return [], [], {}
        options = self.options
        own_dir = options.queue_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="copernicus-queue-"))
            if own_dir
            else Path(options.queue_dir)
        )
        layout = QueueLayout(root)
        layout.create(self.settings, options.n_shards)

        outstanding: dict[str, _Outstanding] = {}
        cells_by_digest: dict[str, tuple[int, SweepCell]] = {}
        for chunk in chunks:
            shipped, digests = self._prepare_chunk(layout, chunk)
            for (index, cell), digest in zip(shipped, digests):
                cells_by_digest[digest] = (index, cell)
            digest = _chunk_digest(digests)
            layout.write_task(
                digest,
                layout.shard_of(digest, options.n_shards),
                0,
                shipped,
                digests,
            )
            outstanding[digest] = _Outstanding(shipped, digests, 0)

        counters: dict[str, int] = {
            "sweep.queue.tasks": len(outstanding)
        }
        markers: list[dict] = []
        crash_failures: list[FailedCell] = []
        fatal: "SweepCellError | None" = None

        processes: list[subprocess.Popen] = []
        target = self._spawn_target()
        respawns_left = self._respawn_budget(chunks) if chunks else 0
        next_ordinal = 0
        degraded = False
        try:
            for _ in range(min(target, max(1, len(chunks)))):
                processes.append(
                    self._spawn_worker(layout, next_ordinal)
                )
                next_ordinal += 1
            if processes:
                counters["sweep.queue.workers_spawned"] = len(processes)

            while outstanding and fatal is None:
                fatal = self._collect_done(
                    layout, outstanding, markers, counters
                )
                if fatal is not None:
                    break
                if not outstanding:
                    break
                self._reclaim_stale(
                    layout, outstanding, counters, crash_failures
                )
                if options.speculate_factor is not None:
                    self._speculate(layout, outstanding, counters)
                if degraded:
                    self._run_degraded(layout)
                elif target > 0:
                    # replace dead spawned workers within the budget;
                    # past it, stop trusting worker processes entirely
                    alive = []
                    died = 0
                    for process in processes:
                        if process.poll() is None:
                            alive.append(process)
                        else:
                            died += 1
                    processes = alive
                    while (
                        died > 0
                        and outstanding
                        and respawns_left > 0
                    ):
                        processes.append(
                            self._spawn_worker(layout, next_ordinal)
                        )
                        next_ordinal += 1
                        died -= 1
                        respawns_left -= 1
                        counters["sweep.queue.respawns"] = (
                            counters.get("sweep.queue.respawns", 0) + 1
                        )
                    if not processes and outstanding:
                        degraded = True
                        counters["sweep.degraded"] = 1
                if outstanding:
                    time.sleep(options.poll_interval_s)
        finally:
            layout.stop.touch()
            self._shutdown_workers(processes)

        if fatal is not None:
            if not options.keep_queue and own_dir:
                shutil.rmtree(root, ignore_errors=True)
            raise fatal

        output = self._merge_shards(
            layout, sink, cells_by_digest, crash_failures, markers
        )
        if not options.keep_queue and own_dir:
            shutil.rmtree(root, ignore_errors=True)
        return [output], [], counters

    # -- pieces of the loop --------------------------------------------
    def _prepare_chunk(
        self, layout: QueueLayout, chunk: _Chunk
    ) -> tuple[_Chunk, list[str]]:
        """Digest cells, then swap materialized matrices for blob refs.

        Digests are computed from the *original* cells so they are
        identical to what a sequential run derives; the shipped cells
        reference the blob store instead of carrying matrices.
        """
        digests = cell_digests([cell for _index, cell in chunk])
        shipped: _Chunk = []
        for index, cell in chunk:
            workload = cell.workload
            if isinstance(workload, Workload):
                key = layout.store_blob(workload.matrix)
                cell = replace(
                    cell,
                    workload=StoredWorkload(
                        name=workload.name,
                        group=workload.group,
                        parameter=workload.parameter,
                        content_key=key,
                        store_dir=str(layout.blobs),
                    ),
                )
            shipped.append((index, cell))
        return shipped, digests

    def _collect_done(
        self,
        layout: QueueLayout,
        outstanding: dict[str, _Outstanding],
        markers: list[dict],
        counters: dict[str, int],
    ) -> "SweepCellError | None":
        """Absorb new done markers; returns a fatal error if one is."""
        try:
            names = sorted(
                entry.name
                for entry in layout.done.iterdir()
                if entry.name.endswith(".done")
            )
        except OSError:
            return None
        for name in names:
            digest = name[: -len(".done")]
            if digest not in outstanding:
                continue
            marker = _read_done(layout.done / name)
            if marker is None:
                continue  # not done until its worker writes a valid one
            task = outstanding.pop(digest)
            self._durations.append(time.time() - task.published_at)
            self._remove_task_files(layout, digest, task)
            if marker["stolen"]:
                counters["sweep.queue.steals"] = (
                    counters.get("sweep.queue.steals", 0) + 1
                )
            if marker["fatal"] is not None:
                return marker["fatal"]
            markers.append(marker)
        return None

    def _remove_task_files(
        self, layout: QueueLayout, digest: str, task: _Outstanding
    ) -> None:
        """Drop every queued/claimed copy of a finished task.

        A task can have copies at several attempt numbers when a
        premature reclaim re-enqueued it while the original worker was
        still (slowly) executing; once one copy is done the rest are
        garbage.
        """
        for directory in (layout.tasks, layout.claimed):
            try:
                names = list(directory.iterdir())
            except OSError:
                continue
            for path in names:
                if digest in path.name:
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def _reclaim_stale(
        self,
        layout: QueueLayout,
        outstanding: dict[str, _Outstanding],
        counters: dict[str, int],
        crash_failures: list[FailedCell],
    ) -> None:
        """Re-enqueue claimed tasks whose worker stopped heartbeating."""
        now = time.time()
        timeout = self.options.lease_timeout_s
        try:
            names = sorted(
                entry.name
                for entry in layout.claimed.iterdir()
                if entry.name.endswith(".task")
            )
        except OSError:
            return
        for name in names:
            attempt, _shard, digest = _parse_task_name(name)
            task = outstanding.get(digest)
            if task is None:
                continue
            if task.first_seen_claimed is None:
                task.first_seen_claimed = now
                continue
            if now - task.first_seen_claimed < timeout:
                continue
            owner_path = layout.claimed / (
                name[: -len(".task")] + ".owner"
            )
            try:
                owner = owner_path.read_text(
                    encoding="utf-8"
                ).strip()
            except OSError:
                owner = ""
            age = (
                layout.lease_age(owner, now)
                if owner
                else now - task.first_seen_claimed
            )
            if age is not None and age < timeout:
                continue
            # the worker is gone (or wedged): reclaim
            claimed_path = layout.claimed / name
            _discard_claim(layout, claimed_path)
            task.first_seen_claimed = None
            counters["sweep.queue.reclaims"] = (
                counters.get("sweep.queue.reclaims", 0) + 1
            )
            self._requeue(
                layout,
                outstanding,
                digest,
                attempt,
                counters,
                crash_failures,
            )

    def _speculate(
        self,
        layout: QueueLayout,
        outstanding: dict[str, _Outstanding],
        counters: dict[str, int],
    ) -> None:
        """Straggler mitigation: duplicate tasks stuck past the envelope.

        Once enough tasks have completed to estimate a latency
        envelope, a claimed task whose owner has held it longer than
        ``speculate_factor`` times the p95 completion latency (never
        less than ``speculate_floor_s``) gets a duplicate published
        back to ``tasks/`` for another worker to race — **without**
        revoking the original claim, unlike a lease reclaim.  Cells
        are deterministic and every merge deduplicates by cell
        digest, so whichever copy finishes first wins and the loser's
        records are dropped.  At most one speculative copy per task.
        """
        if len(self._durations) < self.options.speculate_min_samples:
            return
        ordered = sorted(self._durations)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        threshold = max(
            self.options.speculate_floor_s,
            self.options.speculate_factor * p95,
        )
        now = time.time()
        for digest, task in outstanding.items():
            if task.speculated or task.first_seen_claimed is None:
                continue
            if now - task.first_seen_claimed < threshold:
                continue
            task.speculated = True
            layout.write_task(
                digest,
                layout.shard_of(digest, self.options.n_shards),
                task.attempt,
                task.chunk,
                task.digests,
            )
            counters["sweep.queue.speculations"] = (
                counters.get("sweep.queue.speculations", 0) + 1
            )

    def _requeue(
        self,
        layout: QueueLayout,
        outstanding: dict[str, _Outstanding],
        digest: str,
        attempt: int,
        counters: dict[str, int],
        crash_failures: list[FailedCell],
    ) -> None:
        """The recovery ladder for one reclaimed task."""
        task = outstanding[digest]
        next_attempt = attempt + 1
        n_shards = self.options.n_shards
        if next_attempt <= self.settings.max_retries:
            counters["sweep.chunk_retries"] = (
                counters.get("sweep.chunk_retries", 0) + 1
            )
            layout.write_task(
                digest,
                layout.shard_of(digest, n_shards),
                next_attempt,
                task.chunk,
                task.digests,
            )
            task.attempt = next_attempt
            return
        if len(task.chunk) > 1:
            counters["sweep.chunk_bisections"] = (
                counters.get("sweep.chunk_bisections", 0) + 1
            )
            outstanding.pop(digest)
            mid = len(task.chunk) // 2
            for half_chunk, half_digests in (
                (task.chunk[:mid], task.digests[:mid]),
                (task.chunk[mid:], task.digests[mid:]),
            ):
                half_id = _chunk_digest(half_digests)
                layout.write_task(
                    half_id,
                    layout.shard_of(half_id, n_shards),
                    0,
                    half_chunk,
                    half_digests,
                )
                outstanding[half_id] = _Outstanding(
                    half_chunk, half_digests, 0
                )
            return
        outstanding.pop(digest)
        index, cell = task.chunk[0]
        recipe = workload_recipe_digest(cell.workload)
        message = (
            f"queue worker lease expired "
            f"{next_attempt} time(s) on this cell"
        )
        if self.settings.error_policy == "fail_fast":
            raise SweepCellError(
                cell.coords,
                f"WorkerCrashError: {message}",
                recipe_digest=recipe,
                attempts=next_attempt,
            )
        crash_failures.append(
            FailedCell(
                index=index,
                workload=cell.workload_name,
                format_name=cell.format_name,
                partition_size=cell.partition_size,
                recipe_digest=recipe,
                error_type="WorkerCrashError",
                message=message,
                attempts=next_attempt,
            )
        )

    def _run_degraded(self, layout: QueueLayout) -> None:
        """No trustworthy workers left: the coordinator claims and
        executes remaining tasks itself, in-process."""
        worker_id = f"coordinator-{os.getpid()}"
        n_shards = self.options.n_shards
        home = layout.home_shard(worker_id, n_shards)
        cache = ContentKeyedCache()
        shard_path = layout.results / f"{worker_id}.jsonl"
        with CheckpointWriter(shard_path) as writer:
            while True:
                claimed = _claim_next(layout, worker_id, home, n_shards)
                if claimed is None:
                    return
                _run_task(
                    layout, self.settings, cache, writer, worker_id,
                    home, claimed, in_worker=False,
                )

    def _shutdown_workers(
        self, processes: list[subprocess.Popen]
    ) -> None:
        deadline = time.time() + 5.0
        for process in processes:
            try:
                process.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()

    def _merge_shards(
        self,
        layout: QueueLayout,
        sink: "CheckpointSink | None",
        cells_by_digest: dict[str, tuple[int, SweepCell]],
        crash_failures: list[FailedCell],
        markers: list[dict],
    ) -> _ChunkOutput:
        """The run's outcome: every worker shard merged into one state.

        Each shard keeps its latest record per cell digest on load.
        Across shards and the coordinator's crash failures one rule
        holds: a success beats any failure (a reclaimed task whose
        cells another worker finished), and among failures the one
        with the most ``attempts`` wins.  The merged state goes to
        ``sink`` in **ascending grid order** — the exact record order
        a sequential run produces — which makes ``checkpoint_digest``
        equality against a ``max_workers=1`` checkpoint the
        distributed correctness gate.  The returned output is the same
        state: spans from each record's ``wall_s``/``cache_key`` (as
        resume replay builds them), cache stats and metrics summed
        over the done markers.
        """
        io_atomic.fire("queue.merge", layout.root)
        results: dict = {}
        encodings: dict = {}
        candidates: list[tuple[str, FailedCell]] = []
        for shard_path in sorted(layout.results.glob("*.jsonl")):
            state = load_checkpoint(shard_path)
            results.update(state.results)
            encodings.update(state.encodings)
            candidates.extend(state.failures.items())
        digest_of = {
            index: digest for digest, (index, _cell) in cells_by_digest.items()
        }
        candidates += [(digest_of[f.index], f) for f in crash_failures]
        failures: dict[str, FailedCell] = {}
        for digest, failure in candidates:
            if digest in results or digest not in cells_by_digest:
                continue
            previous = failures.get(digest)
            if previous is None or failure.attempts >= previous.attempts:
                failures[digest] = failure

        ordered = sorted(
            (cells_by_digest[digest][0], digest)
            for digest in results
            if digest in cells_by_digest
        )
        spans = []
        for index, digest in ordered:
            result, wall_s, cache_key = results[digest]
            cell = cells_by_digest[digest][1]
            spans.append(
                CellTelemetry(
                    index=index,
                    workload=result.workload,
                    format_name=cell.format_name,
                    partition_size=cell.partition_size,
                    cache_key=cache_key,
                    wall_s=wall_s,
                )
            )
        telemetry = self.settings.telemetry
        stats = CacheStats()
        metrics = MetricsRegistry() if telemetry else None
        for marker in markers:
            stats = stats.merged(marker["cache"])
            if metrics is not None and marker["metrics"] is not None:
                metrics = metrics.merged(marker["metrics"])
        output = (
            [(index, results[digest][0]) for index, digest in ordered],
            dict(sorted(encodings.items())),
            stats,
            spans,
            metrics,
            sorted(failures.values(), key=lambda failure: failure.index),
        )
        if sink is not None:
            # the spans carry each cell's wall_s and cache_key, which
            # the checkpoint keeps with or without telemetry
            sink.record_chunk(list(cells_by_digest.values()), output)
        return output if telemetry else (*output[:3], None, *output[4:])
