"""The three benchmark workloads, each driving a public user path.

Each workload class has the same shape:

* ``clients`` / ``server_threads`` — the fixed closed-loop callers and
  server compute threads it runs; the runner refuses to start when
  either exceeds nproc;
* ``tail`` — (latency class, percentile, window) that ``tail_ms``
  reports;
* ``setup()`` — generate the seeded inputs and warm up; repeated by
  the runner so set-up time is a median;
* ``measure(seconds)`` — a closed loop for ``seconds``
  returning a :class:`Phase`;
* ``verify()`` — the output checks, run after the timed loop; returns
  the number of operations whose output was wrong;
* ``close()`` — release what ``setup`` made.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import itertools
import json
import pickle
import shutil
import statistics
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.recommend import Constraints
from repro.core.simulator import SpmvSimulator
from repro.engine import SweepRunner, WorkloadSpec, build_grid
from repro.engine.checkpoint import checkpoint_digest
from repro.errors import CopernicusError
from repro.guard import GuardPolicy
from repro.partition import profile_table
from repro.serve import CharacterizationServer, SweepBackend, parse_query
from repro.serve.loadgen import fetch_metrics, http_request

from inputs import (
    SWEEP_HEAVY_BATCH,
    advise_specs,
    serve_plan,
    sweep_batches,
)

__all__ = ["WORKLOADS", "Phase"]

#: The ranking module (``repro.core`` re-exports a function of the same
#: name), looked up at call time so a traced run sees its wrapper.
recommend = importlib.import_module("repro.core.recommend")

#: Where runs keep checkpoints and trace files, relative to the cwd.
WORK_DIR = Path(".perfbench")


#: Fixed work whose duration tracks the machine's current speed: the
#: kinds of work the program does — a numpy sort-unique (profiling), a
#: pure-Python loop (the engine), building and sorting a dict of small
#: objects (request handling, outcome assembly) and pickle + zlib
#: (checkpoints).  Without the dict part, slow stretches of the machine
#: slowed serve-mixed more than the probe.
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 20_000)
_PROBE_ROWS = [(i, f"cell-{i}", i * 0.5) for i in range(1_500)]
PROBE_REPEATS = 3
#: Seconds of timed loop between two probe samples at most.
PROBE_INTERVAL_S = 1.0
#: The probe's duration at the reference machine speed.  Each timed
#: operation is scaled by ``PROBE_REF_S / (median of the latest
#: PROBE_WINDOW probe samples)``: one sample varies by about 10%, which
#: scaled single operations apart and widened the tails.
PROBE_REF_S = 0.015
PROBE_WINDOW = 5


def probe_once() -> float:
    started = time.perf_counter()
    np.unique(_PROBE_KEYS)
    sum(i * i for i in range(10_000))
    sorted({f"k{i}": (i, i * 0.5) for i in range(20_000)})
    zlib.compress(pickle.dumps(_PROBE_ROWS))
    return time.perf_counter() - started


def probe_sample() -> float:
    """One speed-probe sample: the median of ``PROBE_REPEATS`` runs."""
    return statistics.median(probe_once() for _ in range(PROBE_REPEATS))


@dataclass
class Phase:
    """What one timed loop observed.

    ``latencies`` holds seconds per operation class, scaled to the
    reference machine speed; ``unscaled`` the same samples as
    measured.  ``primary`` is the class ``p50_ms``/``tail_ms``
    describe, ``light``/``heavy`` the cheap and costly classes of the
    workload.  ``probe_s`` holds the speed-probe samples, taken between
    operations and outside their timings.
    """

    attempted: int = 0
    failed: int = 0
    latencies: dict = field(default_factory=dict)
    unscaled: dict = field(default_factory=dict)
    #: Units of work done and the (scaled / measured) seconds they took.
    work: float = 0.0
    work_s: float = 0.0
    unscaled_work_s: float = 0.0
    extra: dict = field(default_factory=dict)
    probe_s: list = field(default_factory=list)
    scale: float = 1.0
    _next_probe: float = 0.0

    def add(self, kinds: tuple[str, ...], seconds: float) -> None:
        """One timed operation, counted in each latency class."""
        for kind in kinds:
            self.latencies.setdefault(kind, []).append(seconds * self.scale)
            self.unscaled.setdefault(kind, []).append(seconds)

    def add_work(self, work: float, seconds: float) -> None:
        self.work += work
        self.work_s += seconds * self.scale
        self.unscaled_work_s += seconds

    def speed(self) -> float:
        """The machine's median speed during this phase, relative to
        the reference speed (above 1 when faster)."""
        return PROBE_REF_S / statistics.median(self.probe_s)

    def probe(self, force: bool = False) -> None:
        """Sample the machine's speed if a probe interval has passed."""
        if force or time.perf_counter() >= self._next_probe:
            self.probe_s.append(probe_sample())
            self.scale = PROBE_REF_S / statistics.median(
                self.probe_s[-PROBE_WINDOW:]
            )
            self._next_probe = time.perf_counter() + PROBE_INTERVAL_S


def _result_digest(results, best=None) -> str:
    """Digest of per-cell simulated stats (cycles, bytes, sigma)."""
    rows = [
        (r.workload, r.format_name, r.partition_size, r.total_cycles,
         r.size.total_bytes, repr(r.sigma))
        for r in results
    ]
    if best is not None:
        rows.append(("best", best.format_name, best.partition_size))
    return hashlib.blake2b(
        repr(rows).encode(), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
class AdviseExact:
    """Exact advise on n=2048 ``lat-*`` matrices, cache cold per call."""

    name = "advise-exact"
    clients, server_threads = 1, 0
    #: The three shapes take very different times, so a tail over all
    #: calls would pick its shape by the number of rounds in the run.
    tail = ("heavy", 90, None)

    def __init__(self, seed: int):
        self.seed = seed
        self.round: list = []
        #: spec name -> answer digests, one per completed call.
        self.answers: dict[str, list[str]] = {}

    def setup(self) -> None:
        self.round = advise_specs(self.seed)
        warm = WorkloadSpec.random(256, 0.05, seed=1, name="warm-up")
        outcome = SweepRunner(error_policy="fail_fast").run_grid([warm])
        recommend.recommend_from_results(outcome.results)

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while True:  # whole rounds, so each shape is sampled equally
            for kind, spec in self.round:
                phase.probe(force=True)
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    outcome = SweepRunner(
                        error_policy="fail_fast"
                    ).run_grid([spec])
                    advice = recommend.recommend_from_results(
                        outcome.results
                    )
                except CopernicusError:
                    phase.failed += 1
                    continue
                elapsed = time.perf_counter() - t0
                phase.add(("primary", kind), elapsed)
                phase.add_work(1, elapsed)
                self.answers.setdefault(spec.name, []).append(
                    _result_digest(outcome.results, advice.best)
                )
            if time.perf_counter() >= deadline:
                break
        return phase

    def verify(self) -> int:
        """Each answer must match a reference computed per cell.

        The reference skips the sweep engine, its caches and the
        ranking code: it profiles and simulates every cell directly
        and picks the feasible design point with the fewest cycles.
        """
        wrong = 0
        for _, spec in self.round:
            matrix = spec.build().matrix
            results, tables = [], {}
            for cell in build_grid([spec]):
                config = cell.resolved_config
                key = (config.partition_size, config.block_size)
                if key not in tables:
                    tables[key] = profile_table(
                        matrix, key[0], block_size=key[1]
                    )
                results.append(SpmvSimulator(config).run_format(
                    cell.format_name, tables[key], spec.name
                ))
            budget = Constraints()
            best = None
            for result in results:
                if budget.admits(result) and (
                    best is None or result.total_cycles < best.total_cycles
                ):
                    best = result
            expected = _result_digest(results, best)
            wrong += sum(
                digest != expected
                for digest in self.answers.get(spec.name, ())
            )
        return wrong

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class SweepCheckpoint:
    """Checkpointed sweeps of small matrices, then full-replay resumes."""

    name = "sweep-checkpoint"
    clients, server_threads = 1, 0
    tail = ("primary", 90, None)

    def __init__(self, seed: int):
        self.seed = seed
        self.batches: list = []
        self.workdir = WORK_DIR / f"sweep-{seed}"
        #: batch index -> set of (outcome digest, checkpoint digest).
        self.seen: dict[int, set] = {}

    def _pass(self, b: int, batch, phase: Phase | None) -> bool:
        """One checkpointed sweep of ``batch`` and its resume."""
        path = self.workdir / f"batch-{b}.jsonl"
        path.unlink(missing_ok=True)
        cells = len(build_grid(batch))
        t0 = time.perf_counter()
        fresh = SweepRunner(backend="inline", checkpoint=path).run_grid(
            batch
        )
        t1 = time.perf_counter()
        written = checkpoint_digest(path)
        size = path.stat().st_size
        t2 = time.perf_counter()
        resumed = SweepRunner(
            backend="inline", checkpoint=path, resume=True
        ).run_grid(batch)
        t3 = time.perf_counter()
        fresh_digest = _result_digest(fresh.results)
        ok = (
            len(fresh.results) == cells
            and not fresh.failures
            and not resumed.failures
            and _result_digest(resumed.results) == fresh_digest
            and checkpoint_digest(path) == written
        )
        self.seen.setdefault(b, set()).add((fresh_digest, written))
        if phase is not None:
            phase.attempted += 2
            phase.failed += 0 if ok else 2
            kinds = ("primary", "heavy") if b == SWEEP_HEAVY_BATCH else (
                "primary",)
            phase.add(kinds, t1 - t0)
            phase.add(("light",), t3 - t2)
            phase.add_work(cells, t1 - t0)
            phase.extra["checkpoint_bytes"] = (
                phase.extra.get("checkpoint_bytes", 0) + size
            )
            phase.extra["checkpoint_cells"] = (
                phase.extra.get("checkpoint_cells", 0) + cells
            )
        path.unlink(missing_ok=True)
        return ok

    def setup(self) -> None:
        self.batches = sweep_batches(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm = [
            WorkloadSpec.random(40, 0.1, seed=1, name="warm-rand"),
            WorkloadSpec.band(40, 4, seed=1, name="warm-band"),
        ]
        self._pass(-1, warm, None)
        self.seen.pop(-1, None)

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for b, batch in enumerate(self.batches):
                phase.probe(force=True)
                self._pass(b, batch, phase)
                if time.perf_counter() >= deadline:
                    break
        return phase

    def verify(self) -> int:
        """Every pass over a batch must give the same outcome and
        checkpoint digests (passes within one phase already checked
        fresh against resumed)."""
        return sum(2 for pairs in self.seen.values() if len(pairs) != 1)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
def _body_hash(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


#: A query the seeded plan never sends (n below the plan's range).
_WARM_QUERY = {
    "workload": {"kind": "random", "n": 40, "density": 0.1, "seed": 1},
    "formats": ["coo", "csr", "ell"],
    "partitions": [8, 16],
}


class ServeMixed:
    """In-process guarded server under a closed loop of clients."""

    name = "serve-mixed"
    clients, server_threads = 2, 2
    #: p99 per 2,000 requests has 20 samples above it; the median over
    #: windows keeps a stretch of machine noise from setting the value.
    tail = ("primary", 99, 2000)

    def __init__(self, seed: int):
        self.seed = seed
        #: (endpoint, request body) pairs: atomic tuples the garbage
        #: collector stops tracking, so the plan adds no GC pause time.
        self.plan: list[tuple[str, bytes]] = []
        #: digest -> (endpoint, request body, hash of the first response
        #: body); hashes keep the benchmark's own memory small.
        self.bodies: dict[str, tuple[str, bytes, bytes]] = {}
        self.responses: Counter = Counter()
        self.mismatches: Counter = Counter()

    async def _start(self) -> CharacterizationServer:
        server = CharacterizationServer(
            "127.0.0.1", 0,
            max_inflight=self.server_threads,
            guard_policy=GuardPolicy(),
        )
        await server.start()
        for path, body in (("/healthz", b""), ("/characterize",
                           json.dumps(_WARM_QUERY).encode())):
            method = "GET" if not body else "POST"
            status, _, _ = await http_request(
                "127.0.0.1", server.port, method, path, body
            )
            if status != 200:
                await server.aclose()
                raise CopernicusError(f"warm-up {path} answered {status}")
        return server

    async def _setup_once(self) -> None:
        server = await self._start()
        await server.aclose()

    def setup(self) -> None:
        self.plan = [
            (request.endpoint, request.body())
            for request in serve_plan(self.seed)
        ]
        asyncio.run(self._setup_once())

    def measure(self, seconds: float) -> Phase:
        return asyncio.run(self._measure(seconds))

    async def _measure(self, seconds: float) -> Phase:
        server = await self._start()
        phase = Phase()
        try:
            port = server.port
            before = await fetch_metrics("127.0.0.1", port)
            indices = itertools.count()
            deadline = time.perf_counter() + seconds

            async def client(slice_end: float) -> None:
                while time.perf_counter() < slice_end:
                    # A fast run starts the plan over; by then the LRU
                    # cache has evicted its unique computes, so the mix
                    # is unchanged and memory does not grow with speed.
                    index = next(indices) % len(self.plan)
                    endpoint, request = self.plan[index]
                    phase.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        status, headers, body = await http_request(
                            "127.0.0.1", port, "POST", f"/{endpoint}",
                            request,
                        )
                    except CopernicusError:
                        phase.failed += 1
                        continue
                    t1 = time.perf_counter()
                    if status != 200:
                        phase.failed += 1
                        if status in (429, 503):
                            phase.extra["refused"] = (
                                phase.extra.get("refused", 0) + 1
                            )
                        continue
                    source = headers.get("x-copernicus-source", "")
                    phase.add(
                        ("primary", "light" if source == "cache" else "heavy"),
                        t1 - t0,
                    )
                    digest = headers.get("x-copernicus-digest", "")
                    body_hash = _body_hash(body)
                    first = self.bodies.setdefault(
                        digest, (endpoint, request, body_hash)
                    )
                    self.responses[digest] += 1
                    self.mismatches[digest] += first[2] != body_hash

            # Slices of the closed loop; the speed probe runs between
            # them, when no request is in flight.
            while time.perf_counter() < deadline:
                phase.probe(force=True)
                start = time.perf_counter()
                slice_end = min(deadline, start + PROBE_INTERVAL_S)
                done = len(phase.latencies.get("primary", ()))
                await asyncio.gather(
                    *(client(slice_end) for _ in range(self.clients))
                )
                phase.add_work(
                    len(phase.latencies.get("primary", ())) - done,
                    time.perf_counter() - start,
                )
            after = await fetch_metrics("127.0.0.1", port)
            phase.extra["metrics"] = (before, after)
        finally:
            await server.aclose()
        return phase

    def verify(self) -> int:
        """Each response body must equal the backend's own bytes."""
        backend = SweepBackend()
        wrong = 0
        for digest, (endpoint, request, body_hash) in self.bodies.items():
            expected = backend.execute_bytes(
                parse_query(endpoint, json.loads(request))
            )
            if not digest or body_hash != _body_hash(expected):
                wrong += self.responses[digest]
            else:
                wrong += self.mismatches[digest]
        return wrong

    def close(self) -> None:
        pass


WORKLOADS = {
    cls.name: cls for cls in (AdviseExact, SweepCheckpoint, ServeMixed)
}
