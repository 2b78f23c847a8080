"""Deterministic load generator for the characterization server.

``repro loadgen`` replays a seeded traffic mix against a running
``repro serve`` instance and writes a ``bench/v2`` report with
latency percentiles, throughput, and the server-side coalesce/cache
hit rates (measured as ``GET /metrics`` counter deltas, so a shared
server with prior traffic still reports this run's rates).  The
report's gates come from the mix (:data:`MIX_GATES`).

Traffic mixes (:data:`MIXES`):

* ``hot`` — heavy hot-key skew over a pool of
  :data:`HOT_POOL_SIZE` distinct queries (Zipf-ish weights), the
  coalescing/caching best case;
* ``unique`` — every request carries a never-before-seen workload
  seed, so every digest misses: the cache-flood worst case;
* ``mixed`` — hot and unique ``/characterize`` traffic interleaved
  with hot ``/advise`` traffic, the realistic middle;
* ``hostile`` — the ``mixed`` grammar with seeded malformed-matrix
  requests woven in: inline ``mtx`` workloads drawn from the
  :mod:`repro.guard.fuzz` generators (dimension lies, index
  overflows, dense bombs, truncations, garbage).  A healthy guarded
  server answers every one with a typed 4xx — never a 5xx, never a
  dead worker — while the benign share of the traffic keeps being
  served; the report's ``hostile`` section is what the hostile mix
  (and the guard campaign) gates.

Everything is driven by one ``random.Random(seed)``: the same
``(mix, requests, seed)`` triple plans the identical request sequence
every run, which is what makes the mix gates (zero 5xx, coalesce hits
above zero on hot traffic) reproducible.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from random import Random

from ..engine.retry import RetryPolicy
from ..envelope import Gate, envelope
from ..errors import LoadGenError
from .protocol import canonical_json

__all__ = [
    "MIXES",
    "MIX_GATES",
    "PlannedRequest",
    "RequestOutcome",
    "plan_requests",
    "http_request",
    "fetch_metrics",
    "run_load",
    "run_loadgen",
    "bench_report",
    "percentile",
]

#: The traffic-mix grammar accepted by ``repro loadgen --mix``.
MIXES = ("hot", "unique", "mixed", "hostile")

_SERVED = (
    Gate("zero_5xx", "n_5xx", "==", 0),
    Gate("coalesced", "server.coalesce_hits", ">", 0),
)

#: The gates each mix's report is held to.  Hot-key traffic must be
#: served without a 5xx and must coalesce; the all-miss ``unique``
#: flood has nothing to coalesce onto; hostile traffic may be refused
#: but must never harm a worker.
MIX_GATES = {
    "hot": _SERVED,
    "unique": (),
    "mixed": _SERVED,
    "hostile": (
        Gate("hostile_zero_worker_harm", "hostile.worker_harm", "==", 0),
    ),
}

#: Fuzz-generator kinds the hostile mix draws malformed matrices from
#: (content-producing ``mtx-*`` kinds only).
HOSTILE_KINDS = (
    "mtx-garbage",
    "mtx-dimension-lie",
    "mtx-index-overflow",
    "mtx-negative",
    "mtx-dense-bomb",
    "mtx-truncate",
    "mtx-mutate",
)

#: Share of hostile-mix requests that carry a malformed matrix.
HOSTILE_FRACTION = 0.5

#: Distinct queries in the hot pool (skew-weighted).
HOT_POOL_SIZE = 4

#: Weight of hot-pool entry ``i`` is ``2 ** (HOT_POOL_SIZE - i)``:
#: the hottest key draws half the hot traffic.
_HOT_WEIGHTS = tuple(2 ** (HOT_POOL_SIZE - i) for i in range(HOT_POOL_SIZE))

#: Client-side ceiling for one request round-trip.
CLIENT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class PlannedRequest:
    """One request the generator will send, fixed at plan time.

    ``hostile`` marks requests carrying deliberately malformed
    matrices (the report tracks their outcomes separately);
    ``priority`` is sent as ``X-Copernicus-Priority`` when non-empty.
    """

    endpoint: str
    payload: dict
    hostile: bool = False
    priority: str = ""

    def body(self) -> bytes:
        return canonical_json(self.payload)


# ----------------------------------------------------------------------
# Traffic planning (pure, seeded)
# ----------------------------------------------------------------------
def _hot_pool(rng: Random) -> list[dict]:
    """The mix's small pool of distinct workloads, sized for speed:
    every entry stays well under a second of backend compute."""
    pool: list[dict] = []
    for _ in range(HOT_POOL_SIZE):
        kind = rng.choice(("random", "band"))
        if kind == "random":
            workload = {
                "kind": "random",
                "n": rng.randrange(48, 97),
                "density": round(rng.uniform(0.05, 0.2), 3),
                "seed": rng.randrange(1000),
            }
        else:
            workload = {
                "kind": "band",
                "n": rng.randrange(48, 97),
                "width": rng.randrange(3, 9),
                "seed": rng.randrange(1000),
            }
        pool.append(workload)
    return pool


def _pick_hot(rng: Random, pool: list[dict]) -> dict:
    return rng.choices(pool, weights=_HOT_WEIGHTS, k=1)[0]


def _unique_workload(rng: Random, index: int) -> dict:
    # the seed folds in the request index so no two unique-mix
    # requests (nor any hot-pool entry, which stays under seed 1000)
    # ever share a digest
    return {
        "kind": "random",
        "n": rng.randrange(48, 97),
        "density": round(rng.uniform(0.05, 0.2), 3),
        "seed": 1000 + index,
    }


_FORMATS = ["coo", "csr", "ell"]
_PARTITIONS = [8, 16]


def _characterize(workload: dict) -> PlannedRequest:
    return PlannedRequest(
        endpoint="characterize",
        payload={
            "workload": workload,
            "formats": _FORMATS,
            "partitions": _PARTITIONS,
        },
    )


def _advise(workload: dict, objective: str) -> PlannedRequest:
    return PlannedRequest(
        endpoint="advise",
        payload={
            "workload": workload,
            "formats": _FORMATS,
            "partitions": _PARTITIONS,
            "objective": objective,
        },
    )


def _hostile_request(rng: Random, seed: int, index: int) -> PlannedRequest:
    """One malformed-matrix request from the fuzz generators.

    The content is a pure function of ``(kind, seed, index)`` — the
    same loadgen triple always sends the identical hostile bytes, so a
    server-side regression reproduces from the report alone.
    """
    from ..guard.fuzz import build_case

    kind = rng.choice(HOSTILE_KINDS)
    case = build_case(kind, seed * 1_000_003 + index)
    return PlannedRequest(
        endpoint="characterize",
        payload={
            "workload": {"kind": "mtx", "content": case.mtx},
            "formats": ["coo", "csr"],
            "partitions": [8],
        },
        hostile=True,
        priority="low",
    )


def plan_requests(
    mix: str, n_requests: int, seed: int
) -> list[PlannedRequest]:
    """The full request sequence for ``(mix, n_requests, seed)``.

    Pure and deterministic: planning happens before any I/O, so the
    generated traffic is independent of server timing.
    """
    if mix not in MIXES:
        raise LoadGenError(
            f"unknown mix {mix!r}; choose from {', '.join(MIXES)}"
        )
    if n_requests < 1:
        raise LoadGenError(
            f"requests must be >= 1, got {n_requests}"
        )
    rng = Random(seed)
    pool = _hot_pool(rng)
    planned: list[PlannedRequest] = []
    for index in range(n_requests):
        if mix == "hot":
            planned.append(_characterize(_pick_hot(rng, pool)))
        elif mix == "unique":
            planned.append(_characterize(_unique_workload(rng, index)))
        elif mix == "hostile":
            if rng.random() < HOSTILE_FRACTION:
                planned.append(_hostile_request(rng, seed, index))
            else:
                planned.append(_characterize(_pick_hot(rng, pool)))
        else:  # mixed
            draw = rng.random()
            if draw < 0.5:
                planned.append(_characterize(_pick_hot(rng, pool)))
            elif draw < 0.75:
                planned.append(
                    _characterize(_unique_workload(rng, index))
                )
            else:
                objective = rng.choice(("latency", "throughput"))
                planned.append(
                    _advise(_pick_hot(rng, pool), objective)
                )
    return planned


# ----------------------------------------------------------------------
# The HTTP client (stdlib asyncio streams, one connection per request)
# ----------------------------------------------------------------------
async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    timeout_s: float = CLIENT_TIMEOUT_S,
    headers: "dict[str, str] | None" = None,
) -> tuple[int, dict, bytes]:
    """One ``Connection: close`` round-trip; returns
    ``(status, headers, body)``."""
    extra = "".join(
        f"{name}: {value}\r\n"
        for name, value in (headers or {}).items()
    )

    async def _round_trip() -> tuple[int, dict, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            request = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n"
            ).encode("latin-1") + body
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(maxsplit=2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/"):
                raise LoadGenError(
                    f"malformed status line: {status_line!r}"
                )
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            payload = (
                await reader.readexactly(length) if length else b""
            )
            return status, headers, payload
        finally:
            writer.close()

    try:
        return await asyncio.wait_for(_round_trip(), timeout=timeout_s)
    except asyncio.TimeoutError:
        raise LoadGenError(
            f"{method} {path} exceeded the client timeout "
            f"({timeout_s}s)"
        ) from None
    except (ConnectionError, asyncio.IncompleteReadError) as error:
        raise LoadGenError(
            f"{method} {path} failed: {type(error).__name__}: {error}"
        ) from None


async def fetch_metrics(host: str, port: int) -> dict:
    """The server's live ``metrics/v1`` payload."""
    status, _, body = await http_request(host, port, "GET", "/metrics")
    if status != 200:
        raise LoadGenError(
            f"GET /metrics answered {status}, expected 200"
        )
    return json.loads(body)


@dataclass(frozen=True)
class RequestOutcome:
    """What one planned request came back as.

    ``status`` 0 marks a transport-level failure recorded under
    ``tolerate_errors`` (connection refused mid-drain, client
    timeout); ``n_retries`` counts 429 retries that preceded this
    final attempt.
    """

    endpoint: str
    status: int
    latency_s: float
    source: str
    degraded: str
    n_retries: int = 0
    hostile: bool = False


def _retry_after_floor(headers: dict) -> float:
    """The server's ``Retry-After`` (seconds) as a backoff floor."""
    try:
        return max(0.0, float(headers.get("retry-after", 0.0)))
    except (TypeError, ValueError):
        return 0.0


async def run_load(
    host: str,
    port: int,
    planned: list[PlannedRequest],
    concurrency: int = 8,
    *,
    retry_policy: "RetryPolicy | None" = None,
    retry_seed: int = 0,
    tolerate_errors: bool = False,
) -> tuple[list[RequestOutcome], float]:
    """Replay ``planned`` with bounded client concurrency.

    Returns per-request outcomes **in plan order** plus total wall
    time.  Transport-level failures (connection refused, client
    timeout) raise; HTTP error statuses are outcomes, not failures —
    the report counts them.

    With ``retry_policy``, a 429 is retried with jittered exponential
    backoff (:class:`~repro.engine.retry.RetryPolicy`), honouring the
    server's ``Retry-After`` header as the delay floor; the jitter is
    seeded per request from ``retry_seed`` so replays are
    deterministic.  With ``tolerate_errors`` (the chaos campaign's
    client mode), transport failures become ``status`` 0 outcomes
    instead of raising — a server draining mid-request must not kill
    the measurement.
    """
    if concurrency < 1:
        raise LoadGenError(
            f"concurrency must be >= 1, got {concurrency}"
        )
    gate = asyncio.Semaphore(concurrency)

    async def _one(
        index: int, request: PlannedRequest
    ) -> RequestOutcome:
        async with gate:
            rng = (
                Random(retry_seed * 1_000_003 + index)
                if retry_policy is not None
                else None
            )
            retries = 0
            attempt = 1
            request_headers = (
                {"X-Copernicus-Priority": request.priority}
                if request.priority
                else None
            )
            while True:
                start = time.perf_counter()
                try:
                    status, headers, _ = await http_request(
                        host, port, "POST", f"/{request.endpoint}",
                        request.body(), headers=request_headers,
                    )
                except LoadGenError:
                    if not tolerate_errors:
                        raise
                    return RequestOutcome(
                        endpoint=request.endpoint,
                        status=0,
                        latency_s=time.perf_counter() - start,
                        source="",
                        degraded="",
                        n_retries=retries,
                        hostile=request.hostile,
                    )
                if (
                    status == 429
                    and retry_policy is not None
                    and attempt < retry_policy.max_attempts
                ):
                    delay = retry_policy.delay_for(
                        attempt,
                        rng=rng,
                        floor_s=_retry_after_floor(headers),
                    )
                    await asyncio.sleep(delay)
                    retries += 1
                    attempt += 1
                    continue
                return RequestOutcome(
                    endpoint=request.endpoint,
                    status=status,
                    latency_s=time.perf_counter() - start,
                    source=headers.get("x-copernicus-source", ""),
                    degraded=headers.get("x-copernicus-degraded", ""),
                    n_retries=retries,
                    hostile=request.hostile,
                )

    started = time.perf_counter()
    outcomes = await asyncio.gather(
        *(_one(i, r) for i, r in enumerate(planned))
    )
    return list(outcomes), time.perf_counter() - started


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise LoadGenError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise LoadGenError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]


def _hostile_section(outcomes: list[RequestOutcome]) -> dict:
    """Outcome accounting for the malformed-matrix share of a run.

    ``contained`` counts hostile requests answered with a typed 4xx
    (the sandbox/validation verdict) or a 503 overload refusal —
    hostile traffic rides at ``low`` priority, so a pressured server
    shedding it is also containment.  A hostile 2xx means a malformed
    matrix was *served*; ``worker_harm`` (a non-503 5xx, or a dropped
    connection) means it reached — and hurt — a worker.  The guard
    campaign gates both at zero.
    """
    hostile = [o for o in outcomes if o.hostile]
    statuses: dict[str, int] = {}
    for outcome in hostile:
        statuses[str(outcome.status)] = (
            statuses.get(str(outcome.status), 0) + 1
        )
    return {
        "requests": len(hostile),
        "statuses": statuses,
        "contained": sum(
            1
            for o in hostile
            if 400 <= o.status < 500 or o.status == 503
        ),
        "served_2xx": sum(
            1 for o in hostile if 200 <= o.status < 300
        ),
        "worker_harm": sum(
            1
            for o in hostile
            if o.status == 0 or (o.status >= 500 and o.status != 503)
        ),
    }


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after["counters"].get(name, 0)) - int(
        before["counters"].get(name, 0)
    )


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def bench_report(
    *,
    mix: str,
    seed: int,
    concurrency: int,
    outcomes: list[RequestOutcome],
    wall_s: float,
    metrics_before: dict,
    metrics_after: dict,
) -> dict:
    """The ``bench/v2`` report for one loadgen run, gated by its mix."""
    latencies_ms = [o.latency_s * 1000.0 for o in outcomes]
    statuses: dict[str, int] = {}
    sources: dict[str, int] = {}
    for outcome in outcomes:
        statuses[str(outcome.status)] = (
            statuses.get(str(outcome.status), 0) + 1
        )
        if outcome.source:
            sources[outcome.source] = sources.get(outcome.source, 0) + 1
    coalesce_hits = _counter_delta(
        metrics_before, metrics_after, "serve.coalesce.hits"
    )
    coalesce_misses = _counter_delta(
        metrics_before, metrics_after, "serve.coalesce.misses"
    )
    cache_hits = _counter_delta(
        metrics_before, metrics_after, "serve.cache.hits"
    )
    cache_misses = _counter_delta(
        metrics_before, metrics_after, "serve.cache.misses"
    )
    sections = {
        "requests": len(outcomes),
        "wall_s": wall_s,
        "throughput_rps": len(outcomes) / wall_s if wall_s else 0.0,
        "latency_ms": {
            "p50": percentile(latencies_ms, 50),
            "p90": percentile(latencies_ms, 90),
            "p99": percentile(latencies_ms, 99),
            "mean": sum(latencies_ms) / len(latencies_ms),
            "max": max(latencies_ms),
        },
        "statuses": statuses,
        "retries": {
            "total": sum(o.n_retries for o in outcomes),
            "requests_retried": sum(
                1 for o in outcomes if o.n_retries
            ),
            "resolved_429": sum(
                1
                for o in outcomes
                if o.n_retries and o.status == 200
            ),
        },
        "n_5xx": sum(
            count
            for status, count in statuses.items()
            if status.startswith("5")
        ),
        "n_degraded": sum(1 for o in outcomes if o.degraded),
        "sources": sources,
        "hostile": _hostile_section(outcomes),
        "server": {
            "coalesce_hits": coalesce_hits,
            "coalesce_misses": coalesce_misses,
            "coalesce_hit_rate": _rate(coalesce_hits, coalesce_misses),
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_hit_rate": _rate(cache_hits, cache_misses),
            "computations": (
                int(
                    metrics_after["extra"]["server"]["computations"]
                )
                - int(
                    metrics_before["extra"]["server"]["computations"]
                )
            ),
        },
    }
    config = {"mix": mix, "seed": seed, "concurrency": concurrency}
    return envelope("loadgen", config, sections, MIX_GATES[mix])


async def run_loadgen(
    host: str,
    port: int,
    *,
    mix: str = "mixed",
    requests: int = 200,
    seed: int = 7,
    concurrency: int = 8,
    retry_policy: "RetryPolicy | None" = None,
) -> dict:
    """Plan, replay, and report one load-test run.

    The full ``repro loadgen`` path minus argument parsing and file
    output, so tests can drive it in-process.
    """
    planned = plan_requests(mix, requests, seed)
    metrics_before = await fetch_metrics(host, port)
    outcomes, wall_s = await run_load(
        host, port, planned, concurrency=concurrency,
        retry_policy=retry_policy, retry_seed=seed,
    )
    metrics_after = await fetch_metrics(host, port)
    return bench_report(
        mix=mix,
        seed=seed,
        concurrency=concurrency,
        outcomes=outcomes,
        wall_s=wall_s,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
    )
