"""Characterization-as-a-service: the asyncio HTTP/JSON query server.

A long-running server answering "characterize this matrix / advise a
format" queries over the sweep engine, stdlib only::

    POST /characterize   {"workload": {...}, "formats": [...], ...}
    POST /advise         {... "objective": "latency", "constraints": {}}
    GET  /metrics        metrics/v1 snapshot (live telemetry)
    GET  /healthz        liveness probe

The concurrency mechanics, in the order a request meets them:

1. **Parse** — the body becomes a typed query and its digest.  An
   inline ``mtx`` workload the cache has not seen is first proved in
   the resource-capped sandbox (on its own thread), so a poison
   matrix costs one verdict, never a serve worker.
2. **One admission decision** — :func:`~repro.guard.decide` reads one
   snapshot (draining, the SLO shed line, the LRU result cache, the
   single-flight table, the route's circuit breaker, and admitted
   compute leaders against ``max_inflight + queue_limit``) and
   refuses (503 draining, shed or breaker open; 429 queue full) or
   admits: from the cache, coalesced onto the digest's in-flight
   computation (:class:`~repro.engine.SingleFlight`; a cancelled
   waiter never cancels the shared work), or as a new computation
   whose slot is reserved in the same synchronous step.
3. **Backend** — at most ``max_inflight`` computations run at once;
   each outcome feeds the route's breaker.
4. **Per-request budget** — with ``budget_s`` set, a request that
   cannot be answered in time *degrades* instead of hanging: first to
   a cached answer for the cheaper approximate form of the query (its
   smallest partition size), then to computing that approximate
   answer within a grace budget, and only then to a structured ``504``.
   The original computation keeps running and lands in the cache for
   the next asker.  Degraded responses are marked with the
   ``X-Copernicus-Degraded`` header — never in the body, which stays
   byte-identical per digest.
5. **Telemetry** — every request increments counters and records a
   labelled span in the server's
   :class:`~repro.observability.MetricsRegistry`, exported live at
   ``GET /metrics`` (``metrics/v1``); every refusal or degradation
   counts once under ``serve.decision.<refuse|degrade>.<reason>``.

Every query error and refusal is raised — refusals as typed
:class:`~repro.errors.ServeError` subclasses carrying
``retry_after_s`` — and rendered in one place (:func:`render_error`):
a structured ``serve/v1`` body, plus exactly one ``Retry-After``
header for the refusals (429 queue full; 503 draining, shed or
breaker open).  The connection handler counts
``serve.http.<status>`` from the status it writes, never lets a raw
traceback reach the wire, and keeps serving.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .. import io_atomic
from ..engine.faults import FaultPlan
from ..engine.singleflight import SingleFlight
from ..errors import (
    CopernicusError,
    ServeBudgetError,
    ServeCircuitOpenError,
    ServeDrainingError,
    ServeError,
    ServeOverloadedError,
    ServeRequestError,
    ServeSandboxError,
    ServeShedError,
)
from ..guard.overload import (
    CircuitBreaker,
    Decision,
    GuardPolicy,
    LoadShedder,
    Signals,
    UNCACHED_REFUSALS,
    decide,
    parse_priority,
)
from ..guard.sandbox import Sandbox, SandboxLimits
from ..observability import MetricsRegistry, metrics_payload
from .backend import SweepBackend
from .lru import LRUCache
from .protocol import (
    DEFAULT_MAX_DIM,
    ENDPOINTS,
    Query,
    canonical_json,
    error_payload,
    health_payload,
    parse_query,
    query_digest,
)

__all__ = ["CharacterizationServer", "HTTP_REASONS", "render_error"]

#: Reason phrases for the statuses the server emits.
HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard caps on what one HTTP request may look like.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 64
MAX_LINE_BYTES = 8192

#: Socket-read budget (malformed/stalled clients, not query compute).
READ_TIMEOUT_S = 30.0

#: Spans kept in the live registry (oldest dropped beyond this).
SPAN_CAP = 2048


class _ProtocolError(ServeError):
    """Malformed HTTP from the client; carries the reply status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class CharacterizationServer:
    """The asyncio HTTP server over one :class:`SweepBackend`.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_inflight:
        Concurrent backend computations (also the thread-pool width).
    queue_limit:
        Leaders allowed to wait for a backend slot before new work is
        refused with ``429``.
    budget_s:
        Optional per-request wall budget in seconds; ``None`` disables
        degradation and lets requests wait for the full computation.
    cache_size:
        LRU result-cache capacity (entries, one per query digest).
    max_dim:
        Largest workload dimension a query may request.
    faults:
        Deterministic :class:`~repro.engine.faults.FaultPlan` (or its
        string form) injected into every backend sweep — testing only.
    guard_policy:
        :class:`~repro.guard.GuardPolicy` tuning the always-armed
        overload guard: the per-route circuit breakers' threshold and
        recovery window, and the p99 SLO for priority load shedding
        (from the ``X-Copernicus-Priority`` header; off unless
        ``shed_p99_ms`` is set).  Defaults to ``GuardPolicy()``.
    sandbox_limits:
        Resource caps for the poison-matrix sandbox that untrusted
        inline ``mtx`` workloads must survive before they reach a
        worker (defaults to :class:`~repro.guard.SandboxLimits`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 4,
        queue_limit: int = 16,
        budget_s: float | None = None,
        cache_size: int = 256,
        max_dim: int = DEFAULT_MAX_DIM,
        faults: "FaultPlan | str | None" = None,
        guard_policy: GuardPolicy = GuardPolicy(),
        sandbox_limits: "SandboxLimits | None" = None,
    ) -> None:
        if max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if budget_s is not None and budget_s <= 0:
            raise ServeError(
                f"budget_s must be > 0 seconds, got {budget_s}"
            )
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.budget_s = budget_s
        self.max_dim = max_dim
        self.metrics = MetricsRegistry()
        self.cache: LRUCache = LRUCache(cache_size)
        self.flight = SingleFlight()
        self.backend = SweepBackend(faults=faults)
        self.guard_policy = guard_policy
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Backend calls running per route (their outcomes are pending).
        self._backend_calls: dict[str, int] = {}
        self.shedder = LoadShedder(
            p99_threshold_ms=guard_policy.shed_p99_ms
        )
        # spawns its child on the first job
        self._sandbox = Sandbox(sandbox_limits or SandboxLimits())
        self._semaphore: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._sandbox_executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        #: Compute leaders admitted, running or waiting for a slot.
        self._admitted = 0
        self._running = 0
        self._draining = False
        self._inflight: set[asyncio.Task] = set()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun refusing new work."""
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._semaphore = asyncio.Semaphore(self.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve",
        )
        # sandbox jobs never queue behind sweep computations; one
        # thread, as the sandbox runs one job at a time
        self._sandbox_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-sandbox"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(
        self,
        timeout_s: float = 5.0,
        snapshot_path: "Path | str | None" = None,
    ) -> dict:
        """Graceful shutdown: stop accepting, finish or 503 in-flight.

        The drain contract (``repro serve`` runs this on SIGTERM and
        SIGINT):

        1. the listener closes — no new connections are accepted;
        2. new query requests racing in on already-open connections
           are refused with a structured ``503`` (plus
           ``Retry-After``), never dropped mid-parse;
        3. in-flight requests get ``timeout_s`` seconds to finish
           normally; stragglers are cancelled and answer ``503``
           instead of a reset connection;
        4. a final ``metrics/v1`` snapshot — including the drain
           counters — is flushed atomically to ``snapshot_path`` (when
           given) and returned, so the last state of a terminated
           server survives on disk.

        Idempotent: a second call skips straight to the snapshot.
        """
        if timeout_s < 0:
            raise ServeError(
                f"drain timeout must be >= 0 seconds, got {timeout_s}"
            )
        if not self._draining:
            self._draining = True
            self.metrics.incr("serve.drain.initiated")
            if self._server is not None:
                self._server.close()
            pending = {
                task for task in self._inflight if not task.done()
            }
            if pending:
                _, stragglers = await asyncio.wait(
                    pending, timeout=timeout_s
                )
                for task in stragglers:
                    task.cancel()
                if stragglers:
                    self.metrics.incr(
                        "serve.drain.cancelled", len(stragglers)
                    )
                    # the cancelled handlers still write their 503s;
                    # wait for that, not just for the cancel to land
                    await asyncio.gather(
                        *stragglers, return_exceptions=True
                    )
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
        snapshot = self._metrics_view()
        if snapshot_path is not None:
            io_atomic.atomic_write_json(Path(snapshot_path), snapshot)
        return snapshot

    async def aclose(self) -> None:
        """Stop accepting and release the backend threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for executor in (self._executor, self._sandbox_executor):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._sandbox_executor = None
        self._sandbox.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
        try:
            method, path, request_body, priority = await asyncio.wait_for(
                self._read_request(reader), timeout=READ_TIMEOUT_S
            )
            status, body, extra_headers = await self._dispatch(
                method, path, request_body, priority
            )
        except (asyncio.TimeoutError, ConnectionError, EOFError):
            writer.close()
            if task is not None:
                self._inflight.discard(task)
            return
        except asyncio.CancelledError:
            # drain() cancelled this handler before its request
            # arrived (as in _handle_query: answer 503, don't reset)
            if not self._draining:
                if task is not None:
                    self._inflight.discard(task)
                raise
            status, body, extra_headers = self._error_response(
                _drain_cancelled()
            )
        except Exception as error:  # noqa: BLE001 — last-resort guard
            # protocol errors, and anything untyped: nothing
            # unstructured may reach the wire
            status, body, extra_headers = self._error_response(error)
        if status >= 500:
            self.metrics.incr("serve.http.5xx")
        self.metrics.incr(f"serve.http.{status}")
        try:
            writer.write(_response_bytes(status, body, extra_headers))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            if task is not None:
                self._inflight.discard(task)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, str]:
        request_line = await reader.readline()
        if not request_line:
            raise EOFError
        if len(request_line) > MAX_LINE_BYTES:
            raise _ProtocolError("request line too long", 400)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _ProtocolError("malformed request line", 400)
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        priority = parse_priority(None)
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if len(line) > MAX_LINE_BYTES:
                raise _ProtocolError("header line too long", 400)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _ProtocolError(
                        "invalid Content-Length", 400
                    ) from None
            elif header == "x-copernicus-priority":
                priority = parse_priority(value.strip())
        else:
            raise _ProtocolError("too many headers", 400)
        if content_length < 0:
            raise _ProtocolError("invalid Content-Length", 400)
        if content_length > MAX_BODY_BYTES:
            raise _ProtocolError(
                f"body exceeds {MAX_BODY_BYTES} bytes", 413
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body, priority

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, priority: str = "normal"
    ) -> tuple[int, bytes, dict]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, canonical_json(self._metrics_view()), {}
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, canonical_json(health_payload()), {}
        endpoint = path.lstrip("/")
        if endpoint in ENDPOINTS:
            if method != "POST":
                return self._method_not_allowed("POST")
            return await self._handle_query(endpoint, body, priority)
        return 404, canonical_json(
            error_payload("NotFound", f"no route for {path}", 404)
        ), {}

    def _error_response(
        self, error: BaseException
    ) -> tuple[int, bytes, dict]:
        """The one refusal/error path: count the type, render it."""
        self.metrics.incr(f"serve.errors.{type(error).__name__}")
        return render_error(error)

    @staticmethod
    def _method_not_allowed(allow: str) -> tuple[int, bytes, dict]:
        return 405, canonical_json(
            error_payload("MethodNotAllowed", f"use {allow}", 405)
        ), {"Allow": allow}

    # ------------------------------------------------------------------
    # The query path: parse -> decide -> cache / flight -> backend
    # ------------------------------------------------------------------
    async def _handle_query(
        self, endpoint: str, body: bytes, priority: str = "normal"
    ) -> tuple[int, bytes, dict]:
        start = time.perf_counter()
        self.metrics.incr("serve.requests")
        self.metrics.incr(f"serve.requests.{endpoint}")
        status, source, degraded = 500, "error", ""
        digest = ""
        try:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as error:
                raise ServeRequestError(
                    f"request body is not valid JSON: {error}"
                ) from None
            query = parse_query(endpoint, payload, max_dim=self.max_dim)
            digest = query_digest(query)
            if query.spec.kind == "mtx" and digest not in self.cache:
                # untrusted bytes cross the sandbox boundary first
                await self._sandbox_gate(query)
            response, source, degraded = await self._answer(
                query, digest, priority
            )
            status = 200
            headers = {
                "X-Copernicus-Digest": digest,
                "X-Copernicus-Source": source,
            }
            if degraded:
                headers["X-Copernicus-Degraded"] = degraded
            return status, response, headers
        except (asyncio.CancelledError, CopernicusError) as error:
            if isinstance(error, asyncio.CancelledError):
                # only drain() cancels handlers, and a 503 on the wire
                # beats a reset connection; outside a drain,
                # cancellation is not ours to swallow
                if not self._draining:
                    raise
                error = _drain_cancelled()
            status, response, headers = self._error_response(error)
            return status, response, headers
        finally:
            elapsed = time.perf_counter() - start
            self.metrics.observe("serve.request", elapsed)
            if status == 200:
                # shed/refused answers are fast by construction;
                # feeding them into the window would talk the shedder
                # out of shedding while the backend is still drowning
                self.shedder.observe(elapsed)
            self._record_span(
                endpoint, status, source, degraded, digest, elapsed
            )

    async def _answer(
        self, query: Query, digest: str, priority: str
    ) -> tuple[bytes, str, str]:
        """Response bytes plus (source, degraded) markers.

        Snapshot, decision, counting and act are one synchronous step,
        so nothing changes between what the decision read and what it
        admitted.
        """
        route = query.endpoint
        breaker = self._breaker(route)
        signals = Signals(
            draining=self._draining,
            priority=priority,
            shed_p99_ms=self.shedder.p99_threshold_ms,
            p99_ms=self.shedder.p99_ms() if self.shedder.enabled else 0.0,
            cached=digest in self.cache,
            in_flight=self.flight.is_inflight(digest),
            breaker=breaker.state,  # may advance open -> half-open
            probe_taken=breaker.probe_taken,
            admitted=self._admitted,
            capacity=self.max_inflight + self.queue_limit,
        )
        decision = decide(signals)
        if decision.refuse not in UNCACHED_REFUSALS:
            cached = self.cache.get(digest)
            self.metrics.incr(
                "serve.cache.misses" if cached is None
                else "serve.cache.hits"
            )
            if cached is not None:
                return cached, "cache", ""
        future = self._act(decision, signals, query, digest)
        if decision.probe:
            breaker.allow()  # takes the half-open probe
        try:
            if self.budget_s is None:
                body = await future
            else:
                try:
                    body = await asyncio.wait_for(
                        future, timeout=self.budget_s
                    )
                except asyncio.TimeoutError:
                    # the shared computation keeps running for future
                    # askers; this request degrades instead of hanging
                    return await self._degrade(query)
        finally:
            # only a backend call reports an outcome: a probe answered
            # without one (cancelled, budget-blown) hands the probe
            # back unless a running call on the route still will
            if decision.probe and not self._backend_calls.get(route):
                breaker.release()
        # the decision is ground truth: only a leader's flight computes
        led = decision.admit == "compute"
        self.metrics.incr(
            "serve.coalesce.misses" if led else "serve.coalesce.hits"
        )
        return body, "computed" if led else "coalesced", ""

    def _act(
        self, decision: Decision, signals: Signals, query: Query, digest: str
    ) -> asyncio.Future:
        """Count and raise a refusal, or join the digest's flight.

        A compute leader's slot is reserved here, in the step that
        decided it, so a burst is admitted exactly up to capacity.
        """
        if decision.refuse:
            self.metrics.incr(f"serve.decision.refuse.{decision.refuse}")
            raise self._refusal(decision.refuse, signals, query.endpoint)
        if decision.admit == "compute":
            self._admitted += 1
        return self.flight.run(
            digest, functools.partial(self._admitted_compute, query, digest)
        )

    def _refusal(
        self, reason: str, signals: Signals, route: str
    ) -> ServeError:
        """The typed error, message and ``retry_after_s`` of a refusal."""
        if reason == "draining":
            # GET /metrics and /healthz stay up for the final scrape;
            # only new query work is refused
            return ServeDrainingError(
                "server is draining and not accepting new work; "
                "retry against another instance"
            )
        if reason == "breaker":
            breaker = self._breakers[route]
            return ServeCircuitOpenError(
                f"circuit breaker for /{route} is {signals.breaker}: "
                f"the backend failed {breaker.failure_threshold} "
                "consecutive times; retry after backoff",
                breaker.retry_after_s(),
            )
        if reason == "queue-full":
            # admitted leaders take free slots first; the rest queue
            running = min(signals.admitted, self.max_inflight)
            return ServeOverloadedError(
                f"server at capacity: {running} computations running, "
                f"{signals.admitted - running} queued (limit "
                f"{self.queue_limit}); retry later"
            )
        return ServeShedError(
            f"shedding {signals.priority!r}-priority work: request "
            f"p99 {signals.p99_ms:.0f}ms crossed the configured SLO "
            "threshold; retry after backoff or raise "
            "X-Copernicus-Priority"
        )

    async def _admitted_compute(self, query: Query, digest: str) -> bytes:
        """An admitted leader's flight: wait for a backend slot, run the
        call, report its outcome to the route's breaker, cache it."""
        route = query.endpoint
        breaker = self._breaker(route)
        try:
            async with self._semaphore:
                self._running += 1
                self._backend_calls[route] = (
                    self._backend_calls.get(route, 0) + 1
                )
                try:
                    body = await asyncio.get_running_loop().run_in_executor(
                        self._executor,
                        functools.partial(self.backend.execute_bytes, query),
                    )
                except Exception:
                    breaker.record_failure()
                    raise
                else:
                    breaker.record_success()
                finally:
                    self._backend_calls[route] -= 1
                    self._running -= 1
        finally:
            self._admitted -= 1
        self.cache.put(digest, body)
        return body

    # ------------------------------------------------------------------
    # The guard layer: breaker lookup and the sandbox boundary
    # ------------------------------------------------------------------
    def _breaker(self, route: str) -> CircuitBreaker:
        """The route's circuit breaker (lazily created)."""
        breaker = self._breakers.get(route)
        if breaker is None:
            breaker = CircuitBreaker(
                route,
                failure_threshold=self.guard_policy.breaker_threshold,
                recovery_s=self.guard_policy.breaker_recovery_s,
                metrics=self.metrics,
            )
            self._breakers[route] = breaker
        return breaker

    async def _sandbox_gate(self, query: Query) -> None:
        """Prove an untrusted ``mtx`` workload inside the sandbox.

        Runs parse + profile (the costliest pre-compute stages) in the
        resource-capped subprocess; anything but an ``ok`` verdict
        refuses the query with the typed :class:`ServeSandboxError`
        before the matrix reaches a serve worker.
        """
        content = dict(query.spec.params)["content"]
        p = max(query.partitions) if query.partitions else 8
        verdict = await asyncio.get_running_loop().run_in_executor(
            self._sandbox_executor,
            functools.partial(
                self._sandbox.run, "profile", mtx=content, p=p
            ),
        )
        self.metrics.incr(f"serve.sandbox.{verdict.kind}")
        if verdict.kind == "rejected":
            raise ServeSandboxError(
                f"matrix rejected: {verdict.detail}", verdict.kind
            )
        if not verdict.ok:
            raise ServeSandboxError(
                f"matrix refused by the sandbox ({verdict.kind}): "
                f"{verdict.detail or 'resource limits exceeded'}",
                verdict.kind,
            )
        shape = (verdict.result or {}).get("shape") or (0, 0)
        if max(shape) > self.max_dim:
            raise ServeRequestError(
                f"matrix shape {shape[0]} x {shape[1]} exceeds this "
                f"server's max_dim {self.max_dim}"
            )

    async def _degrade(self, query: Query) -> tuple[bytes, str, str]:
        """Answer a budget-blown request without the full computation.

        The degradation ladder: a cached answer for the approximate
        query (its smallest partition size), then computing that
        approximate answer within one grace budget, then a structured
        ``504``.  A blown budget is only known after waiting, so the
        ladder runs here, not in :func:`decide`; its rungs are counted
        in the same ``serve.decision.*`` family.
        """
        approximate = query.approximate()
        if approximate is None:
            self.metrics.incr("serve.decision.refuse.budget")
            raise ServeBudgetError(
                f"request budget of {self.budget_s}s expired and the "
                "query has no cheaper approximate form; retry later "
                "(the full computation continues in the background)"
            )
        approx_digest = query_digest(approximate)
        cached = self.cache.get(approx_digest)
        if cached is not None:
            self.metrics.incr("serve.decision.degrade.cached-approximate")
            return cached, "cache", "cached-approximate"
        # the request was admitted already: only the flight table and
        # capacity decide whether its approximate form may compute
        signals = Signals(
            in_flight=self.flight.is_inflight(approx_digest),
            admitted=self._admitted,
            capacity=self.max_inflight + self.queue_limit,
        )
        future = self._act(
            decide(signals), signals, approximate, approx_digest
        )
        try:
            body = await asyncio.wait_for(future, timeout=self.budget_s)
        except asyncio.TimeoutError:
            self.metrics.incr("serve.decision.refuse.budget")
            raise ServeBudgetError(
                f"request budget of {self.budget_s}s expired twice "
                "(full and approximate query); retry later (both "
                "computations continue in the background)"
            ) from None
        self.metrics.incr("serve.decision.degrade.approximate")
        return body, "computed", "approximate"

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_span(
        self,
        endpoint: str,
        status: int,
        source: str,
        degraded: str,
        digest: str,
        wall_s: float,
    ) -> None:
        self.metrics.add_span(
            "serve.request",
            wall_s,
            labels=(
                ("degraded", degraded),
                ("digest", digest[:12]),
                ("endpoint", endpoint),
                ("source", source),
                ("status", status),
            ),
        )
        overflow = len(self.metrics.spans) - SPAN_CAP
        if overflow > 0:
            del self.metrics.spans[:overflow]

    def _metrics_view(self) -> dict:
        return metrics_payload(
            self.metrics,
            extra={
                "server": {
                    "max_inflight": self.max_inflight,
                    "queue_limit": self.queue_limit,
                    "budget_s": self.budget_s,
                    "running": self._running,
                    "waiting": self._admitted - self._running,
                    "inflight_digests": len(self.flight),
                    "computations": self.backend.computations,
                },
                "cache": self.cache.gauges(),
                "singleflight": {
                    "leaders": self.flight.stats.leaders,
                    "coalesced": self.flight.stats.coalesced,
                    "failures": self.flight.stats.failures,
                },
                "guard": {
                    "enabled": True,
                    "breakers": {
                        route: breaker.snapshot()
                        for route, breaker in sorted(
                            self._breakers.items()
                        )
                    },
                    "shedder": self.shedder.snapshot(),
                    "sandbox": {
                        "spawned": self._sandbox.spawns > 0,
                        "spawns": self._sandbox.spawns,
                        "jobs": self._sandbox.jobs,
                    },
                },
            },
        )


def render_error(error: BaseException) -> tuple[int, bytes, dict]:
    """Status, ``serve/v1`` error body and headers for a raised error.

    The status is the error's ``status`` (500 for anything untyped).
    A refusal's ``retry_after_s`` becomes one ``Retry-After`` header in
    whole seconds, rounded up and at least 1.
    """
    status = getattr(error, "status", 500)
    body = canonical_json(
        error_payload(type(error).__name__, str(error), status)
    )
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is None:
        return status, body, {}
    return status, body, {
        "Retry-After": str(max(1, math.ceil(retry_after)))
    }


def _drain_cancelled() -> ServeDrainingError:
    return ServeDrainingError("request cancelled: server is draining")


def _response_bytes(status: int, body: bytes, extra: dict) -> bytes:
    reason = HTTP_REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra.items())
    head = "\r\n".join(headers) + "\r\n\r\n"
    return head.encode("latin-1") + body
