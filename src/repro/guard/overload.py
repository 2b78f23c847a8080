"""Serve-side overload protection: one pure admission decision.

:func:`decide` admits or refuses a request from one :class:`Signals`
snapshot, with no clock, I/O or counters.  Its rules, in precedence
order: a draining server refuses; with ``shed_p99_ms`` set, a window
p99 over the threshold sheds ``low`` priority and over twice it also
``normal`` (``high`` is never shed; unknown ``X-Copernicus-Priority``
spellings are ``low``); a cache hit answers; an open route
:class:`CircuitBreaker`, or a half-open one whose single probe is out,
refuses; a digest in flight coalesces; admitted compute leaders are
capped at ``max_inflight + queue_limit``; anything else computes.

The breaker (closed → open after ``failure_threshold`` consecutive
failures → half-open after ``recovery_s`` → closed on a probe success)
and the :class:`LoadShedder` latency window hold the state the
snapshot reads; :class:`GuardPolicy` bundles the tuning knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import GuardError
from ..observability import NULL_METRICS

__all__ = [
    "PRIORITIES",
    "CircuitBreaker",
    "Decision",
    "GuardPolicy",
    "LoadShedder",
    "Signals",
    "UNCACHED_REFUSALS",
    "decide",
    "parse_priority",
]

#: Priority classes, highest first.  The default for requests that do
#: not send the header is ``normal``; unknown spellings are ``low``.
PRIORITIES = ("high", "normal", "low")


def parse_priority(value: "str | None") -> str:
    """Map an ``X-Copernicus-Priority`` header to a priority class."""
    if value is None or value == "":
        return "normal"
    value = value.strip().lower()
    return value if value in PRIORITIES else "low"


@dataclass(frozen=True)
class GuardPolicy:
    """Tuning knobs for the serve-side guard layer.

    The breakers are always armed; ``shed_p99_ms`` of ``None`` (the
    default) turns shedding off.
    """

    breaker_threshold: int = 5
    breaker_recovery_s: float = 5.0
    shed_p99_ms: "float | None" = None

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise GuardError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_recovery_s <= 0:
            raise GuardError(
                f"breaker_recovery_s must be > 0, got "
                f"{self.breaker_recovery_s}"
            )
        if self.shed_p99_ms is not None and self.shed_p99_ms <= 0:
            raise GuardError(
                f"shed_p99_ms must be > 0, got {self.shed_p99_ms}"
            )


class CircuitBreaker:
    """Per-route failure breaker: closed → open → half-open → closed.

    Not thread-safe by itself — the server drives it from the event
    loop; the fuzz/overload tests drive it with a fake clock.
    """

    def __init__(
        self,
        route: str,
        *,
        failure_threshold: int = 5,
        recovery_s: float = 5.0,
        clock=time.monotonic,
        metrics=NULL_METRICS,
    ) -> None:
        if failure_threshold < 1:
            raise GuardError(
                f"failure_threshold must be >= 1, got "
                f"{failure_threshold}"
            )
        if recovery_s <= 0:
            raise GuardError(
                f"recovery_s must be > 0, got {recovery_s}"
            )
        self.route = route
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        self._metrics = metrics
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: True while a half-open probe is out.
        self.probe_taken = False
        #: Transition counts, keyed ``"closed-open"`` etc.
        self.transitions: dict[str, int] = {}

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open → half-open on its own once
        the recovery window has elapsed."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.recovery_s
        ):
            self._transition("half-open")
            self.probe_taken = False
        return self._state

    def _transition(self, to_state: str) -> None:
        key = f"{self._state}-{to_state}"
        self._state = to_state
        self.transitions[key] = self.transitions.get(key, 0) + 1
        self._metrics.incr(
            f"guard.breaker.{self.route}.transition.{key}"
        )

    # -- the request-path API ------------------------------------------
    def allow(self) -> bool:
        """May a request proceed to the backend right now?

        In ``half-open`` state, exactly one caller (the probe) gets a
        True until it reports an outcome or :meth:`release` hands the
        probe back.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "open" or self.probe_taken:
            return False
        self.probe_taken = True
        return True

    def release(self) -> None:
        """Hand back a half-open probe whose request ends with no
        backend call left to report, so the next caller probes; a
        no-op once an outcome has moved the breaker on."""
        if self._state == "half-open":
            self.probe_taken = False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == "half-open":
            self._transition("closed")

    def record_failure(self) -> None:
        state = self.state
        if state == "half-open":
            # the probe failed: the backend is still sick
            self._transition("open")
            self._opened_at = self._clock()
            self._consecutive_failures = 0
            return
        if state == "open":
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._transition("open")
            self._opened_at = self._clock()
            self._consecutive_failures = 0

    def retry_after_s(self) -> float:
        """Seconds until the next state change a client should wait."""
        if self._state != "open":
            return 1.0
        remaining = self.recovery_s - (self._clock() - self._opened_at)
        return max(1.0, remaining)

    def snapshot(self) -> dict:
        return {
            "route": self.route,
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "recovery_s": self.recovery_s,
            "transitions": dict(sorted(self.transitions.items())),
        }


class LoadShedder:
    """The rolling latency window behind SLO-aware shedding.

    ``observe`` feeds completed-request latencies; :func:`decide`
    reads the window's :meth:`p99_ms` against ``p99_threshold_ms``.
    """

    def __init__(
        self,
        *,
        p99_threshold_ms: "float | None" = None,
        window: int = 256,
    ) -> None:
        if window < 8:
            raise GuardError(f"window must be >= 8, got {window}")
        self.p99_threshold_ms = p99_threshold_ms
        self.window = window
        self._latencies_ms: list[float] = []
        self._cursor = 0

    @property
    def enabled(self) -> bool:
        return self.p99_threshold_ms is not None

    def observe(self, latency_s: float) -> None:
        """Feed one completed request's wall latency into the window."""
        value = max(0.0, latency_s) * 1000.0
        if len(self._latencies_ms) < self.window:
            self._latencies_ms.append(value)
        else:
            self._latencies_ms[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.window

    def p99_ms(self) -> float:
        """Nearest-rank p99 of the current window (0 when empty)."""
        if not self._latencies_ms:
            return 0.0
        ordered = sorted(self._latencies_ms)
        rank = max(1, int(0.99 * len(ordered) + 0.9999))
        return ordered[min(rank, len(ordered)) - 1]

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "p99_threshold_ms": self.p99_threshold_ms,
            "window_p99_ms": self.p99_ms(),
            "window_fill": len(self._latencies_ms),
        }


@dataclass(frozen=True)
class Signals:
    """One snapshot of everything an admission depends on (the
    defaults describe an idle, healthy server)."""

    draining: bool = False
    priority: str = "normal"
    #: The shed threshold (``None``: off) and the window p99 it meets.
    shed_p99_ms: "float | None" = None
    p99_ms: float = 0.0
    cached: bool = False
    in_flight: bool = False
    breaker: str = "closed"
    probe_taken: bool = False
    #: Admitted, unfinished compute leaders against their cap.
    admitted: int = 0
    capacity: int = 1


@dataclass(frozen=True)
class Decision:
    """An admit (``cache``, ``coalesce``, ``compute``; ``probe`` when
    it takes the half-open probe) or a refusal (``draining``,
    ``shed-low``, ``shed-normal``, ``breaker``, ``queue-full``)."""

    admit: str = ""
    refuse: str = ""
    probe: bool = False


#: The refusals :func:`decide` reaches before it consults the cache.
UNCACHED_REFUSALS = ("draining", "shed-low", "shed-normal")


def decide(signals: Signals) -> Decision:
    """Admit or refuse one request; the rule order is the precedence."""
    if signals.draining:
        return Decision(refuse="draining")
    if signals.shed_p99_ms is not None and signals.priority != "high":
        factor = 2 if signals.priority == "normal" else 1
        if signals.p99_ms > factor * signals.shed_p99_ms:
            return Decision(refuse=f"shed-{signals.priority}")
    if signals.cached:
        return Decision(admit="cache")
    probe = signals.breaker == "half-open"
    if signals.breaker == "open" or (probe and signals.probe_taken):
        return Decision(refuse="breaker")
    if signals.in_flight:
        return Decision(admit="coalesce", probe=probe)
    if signals.admitted >= signals.capacity:
        return Decision(refuse="queue-full")
    return Decision(admit="compute", probe=probe)
