"""Serve-side overload protection: breakers, bulkheads, shedding.

Three cooperating mechanisms, all deterministic and clock-injectable
so the state machines are testable without sleeping:

* :class:`CircuitBreaker` — classic closed → open → half-open per
  *route*: after ``failure_threshold`` consecutive backend failures
  the route answers 503 immediately for ``recovery_s`` seconds, then
  lets exactly one probe through; a probe success closes the breaker,
  a probe failure re-opens it.  Every transition lands in a typed
  metrics counter (``guard.breaker.<route>.transition.<from>-<to>``).
* **Bulkheads** — the server separates cheap traffic (sandbox
  gating) from expensive sweep computations with independent executor lanes; :class:`BulkheadStats`
  is the shared accounting the metrics endpoint exports.
* :class:`LoadShedder` — SLO-aware shedding: a rolling latency window
  decides a *shed line*; requests whose priority falls below the line
  are refused with 503 + Retry-After while higher classes keep their
  latency bounded.  Priorities come from the ``X-Copernicus-Priority``
  header (:data:`PRIORITIES`; unknown values are treated as ``low``,
  so a client cannot gain priority by misspelling it).

:class:`GuardPolicy` bundles the tuning knobs the server and CLI
accept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import GuardError
from ..observability import NULL_METRICS

__all__ = [
    "PRIORITIES",
    "BulkheadStats",
    "CircuitBreaker",
    "GuardPolicy",
    "LoadShedder",
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
        self._probing = False
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
            self._probing = False
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
        if state == "open" or self._probing:
            return False
        self._probing = True
        return True

    def release(self) -> None:
        """Hand back the half-open probe without an outcome.

        For a probe whose request ended without a backend call that
        will report (refused by admission, cancelled): the next caller becomes the probe.  A no-op once
        an outcome has moved the breaker out of ``half-open``.
        """
        if self._state == "half-open":
            self._probing = False

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


@dataclass
class BulkheadStats:
    """Shared accounting for one executor lane."""

    lane: str
    width: int
    submitted: int = 0
    completed: int = 0
    rejected: int = 0

    def snapshot(self) -> dict:
        return {
            "lane": self.lane,
            "width": self.width,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
        }


class LoadShedder:
    """SLO-aware priority shedding over a rolling latency window.

    ``observe`` feeds completed-request latencies; ``shed_class``
    answers which priority classes must currently be refused:

    * p99 at or under the threshold → shed nothing;
    * p99 over the threshold → shed ``low``;
    * p99 over twice the threshold → also shed ``normal``.  ``high``
      is never shed — that is the bounded p99 the campaign gates.
    """

    def __init__(
        self,
        *,
        p99_threshold_ms: "float | None" = None,
        window: int = 256,
        metrics=NULL_METRICS,
    ) -> None:
        if window < 8:
            raise GuardError(f"window must be >= 8, got {window}")
        self.p99_threshold_ms = p99_threshold_ms
        self.window = window
        self._metrics = metrics
        self._latencies_ms: list[float] = []
        self._cursor = 0
        #: Requests shed, keyed by priority class.
        self.shed_counts: dict[str, int] = {}

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
        self._metrics.incr("guard.shed.observed")

    def p99_ms(self) -> float:
        """Nearest-rank p99 of the current window (0 when empty)."""
        if not self._latencies_ms:
            return 0.0
        ordered = sorted(self._latencies_ms)
        rank = max(1, int(0.99 * len(ordered) + 0.9999))
        return ordered[min(rank, len(ordered)) - 1]

    def shed_class(self) -> "tuple[str, ...]":
        """Priority classes that must be refused right now."""
        if not self.enabled:
            return ()
        p99 = self.p99_ms()
        if p99 > 2 * self.p99_threshold_ms:
            return ("normal", "low")
        if p99 > self.p99_threshold_ms:
            return ("low",)
        return ()

    def should_shed(self, priority: str) -> bool:
        shed = priority in self.shed_class()
        if shed:
            self.shed_counts[priority] = (
                self.shed_counts.get(priority, 0) + 1
            )
            self._metrics.incr(f"guard.shed.{priority}")
        return shed

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "p99_threshold_ms": self.p99_threshold_ms,
            "window_p99_ms": self.p99_ms(),
            "window_fill": len(self._latencies_ms),
            "shed_counts": dict(sorted(self.shed_counts.items())),
        }
