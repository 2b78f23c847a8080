"""The overload-protection state machines and the admission table.

No sleeping: the breaker takes an injectable ``clock`` so open →
half-open transitions are a variable assignment, the shedder is pure
arithmetic over its window, and :func:`decide` is a pure function
tested row by row.
"""

from __future__ import annotations

import pytest

from repro.errors import GuardError
from repro.guard import (
    PRIORITIES,
    CircuitBreaker,
    Decision,
    GuardPolicy,
    LoadShedder,
    Signals,
    decide,
    parse_priority,
)
from repro.observability import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


def make_breaker(clock, **kwargs) -> CircuitBreaker:
    defaults = dict(failure_threshold=3, recovery_s=5.0)
    defaults.update(kwargs)
    return CircuitBreaker("characterize", clock=clock, **defaults)


class TestCircuitBreaker:
    def test_opens_after_threshold(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == "closed"
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.transitions == {"closed-open": 1}

    def test_success_resets_the_failure_streak(self, clock) -> None:
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_recovery_window(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(4.9)
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.state == "half-open"
        assert breaker.transitions["open-half-open"] == 1

    def test_probe_budget_caps_half_open_traffic(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()  # the single probe
        assert not breaker.allow()
        assert breaker.state == "half-open"

    def test_released_probe_passes_to_the_next_caller(
        self, clock
    ) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()  # the probe, answered without a backend
        assert not breaker.allow()
        breaker.release()
        assert breaker.state == "half-open"
        assert breaker.allow()  # the next caller probes instead
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_release_after_an_outcome_is_a_no_op(self, clock) -> None:
        breaker = make_breaker(clock)
        breaker.release()  # closed: nothing to hand back
        assert breaker.state == "closed"
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed: open again
        breaker.release()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.transitions == {
            "closed-open": 1, "open-half-open": 1, "half-open-open": 1,
        }

    def test_probe_success_closes(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.transitions["half-open-closed"] == 1
        assert breaker.allow()

    def test_probe_failure_reopens(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.transitions["half-open-open"] == 1
        # a fresh recovery window starts from the re-open
        clock.advance(5.1)
        assert breaker.state == "half-open"

    def test_retry_after_tracks_the_window(self, clock) -> None:
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(5.0)
        clock.advance(3.0)
        assert breaker.retry_after_s() == pytest.approx(2.0)

    def test_transitions_land_in_metrics(self, clock) -> None:
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            "advise",
            failure_threshold=1,
            recovery_s=1.0,
            clock=clock,
            metrics=metrics,
        )
        breaker.record_failure()
        counters = metrics.snapshot()["counters"]
        assert counters[
            "guard.breaker.advise.transition.closed-open"
        ] == 1

    def test_snapshot_fields(self, clock) -> None:
        snapshot = make_breaker(clock).snapshot()
        assert set(snapshot) == {
            "route", "state", "consecutive_failures",
            "failure_threshold", "recovery_s", "transitions",
        }

    def test_validation(self, clock) -> None:
        with pytest.raises(GuardError):
            make_breaker(clock, failure_threshold=0)
        with pytest.raises(GuardError):
            make_breaker(clock, recovery_s=0.0)


def shed_decision(shedder: LoadShedder, priority: str) -> Decision:
    """What :func:`decide` makes of ``priority`` against the window."""
    return decide(
        Signals(
            priority=priority,
            shed_p99_ms=shedder.p99_threshold_ms,
            p99_ms=shedder.p99_ms(),
        )
    )


SHED = {
    "low": Decision(refuse="shed-low"),
    "normal": Decision(refuse="shed-normal"),
}
COMPUTE = Decision(admit="compute")


class TestLoadShedder:
    def test_disabled_sheds_nothing(self) -> None:
        shedder = LoadShedder()
        assert not shedder.enabled
        for _ in range(16):
            shedder.observe(10.0)
        for priority in PRIORITIES:
            assert shed_decision(shedder, priority) == COMPUTE

    def test_p99_over_threshold_sheds_low_only(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0)
        for _ in range(16):
            shedder.observe(0.150)  # 150ms: over, not 2x over
        assert shed_decision(shedder, "low") == SHED["low"]
        assert shed_decision(shedder, "normal") == COMPUTE
        assert shed_decision(shedder, "high") == COMPUTE

    def test_severe_p99_sheds_normal_too(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0)
        for _ in range(16):
            shedder.observe(0.500)
        assert shed_decision(shedder, "low") == SHED["low"]
        assert shed_decision(shedder, "normal") == SHED["normal"]
        assert shed_decision(shedder, "high") == COMPUTE

    def test_window_rolls(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0, window=8)
        for _ in range(8):
            shedder.observe(1.0)
        for _ in range(8):
            shedder.observe(0.001)
        assert shedder.p99_ms() < 100.0
        assert shed_decision(shedder, "low") == COMPUTE

    def test_snapshot_fields(self) -> None:
        snapshot = LoadShedder(p99_threshold_ms=5.0).snapshot()
        assert set(snapshot) == {
            "enabled", "p99_threshold_ms", "window_p99_ms",
            "window_fill",
        }

    def test_tiny_window_rejected(self) -> None:
        with pytest.raises(GuardError):
            LoadShedder(window=4)


#: Signals of a server shedding ``low`` (p99 over the threshold, not
#: twice over it) — the shed rows' base.
SHEDDING = dict(shed_p99_ms=100.0, p99_ms=150.0)
#: Admitted compute leaders at the cap (``max_inflight + queue_limit``).
FULL = dict(admitted=3, capacity=3)

#: One row per rule, then the precedence rows: (id, signals, decision).
DECIDE_TABLE = [
    ("idle-computes", {}, Decision(admit="compute")),
    ("draining", {"draining": True}, Decision(refuse="draining")),
    ("shed-low", {**SHEDDING, "priority": "low"},
     Decision(refuse="shed-low")),
    ("shed-line-normal-spared", {**SHEDDING, "priority": "normal"},
     Decision(admit="compute")),
    ("shed-normal-over-2x",
     {"shed_p99_ms": 100.0, "p99_ms": 201.0, "priority": "normal"},
     Decision(refuse="shed-normal")),
    ("shed-never-high",
     {"shed_p99_ms": 100.0, "p99_ms": 1e9, "priority": "high"},
     Decision(admit="compute")),
    ("shed-at-threshold-admits",
     {"shed_p99_ms": 100.0, "p99_ms": 100.0, "priority": "low"},
     Decision(admit="compute")),
    ("shedding-off-ignores-p99", {"p99_ms": 1e9, "priority": "low"},
     Decision(admit="compute")),
    ("cache-hit", {"cached": True}, Decision(admit="cache")),
    ("breaker-open", {"breaker": "open"}, Decision(refuse="breaker")),
    ("coalesce", {"in_flight": True}, Decision(admit="coalesce")),
    ("queue-full", FULL, Decision(refuse="queue-full")),
    ("under-capacity", {"admitted": 2, "capacity": 3},
     Decision(admit="compute")),
    # half-open: one probe, then refusals until it reports
    ("half-open-free-probe", {"breaker": "half-open"},
     Decision(admit="compute", probe=True)),
    ("half-open-probe-taken",
     {"breaker": "half-open", "probe_taken": True},
     Decision(refuse="breaker")),
    ("half-open-probe-coalesces",
     {"breaker": "half-open", "in_flight": True},
     Decision(admit="coalesce", probe=True)),
    # precedence
    ("draining-beats-cache-hit", {"draining": True, "cached": True},
     Decision(refuse="draining")),
    ("draining-beats-shed",
     {**SHEDDING, "priority": "low", "draining": True},
     Decision(refuse="draining")),
    ("shed-beats-cache-hit",
     {**SHEDDING, "priority": "low", "cached": True},
     Decision(refuse="shed-low")),
    ("cache-hit-beats-open-breaker", {"cached": True, "breaker": "open"},
     Decision(admit="cache")),
    ("cache-hit-beats-taken-probe",
     {"cached": True, "breaker": "half-open", "probe_taken": True},
     Decision(admit="cache")),
    ("cache-hit-beats-full-queue", {**FULL, "cached": True},
     Decision(admit="cache")),
    ("breaker-beats-coalesce", {"breaker": "open", "in_flight": True},
     Decision(refuse="breaker")),
    ("breaker-beats-queue-full", {**FULL, "breaker": "open"},
     Decision(refuse="breaker")),
    ("coalesce-never-queue-full", {**FULL, "in_flight": True},
     Decision(admit="coalesce")),
    ("coalesce-never-queue-full-over-cap",
     {"admitted": 9, "capacity": 3, "in_flight": True},
     Decision(admit="coalesce")),
    ("full-queue-keeps-the-free-probe", {**FULL, "breaker": "half-open"},
     Decision(refuse="queue-full")),
]


class TestDecide:
    @pytest.mark.parametrize(
        ("signals", "expected"),
        [(signals, expected) for _, signals, expected in DECIDE_TABLE],
        ids=[row_id for row_id, _, _ in DECIDE_TABLE],
    )
    def test_table(self, signals, expected) -> None:
        assert decide(Signals(**signals)) == expected

    def test_every_outcome_has_a_row(self) -> None:
        outcomes = {
            expected.admit or expected.refuse
            for _, _, expected in DECIDE_TABLE
        }
        assert outcomes == {
            "cache", "coalesce", "compute", "draining", "shed-low",
            "shed-normal", "breaker", "queue-full",
        }


class TestPriorities:
    def test_order_highest_first(self) -> None:
        assert PRIORITIES == ("high", "normal", "low")

    @pytest.mark.parametrize(
        ("header", "expected"),
        [
            (None, "normal"),
            ("", "normal"),
            ("high", "high"),
            ("  HIGH ", "high"),
            ("normal", "normal"),
            ("low", "low"),
            ("urgent", "low"),  # no priority by misspelling
            ("root", "low"),
        ],
    )
    def test_parse_priority(self, header, expected) -> None:
        assert parse_priority(header) == expected


class TestGuardPolicy:
    def test_defaults_are_valid(self) -> None:
        policy = GuardPolicy()
        assert policy.breaker_threshold == 5
        assert policy.shed_p99_ms is None
        assert set(vars(policy)) == {
            "breaker_threshold", "breaker_recovery_s", "shed_p99_ms",
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"breaker_threshold": 0},
            {"breaker_recovery_s": 0.0},
            {"shed_p99_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs) -> None:
        with pytest.raises(GuardError):
            GuardPolicy(**kwargs)
