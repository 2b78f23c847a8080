"""The overload-protection state machines, driven by a fake clock.

No sleeping: the breaker takes an injectable ``clock`` so open →
half-open transitions are a variable assignment, and the shedder is
pure arithmetic over its window.
"""

from __future__ import annotations

import pytest

from repro.errors import GuardError
from repro.guard import (
    PRIORITIES,
    BulkheadStats,
    CircuitBreaker,
    GuardPolicy,
    LoadShedder,
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


class TestLoadShedder:
    def test_disabled_sheds_nothing(self) -> None:
        shedder = LoadShedder()
        assert not shedder.enabled
        assert shedder.shed_class() == ()

    def test_p99_over_threshold_sheds_low_only(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0)
        for _ in range(16):
            shedder.observe(0.150)  # 150ms: over, not 2x over
        assert shedder.shed_class() == ("low",)
        assert shedder.should_shed("low")
        assert not shedder.should_shed("normal")
        assert not shedder.should_shed("high")

    def test_severe_p99_sheds_normal_too(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0)
        for _ in range(16):
            shedder.observe(0.500)
        assert shedder.shed_class() == ("normal", "low")
        assert not shedder.should_shed("high")

    def test_window_rolls(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0, window=8)
        for _ in range(8):
            shedder.observe(1.0)
        for _ in range(8):
            shedder.observe(0.001)
        assert shedder.p99_ms() < 100.0
        assert shedder.shed_class() == ()

    def test_shed_counts_by_priority(self) -> None:
        shedder = LoadShedder(p99_threshold_ms=100.0)
        for _ in range(16):
            shedder.observe(0.150)  # over, not 2x over: low only
        shedder.should_shed("low")
        shedder.should_shed("low")
        shedder.should_shed("normal")
        assert shedder.shed_counts == {"low": 2}
        assert shedder.snapshot()["shed_counts"] == {"low": 2}

    def test_snapshot_fields(self) -> None:
        snapshot = LoadShedder(p99_threshold_ms=5.0).snapshot()
        assert set(snapshot) == {
            "enabled", "p99_threshold_ms", "window_p99_ms",
            "window_fill", "shed_counts",
        }

    def test_tiny_window_rejected(self) -> None:
        with pytest.raises(GuardError):
            LoadShedder(window=4)


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


class TestBulkheadStats:
    def test_snapshot(self) -> None:
        stats = BulkheadStats("compute", 4)
        stats.submitted += 2
        stats.completed += 1
        stats.rejected += 1
        assert stats.snapshot() == {
            "lane": "compute",
            "width": 4,
            "submitted": 2,
            "completed": 1,
            "rejected": 1,
        }
