"""Unit tests for the HealthTracker circuit-breaker state machine."""

import pytest

from repro.core.errors import PolicyError
from repro.core.health import BACKOFF_JITTER, BreakerState, HealthTracker
from repro.core.policy import GatewayPolicy
from repro.simnet.clock import VirtualClock

KEY = "jdbc:snmp://n0/system"


def make_tracker(clock=None, half_open_probes=1, **policy_kwargs):
    policy_kwargs.setdefault("breaker_failure_threshold", 3)
    policy_kwargs.setdefault("breaker_base_backoff", 10.0)
    policy_kwargs.setdefault("breaker_max_backoff", 80.0)
    clock = clock or VirtualClock()
    return clock, HealthTracker(
        clock, GatewayPolicy(**policy_kwargs), half_open_probes=half_open_probes
    )


def trip(clock, tracker, key=KEY, n=3):
    for _ in range(n):
        tracker.record_failure(key, "boom")


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        _, tracker = make_tracker()
        assert tracker.state(KEY) is BreakerState.CLOSED
        assert tracker.allow_request(KEY)

    def test_trips_open_at_threshold(self):
        clock, tracker = make_tracker()
        tracker.record_failure(KEY)
        tracker.record_failure(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED
        tracker.record_failure(KEY)
        assert tracker.state(KEY) is BreakerState.OPEN
        assert tracker.stats["trips"] == 1

    def test_success_resets_consecutive_count(self):
        _, tracker = make_tracker()
        tracker.record_failure(KEY)
        tracker.record_failure(KEY)
        tracker.record_success(KEY)
        tracker.record_failure(KEY)
        tracker.record_failure(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED

    def test_open_short_circuits(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        assert not tracker.allow_request(KEY)
        assert tracker.health(KEY).short_circuits == 1
        assert tracker.stats["short_circuits"] == 1

    def test_half_open_after_backoff(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        # The jittered wait is within [base, base * (1+J)], capped at max.
        clock.advance(10.0 * (1 + BACKOFF_JITTER))
        assert tracker.allow_request(KEY)
        assert tracker.state(KEY) is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        clock.advance(15.0)
        assert tracker.allow_request(KEY)
        tracker.record_success(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED
        assert tracker.stats["recoveries"] == 1
        # The backoff streak resets: the next trip starts at base again.
        trip(clock, tracker)
        assert tracker.health(KEY).current_backoff == 10.0

    def test_probe_failure_reopens_with_doubled_backoff(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        assert tracker.health(KEY).current_backoff == 10.0
        clock.advance(15.0)
        assert tracker.allow_request(KEY)  # HALF_OPEN probe window
        tracker.record_failure(KEY, "still dead")
        assert tracker.state(KEY) is BreakerState.OPEN
        assert tracker.health(KEY).current_backoff == 20.0
        assert tracker.health(KEY).trips == 2

    def test_backoff_capped_at_max(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        for _ in range(6):  # 10 -> 20 -> 40 -> 80 -> 80 ...
            clock.advance(80.0 * (1 + BACKOFF_JITTER))
            assert tracker.allow_request(KEY)
            tracker.record_failure(KEY)
        entry = tracker.health(KEY)
        assert entry.current_backoff == 80.0
        assert entry.open_until - entry.opened_at <= 80.0

    def test_jittered_wait_within_bounds(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        entry = tracker.health(KEY)
        wait = entry.open_until - entry.opened_at
        assert 10.0 <= wait <= 10.0 * (1 + BACKOFF_JITTER)

    def test_half_open_multi_probe_policy(self):
        clock, tracker = make_tracker(half_open_probes=2)
        trip(clock, tracker)
        clock.advance(15.0)
        assert tracker.allow_request(KEY)
        tracker.record_success(KEY)
        assert tracker.state(KEY) is BreakerState.HALF_OPEN  # 1 of 2
        assert tracker.allow_request(KEY)
        tracker.record_success(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED

    def test_disabled_policy_never_trips(self):
        clock, tracker = make_tracker(breaker_enabled=False)
        trip(clock, tracker, n=10)
        assert tracker.state(KEY) is BreakerState.CLOSED
        assert tracker.allow_request(KEY)
        assert not tracker.is_quarantined(KEY)
        # Totals still observed, for the scoreboard.
        assert tracker.health(KEY).total_failures == 10


class TestAdministration:
    def test_is_quarantined_only_while_open(self):
        clock, tracker = make_tracker()
        assert not tracker.is_quarantined(KEY)
        trip(clock, tracker)
        assert tracker.is_quarantined(KEY)
        clock.advance(15.0)
        tracker.allow_request(KEY)  # -> HALF_OPEN
        assert not tracker.is_quarantined(KEY)

    def test_reset_one_and_all(self):
        clock, tracker = make_tracker()
        trip(clock, tracker)
        trip(clock, tracker, key="other")
        tracker.reset(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED
        assert tracker.state("other") is BreakerState.OPEN
        tracker.reset()
        assert tracker.state("other") is BreakerState.CLOSED

    def test_scoreboard_and_summary(self):
        clock, tracker = make_tracker()
        tracker.record_success("alive")
        trip(clock, tracker)
        board = tracker.scoreboard()
        assert set(board) == {"alive", KEY}
        assert board[KEY]["state"] == "open"
        assert board["alive"]["total_successes"] == 1
        summary = tracker.summary()
        assert summary["sources"] == 2
        assert summary["open"] == 1 and summary["closed"] == 1
        assert summary["trips"] == 1

    def test_transition_callback_sequence(self):
        clock = VirtualClock()
        seen = []
        tracker = HealthTracker(
            clock,
            GatewayPolicy(breaker_failure_threshold=2, breaker_base_backoff=5.0),
            on_transition=lambda key, old, new, e: seen.append((key, old, new)),
        )
        tracker.record_failure(KEY)
        tracker.record_failure(KEY)
        clock.advance(10.0)
        tracker.allow_request(KEY)
        tracker.record_success(KEY)
        assert seen == [
            (KEY, BreakerState.CLOSED, BreakerState.OPEN),
            (KEY, BreakerState.OPEN, BreakerState.HALF_OPEN),
            (KEY, BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]


class TestPolicyValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(PolicyError):
            GatewayPolicy(breaker_failure_threshold=0)

    def test_base_backoff_must_be_positive(self):
        with pytest.raises(PolicyError):
            GatewayPolicy(breaker_base_backoff=0.0)

    def test_max_backoff_must_cover_base(self):
        with pytest.raises(PolicyError):
            GatewayPolicy(breaker_base_backoff=60.0, breaker_max_backoff=5.0)

    def test_half_open_probes_must_be_positive(self):
        with pytest.raises(PolicyError):
            make_tracker(half_open_probes=0)
