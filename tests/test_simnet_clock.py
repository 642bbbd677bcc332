"""Unit tests for the virtual clock."""

import pytest

from repro.simnet.clock import VirtualClock


class TestBasics:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=100.0).now() == 100.0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(1.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_backwards_rejected(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_zero_is_noop(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now() == 0.0


class TestScheduling:
    def test_call_later_fires_on_advance(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(5.0, lambda: fired.append(clock.now()))
        clock.advance(4.9)
        assert fired == []
        clock.advance(0.2)
        assert fired == [5.0]

    def test_callback_sees_due_time_not_target(self):
        clock = VirtualClock()
        seen = []
        clock.call_later(1.0, lambda: seen.append(clock.now()))
        clock.advance(10.0)
        assert seen == [1.0]
        assert clock.now() == 10.0

    def test_call_at_past_rejected(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.call_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().call_later(-1.0, lambda: None)

    def test_same_instant_fires_in_registration_order(self):
        clock = VirtualClock()
        order = []
        clock.call_later(1.0, lambda: order.append("a"))
        clock.call_later(1.0, lambda: order.append("b"))
        clock.advance(1.0)
        assert order == ["a", "b"]

    def test_cancel_prevents_firing(self):
        clock = VirtualClock()
        fired = []
        handle = clock.call_later(1.0, lambda: fired.append(1))
        handle.cancel()
        clock.advance(2.0)
        assert fired == []

    def test_callbacks_fire_in_time_order(self):
        clock = VirtualClock()
        order = []
        clock.call_later(3.0, lambda: order.append(3))
        clock.call_later(1.0, lambda: order.append(1))
        clock.call_later(2.0, lambda: order.append(2))
        clock.advance(5.0)
        assert order == [1, 2, 3]

    def test_callback_may_schedule_callback(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(1.0, lambda: clock.call_later(1.0, lambda: fired.append(clock.now())))
        clock.advance(3.0)
        assert fired == [2.0]


class TestPeriodic:
    def test_call_every_fires_repeatedly(self):
        clock = VirtualClock()
        times = []
        clock.call_every(10.0, lambda: times.append(clock.now()))
        clock.advance(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_first_in_controls_initial_delay(self):
        clock = VirtualClock()
        times = []
        clock.call_every(10.0, lambda: times.append(clock.now()), first_in=0.0)
        clock.advance(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_cancel_stops_periodic(self):
        clock = VirtualClock()
        times = []
        handle = clock.call_every(1.0, lambda: times.append(clock.now()))
        clock.advance(2.5)
        handle.cancel()
        clock.advance(5.0)
        assert times == [1.0, 2.0]

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().call_every(0.0, lambda: None)

    def test_pending_counts_live_calls(self):
        clock = VirtualClock()
        h1 = clock.call_later(1.0, lambda: None)
        clock.call_later(2.0, lambda: None)
        assert clock.pending() == 2
        h1.cancel()
        assert clock.pending() == 1


class TestConcurrentScope:
    def test_join_advances_to_max_not_sum(self):
        clock = VirtualClock()
        with clock.concurrent() as scope:
            with scope.branch():
                clock.advance(3.0)
            with scope.branch():
                clock.advance(5.0)
            with scope.branch():
                clock.advance(1.0)
        assert clock.now() == 5.0
        assert scope.elapsed == 5.0

    def test_branches_all_start_at_scope_open(self):
        clock = VirtualClock()
        clock.advance(10.0)
        starts = []
        with clock.concurrent() as scope:
            with scope.branch():
                starts.append(clock.now())
                clock.advance(2.0)
            with scope.branch():
                starts.append(clock.now())
        assert starts == [10.0, 10.0]
        assert clock.now() == 12.0

    def test_empty_scope_is_a_no_op(self):
        clock = VirtualClock()
        clock.advance(1.0)
        with clock.concurrent():
            pass
        assert clock.now() == 1.0

    def test_callbacks_deferred_to_join_and_fire_once(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(1.0, lambda: fired.append(clock.now()))
        with clock.concurrent() as scope:
            with scope.branch():
                clock.advance(4.0)     # sweeps past the due time
                assert fired == []     # ...but deferred
            with scope.branch():
                clock.advance(2.0)     # would sweep past it again
        # Exactly once, during the join sweep, at its due time.
        assert fired == [1.0]

    def test_nested_scopes_defer_to_outermost_join(self):
        clock = VirtualClock()
        with clock.concurrent() as outer:
            with outer.branch():
                with clock.concurrent() as inner:
                    with inner.branch():
                        clock.advance(2.0)
                    with inner.branch():
                        clock.advance(6.0)
                # inner join happened on a private timeline
                clock.advance(1.0)
            with outer.branch():
                clock.advance(3.0)
        assert clock.now() == 7.0      # max(2,6) + 1 vs 3

    def test_join_hooks_run_once_after_the_outermost_join(self):
        """A hook registered in a nested branch waits for the outermost
        join, runs after the deferred callbacks fired, and runs once."""
        clock = VirtualClock()
        seen = []
        clock.call_later(1.0, lambda: seen.append(("callback", clock.now())))
        with clock.concurrent() as outer:
            with outer.branch():
                with clock.concurrent() as inner:
                    with inner.branch():
                        clock.at_outermost_join(lambda: seen.append(("hook", clock.now())))
                        clock.advance(2.0)
                assert seen == []
        assert seen == [("callback", 1.0), ("hook", 2.0)]
        with clock.concurrent():
            pass
        assert len(seen) == 2

    def test_join_at_an_instant_before_the_slowest_branch(self):
        """A hedged caller stops waiting at the winner's instant."""
        clock = VirtualClock()
        scope = clock.concurrent()
        with scope.branch():
            clock.advance(5.0)
        with scope.branch():
            clock.advance(2.0)
        scope.join(at=2.0)
        assert clock.now() == 2.0

    def test_branch_after_join_rejected(self):
        clock = VirtualClock()
        scope = clock.concurrent()
        scope.join()
        with pytest.raises(RuntimeError):
            with scope.branch():
                pass

    def test_join_is_idempotent(self):
        clock = VirtualClock()
        with clock.concurrent() as scope:
            with scope.branch():
                clock.advance(2.0)
        scope.join()
        assert clock.now() == 2.0

    def test_in_concurrent_branch_flag(self):
        clock = VirtualClock()
        assert not clock.in_concurrent_branch
        with clock.concurrent() as scope:
            with scope.branch():
                assert clock.in_concurrent_branch
            assert not clock.in_concurrent_branch

    def test_reentrant_callback_advancing_clock(self):
        # A scheduled callback that itself advances the clock (nested
        # blocking RPC work) must not move time backwards afterwards.
        clock = VirtualClock()
        seen = []
        def nested():
            clock.advance(5.0)
            seen.append(clock.now())
        clock.call_later(1.0, nested)
        clock.advance(2.0)
        assert seen == [6.0]
        assert clock.now() == 6.0
