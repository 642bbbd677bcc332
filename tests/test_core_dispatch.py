"""Unit tests for the concurrent fan-out dispatcher."""

from __future__ import annotations

import pytest

from repro.core.dispatch import (
    _FLIGHT_SWEEP_THRESHOLD,
    MAX_CONCURRENT_PER_SOURCE,
    FanoutDispatcher,
)
from repro.core.errors import GridRmError
from repro.core.policy import GatewayPolicy
from repro.simnet.clock import VirtualClock


@pytest.fixture
def clock():
    return VirtualClock()


def dispatcher(clock, **policy_kwargs):
    return FanoutDispatcher(clock, GatewayPolicy(**policy_kwargs))


def work(clock, duration, value):
    def run():
        clock.advance(duration)
        return value

    return run


class TestRun:
    def test_outcomes_in_thunk_order(self, clock):
        d = dispatcher(clock)
        outcomes = d.run(
            [work(clock, 3.0, "a"), work(clock, 1.0, "b"), work(clock, 2.0, "c")]
        )
        assert [o.value for o in outcomes] == ["a", "b", "c"]
        assert [o.elapsed for o in outcomes] == [3.0, 1.0, 2.0]

    def test_elapsed_is_max_of_branches(self, clock):
        d = dispatcher(clock)
        d.run([work(clock, 3.0, None), work(clock, 5.0, None), work(clock, 1.0, None)])
        assert clock.now() == 5.0
        assert d.stats.fanouts == 1
        assert d.stats.branches == 3

    def test_serial_when_fanout_disabled(self, clock):
        d = dispatcher(clock, fanout_enabled=False)
        d.run([work(clock, 3.0, None), work(clock, 5.0, None)])
        assert clock.now() == 8.0
        assert d.stats.fanouts == 0
        assert d.stats.serial_runs == 1

    def test_single_thunk_runs_serially(self, clock):
        d = dispatcher(clock)
        outcomes = d.run([work(clock, 2.0, "only")])
        assert outcomes[0].value == "only"
        assert d.stats.fanouts == 0

    def test_empty_run(self, clock):
        assert dispatcher(clock).run([]) == []

    def test_branch_error_captured_not_raised(self, clock):
        d = dispatcher(clock)

        def boom():
            clock.advance(1.0)
            raise GridRmError("nope")

        outcomes = d.run([boom, work(clock, 2.0, "ok")])
        assert isinstance(outcomes[0].error, GridRmError)
        assert not outcomes[0].ok
        assert outcomes[1].value == "ok"
        assert clock.now() == 2.0  # the failing branch did not abort the scope

    def test_programming_error_propagates(self, clock):
        d = dispatcher(clock)
        with pytest.raises(TypeError):
            d.run([lambda: int("x", None), work(clock, 1.0, "never")])


class TestSingleFlight:
    def test_join_shares_in_flight_value(self, clock):
        d = dispatcher(clock)
        calls = []

        def fetch():
            calls.append(clock.now())
            clock.advance(2.0)
            return "rows"

        with clock.concurrent() as scope:
            with scope.branch():
                assert d.join_flight("src", "SELECT 1") is None
                d.run_flight("src", "SELECT 1", fetch)
            with scope.branch():
                flight = d.join_flight("src", "SELECT 1")
                assert flight is not None
                assert flight.value == "rows"
                # The joiner waited for the shared flight to land.
                assert clock.now() == flight.completed_at
        assert calls == [0.0]  # one real fetch
        assert d.stats.singleflight_joins == 1

    def test_join_shares_in_flight_failure(self, clock):
        d = dispatcher(clock)

        def fetch():
            clock.advance(1.0)
            raise GridRmError("agent down")

        with clock.concurrent() as scope:
            with scope.branch():
                with pytest.raises(GridRmError):
                    d.run_flight("src", "SELECT 1", fetch)
            with scope.branch():
                flight = d.join_flight("src", "SELECT 1")
                assert flight is not None
                assert isinstance(flight.error, GridRmError)

    def test_remembered_flights_stay_bounded(self, clock):
        """Each distinct (source, SQL) leaves a flight holding its answer;
        landed ones are swept once more than ``_FLIGHT_SWEEP_THRESHOLD``
        are remembered, so a gateway that keeps seeing new texts does not
        keep every answer it ever fetched."""
        d = dispatcher(clock)
        for i in range(3 * _FLIGHT_SWEEP_THRESHOLD):
            d.run_flight("src", f"SELECT {i}", work(clock, 0.01, [i]))
        assert len(d._flights) <= _FLIGHT_SWEEP_THRESHOLD + 1

    def test_landed_flight_not_joinable(self, clock):
        d = dispatcher(clock)
        d.run_flight("src", "SELECT 1", work(clock, 1.0, "rows"))
        # Serial caller: the flight completed in the past.
        assert d.join_flight("src", "SELECT 1") is None

    def test_normalised_sql_keys_match(self, clock):
        d = dispatcher(clock)
        with clock.concurrent() as scope:
            with scope.branch():
                d.run_flight("src", "SELECT * FROM Host", work(clock, 1.0, "rows"))
            with scope.branch():
                assert d.join_flight("src", "select  *  from Host;") is not None

    def test_different_sources_do_not_coalesce(self, clock):
        d = dispatcher(clock)
        with clock.concurrent() as scope:
            with scope.branch():
                d.run_flight("src-a", "SELECT 1", work(clock, 1.0, "rows"))
            with scope.branch():
                assert d.join_flight("src-b", "SELECT 1") is None

    def test_disabled_by_policy(self, clock):
        d = dispatcher(clock, singleflight_enabled=False)
        with clock.concurrent() as scope:
            with scope.branch():
                d.run_flight("src", "SELECT 1", work(clock, 1.0, "rows"))
            with scope.branch():
                assert d.join_flight("src", "SELECT 1") is None


class TestConcurrencyCap:
    def test_cap_queues_excess_requests(self, clock):
        """One branch past the shipped cap (4) waits for the first slot."""
        d = dispatcher(clock)
        starts = []

        def fetch(i):
            def run():
                starts.append(clock.now())
                clock.advance(4.0)
                return i

            return run

        with clock.concurrent() as scope:
            for i in range(MAX_CONCURRENT_PER_SOURCE + 1):
                with scope.branch():
                    # Distinct SQL per branch: no single-flight, so the
                    # fifth request must wait for a slot.
                    d.run_flight("src", f"SELECT {i}", fetch(i))
        assert starts == [0.0] * MAX_CONCURRENT_PER_SOURCE + [4.0]
        assert clock.now() == 8.0
        assert d.stats.cap_waits == 1
        assert d.stats.cap_wait_time == 4.0

    def test_unlimited_when_cap_zero(self, clock):
        """There is no unlimited cap any more ("0 = unlimited" went with
        the keyword): branches up to the shipped cap never wait."""
        d = dispatcher(clock)
        with clock.concurrent() as scope:
            for i in range(MAX_CONCURRENT_PER_SOURCE):
                with scope.branch():
                    d.run_flight("src", f"SELECT {i}", work(clock, 4.0, i))
        assert clock.now() == 4.0
        assert d.stats.cap_waits == 0

    def test_inflight_counts_live_requests(self, clock):
        d = dispatcher(clock)
        with clock.concurrent() as scope:
            with scope.branch():
                d.run_flight("src", "SELECT 1", work(clock, 5.0, None))
            with scope.branch():
                assert d.inflight("src") == 1
        # After the join everything has landed.
        assert d.inflight("src") == 0
