"""Unit tests for the HealthTracker circuit-breaker state machine."""

import pytest

from repro.core import dispatch
from repro.core.errors import PolicyError
from repro.core.health import BACKOFF_JITTER, FAILURE_THRESHOLD, BreakerState, HealthTracker
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import TimeoutError_
from repro.testbed import build_testbed

KEY = "jdbc:snmp://n0/system"
#: A query each Ganglia fetch answers (or fails) in full.
GANGLIA_SQL = "SELECT HostName FROM Processor"


def garbled_ganglia(**policy_kwargs):
    """One Ganglia source whose gmond serves half a dump from now on:
    every fetch connects (gmond answers the probe) and then fails."""
    policy_kwargs.setdefault("breaker_base_backoff", 10.0)
    policy_kwargs.setdefault("breaker_max_backoff", 80.0)
    network, (site,) = build_testbed(
        n_hosts=1, agents=("ganglia",), seed=3, policy=GatewayPolicy(**policy_kwargs)
    )
    agent = site.agents["ganglia"][0]
    honest = agent.render_xml
    agent.render_xml = lambda: honest()[: len(honest()) // 2]
    (url,) = site.source_urls
    return network, site.gateway, url


def realtime(network, gateway, url):
    network.clock.advance(20.0)  # past the query cache and the dump cache
    (status,) = gateway.query(url, GANGLIA_SQL, mode=QueryMode.REALTIME).statuses
    return status


def make_tracker(clock=None, **policy_kwargs):
    policy_kwargs.setdefault("breaker_base_backoff", 10.0)
    policy_kwargs.setdefault("breaker_max_backoff", 80.0)
    clock = clock or VirtualClock()
    return clock, HealthTracker(clock, GatewayPolicy(**policy_kwargs))


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
        """There is one probe policy now: the first half-open success
        closes the breaker (no success count is kept)."""
        clock, tracker = make_tracker()
        trip(clock, tracker)
        clock.advance(15.0)
        assert tracker.allow_request(KEY)
        assert tracker.state(KEY) is BreakerState.HALF_OPEN
        tracker.record_success(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED

    def test_disabled_policy_never_trips(self):
        clock, tracker = make_tracker(breaker_enabled=False)
        trip(clock, tracker, n=10)
        assert tracker.state(KEY) is BreakerState.CLOSED
        assert tracker.allow_request(KEY)
        # Totals still observed, for the scoreboard.
        assert tracker.health(KEY).total_failures == 10


class TestPinnedOutcomes:
    """What virtually-simultaneous branches record is applied when the
    outermost concurrent scope joins, as one unordered set: failures
    before successes, whatever order the branches ran in.  The class kept
    its name from the pin it tested; the tracker now isolates every
    branch itself (DESIGN §11, branch isolation).  Inside an operation
    only failures are recorded (a connect is no health observation), its
    answer after; the tests that drove a connect success into an
    operation now drive a gateway whose fetches connect and then read
    garbage."""

    @staticmethod
    def run(clock, tracker, outcomes):
        """One branch per outcome of one scope: ``"s"`` records a
        success, ``"f"`` a failure, ``""`` nothing."""
        with clock.concurrent() as scope:
            for kind in outcomes:
                with scope.branch():
                    if kind == "s":
                        tracker.record_success(KEY)
                    elif kind == "f":
                        tracker.record_failure(KEY, "bad reply")

    def test_a_stage_success_does_not_reset_a_later_stage_failure(self):
        """A fetch that connects and then reads half a dump counts one
        failure and no success, so it does not reset an earlier streak:
        the connect success that used to enter the pin is gone."""
        network, gateway, url = garbled_ganglia()
        gateway.health.record_failure(url, "earlier")
        assert realtime(network, gateway, url).cause is Cause.ERROR
        entry = gateway.health.health(url).as_dict()
        assert entry["consecutive_failures"] == 2
        assert (entry["total_failures"], entry["total_successes"]) == (2, 0)

    def test_connect_then_garbage_trips_at_threshold(self):
        """Through ``Gateway.query``: ``FAILURE_THRESHOLD`` fetches that
        connect and then fail open the breaker, one failure each."""
        network, gateway, url = garbled_ganglia()
        for _ in range(FAILURE_THRESHOLD - 1):
            assert realtime(network, gateway, url).cause is Cause.ERROR
        assert gateway.health.state(url) is BreakerState.CLOSED
        assert realtime(network, gateway, url).cause is Cause.ERROR
        assert gateway.health.state(url) is BreakerState.OPEN
        assert gateway.health.health(url).total_failures == FAILURE_THRESHOLD

    def test_an_operation_without_failures_applies_its_successes(self):
        """Two branches' successes land at the join, both of them.
        (Re-aimed from one pinned operation: the tracker holds what
        branches record without a pin.)"""
        clock, tracker = make_tracker()
        tracker.record_failure(KEY, "earlier")
        self.run(clock, tracker, "ss")
        entry = tracker.health(KEY)
        assert entry.consecutive_failures == 0 and entry.total_successes == 2

    def test_a_batch_pin_keeps_each_answer_beside_its_failed_attempt(self):
        """A batch member's attempt fails inside its own fan-out, the
        retry answers: both settle at the batch's join, the failure
        first, so three such rounds leave the breaker CLOSED.  (Was the
        batch's pin; now the nested scope defers to the outermost join.)"""
        clock, tracker = make_tracker()
        for joined in range(3):
            with clock.concurrent() as batch:
                with batch.branch():
                    self.run(clock, tracker, "f")
                    assert tracker.health(KEY).total_failures == joined  # held
                    tracker.record_success(KEY)
        entry = tracker.health(KEY)
        assert entry.state is BreakerState.CLOSED
        assert entry.consecutive_failures == 0
        assert (entry.total_failures, entry.total_successes) == (3, 3)

    def test_one_failed_member_discards_no_other_members_success(self):
        """One member's fetch fails, another's answers, a third records
        nothing: both outcomes are applied when the batch joins, the
        failure first, in either launch order.  (Re-aimed from the
        batch's pin: members are plain branches of one scope now.)"""
        for members in ("f s", "s f"):
            clock, tracker = make_tracker()
            self.run(clock, tracker, members.split(" ") + [""])
            entry = tracker.health(KEY)
            assert entry.consecutive_failures == 0, members
            assert (entry.total_failures, entry.total_successes) == (1, 1), members

    def test_a_half_open_probe_that_connects_and_then_fails_reopens(self):
        """Through ``Gateway.query``: the HALF_OPEN probe connects, reads
        half a dump and re-opens the breaker with a doubled backoff."""
        network, gateway, url = garbled_ganglia()
        for _ in range(FAILURE_THRESHOLD):
            realtime(network, gateway, url)
        assert gateway.health.state(url) is BreakerState.OPEN
        network.clock.advance(100.0)  # past the (jitter-capped) backoff
        assert realtime(network, gateway, url).cause is Cause.ERROR
        entry = gateway.health.health(url)
        assert entry.state is BreakerState.OPEN
        assert entry.trips == 2 and entry.current_backoff == 20.0

    def test_a_losing_hedge_sibling_records_its_own_failure(self):
        """Hedge siblings each record their own failure: a losing attempt
        that connects and then reads half a dump counts one failure, as a
        losing attempt whose connect times out does.  In both races the
        query is FRESH and its one success lands after the failure."""
        for losing, sabotaged in (("reply", "dump"), ("connect", "probe")):
            cause, before, after, seen, hedges = lose_a_hedge(losing)
            assert cause is Cause.FRESH and seen == [sabotaged] and hedges == 1, losing
            assert after["total_failures"] == before["total_failures"] + 1, losing
            assert after["total_successes"] == before["total_successes"] + 1, losing
            assert after["consecutive_failures"] == 0, losing


def lose_a_hedge(losing):
    """One REALTIME query to a Ganglia source whose hedge timer is armed
    (``HEDGE_MIN_SAMPLES`` answered fetches).  The primary's first request
    is slow, so the hedge fires and answers, and then fails: ``"reply"``
    cuts its dump in half (it reused the pooled connection),
    ``"connect"`` times its connect probe out (the pool was emptied).
    Returns the cause, the source's health before and after, what the
    sabotaged request asked and the hedges fired."""
    network, (site,) = build_testbed(n_hosts=1, agents=("ganglia",), seed=3)
    gateway, (url,) = site.gateway, site.source_urls
    agent = site.agents["ganglia"][0]
    for _ in range(dispatch.HEDGE_MIN_SAMPLES):
        assert realtime(network, gateway, url).cause is Cause.FRESH
    if losing == "connect":
        gateway.connection_manager.quarantine(url)
    honest, seen = network.request, []

    def request(src, dst, payload, **kw):
        reply = honest(src, dst, payload, **kw)
        if dst != agent.address or seen:
            return reply
        seen.append(payload)
        network.clock.advance(1.0)
        if payload == "probe":
            raise TimeoutError_(f"probe to {dst} timed out")
        return reply[: len(reply) // 2]

    network.request = request
    before = gateway.health.health(url).as_dict()
    hedges = gateway.dispatcher.stats["hedges_fired"]
    cause = realtime(network, gateway, url).cause
    hedges = gateway.dispatcher.stats["hedges_fired"] - hedges
    return cause, before, gateway.health.health(url).as_dict(), seen, hedges


def test_one_fetch_counts_one_success():
    """N REALTIME queries to one source, the first on a new connection
    and the rest on the pooled one, count N successes: a connect is not
    a second observation of the same fetch."""
    network, (site,) = build_testbed(n_hosts=1, agents=("snmp",), seed=3)
    gateway, url = site.gateway, site.source_urls[0]
    for n in range(1, 4):
        network.clock.advance(20.0)
        (status,) = gateway.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME).statuses
        assert status.cause is Cause.FRESH
        assert gateway.health.health(url).total_successes == n
    pool = gateway.connection_manager.stats
    assert (pool["created"], pool["reused"]) == (1, 2)


class TestBranchIsolation:
    """The tracker's one rule: an outcome recorded inside a concurrent
    branch settles when the outermost scope joins; outside any scope it
    applies at once.  No caller pins anything."""

    def test_an_inner_join_defers_to_the_outermost(self):
        clock, tracker = make_tracker()
        with clock.concurrent() as outer:
            with outer.branch():
                with clock.concurrent() as inner:
                    with inner.branch():
                        trip(clock, tracker)
                assert tracker.state(KEY) is BreakerState.CLOSED
                assert tracker.allow_request(KEY)
        assert tracker.state(KEY) is BreakerState.OPEN
        assert tracker.health(KEY).total_failures == 3

    def test_settled_state_does_not_depend_on_launch_order(self):
        """Two keys, differing failure texts and a success per branch:
        both launch orders leave equal scoreboards and transitions."""

        def settle(branches):
            clock = VirtualClock()
            seen = []
            tracker = HealthTracker(
                clock, GatewayPolicy(),
                on_transition=lambda key, old, new, _: seen.append((key, new.value)),
            )
            with clock.concurrent() as scope:
                for key, errors in branches:
                    with scope.branch():
                        for error in errors:
                            tracker.record_failure(key, error)
                        tracker.record_success("jdbc:snmp://other/system")
            return tracker.scoreboard(), seen

        branches = [(KEY, ["timeout", "refused"]), (KEY, ["bad reply"]), ("jdbc:a://x", ["t"])]
        assert settle(branches) == settle(branches[::-1])
        scoreboard, seen = settle(branches)
        assert scoreboard[KEY]["state"] == "open" and scoreboard[KEY]["last_error"] == "timeout"
        assert seen == [(KEY, "open")]

    def test_a_later_probe_does_not_admit_an_earlier_sibling(self):
        """A sibling that reaches the breaker after its backoff elapsed
        probes; one still before it is refused, in either order."""
        for later_first in (True, False):
            clock, tracker = make_tracker()
            trip(clock, tracker)
            until = tracker.health(KEY).open_until
            decisions = {}
            with clock.concurrent() as scope:
                for which in ("later", "earlier") if later_first else ("earlier", "later"):
                    with scope.branch():
                        if which == "later":
                            clock.advance_to(until + 1.0)
                        decisions[which] = tracker.allow_request(KEY)
            assert decisions == {"later": True, "earlier": False}, later_first


class TestAdministration:
    def test_is_quarantined_only_while_open(self):
        """The pool is drained when the breaker trips OPEN (the
        ``Gateway._on_breaker_transition`` purge), and only then: nothing
        reads a quarantine flag any more.  The HALF_OPEN probe opens a
        new connection, which is pooled again once the breaker closes."""
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=3,
            policy=GatewayPolicy(breaker_base_backoff=10.0, breaker_max_backoff=80.0),
        )
        gateway, url = site.gateway, site.source_urls[0]
        pool = gateway.connection_manager
        gateway.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        assert pool.idle_count(url) == 1 and pool.stats["quarantined"] == 0
        trip(network.clock, gateway.health, key=url)
        assert pool.idle_count(url) == 0 and pool.stats["quarantined"] == 1
        network.clock.advance(15.0)
        assert gateway.health.allow_request(url)  # -> HALF_OPEN: no purge
        assert pool.stats["quarantined"] == 1
        (status,) = gateway.query(
            url, "SELECT * FROM Processor", mode=QueryMode.REALTIME
        ).statuses
        assert status.cause is Cause.FRESH
        assert gateway.health.state(url) is BreakerState.CLOSED
        assert pool.idle_count(url) == 1 and pool.stats["created"] == 2

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
        """Trips at ``FAILURE_THRESHOLD`` (3) failures; this test set a
        threshold of 2 before the threshold became a constant."""
        clock = VirtualClock()
        seen = []
        tracker = HealthTracker(
            clock,
            GatewayPolicy(breaker_base_backoff=5.0),
            on_transition=lambda key, old, new, e: seen.append((key, old, new)),
        )
        for _ in range(FAILURE_THRESHOLD):
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
        """The threshold is ``health.FAILURE_THRESHOLD``, not a policy
        field (its one shipped setter passed the default): the policy
        refuses the keyword, and the constant meets the field's bound."""
        with pytest.raises(TypeError):
            GatewayPolicy(breaker_failure_threshold=0)
        assert FAILURE_THRESHOLD >= 1

    def test_base_backoff_must_be_positive(self):
        with pytest.raises(PolicyError):
            GatewayPolicy(breaker_base_backoff=0.0)

    def test_max_backoff_must_cover_base(self):
        with pytest.raises(PolicyError):
            GatewayPolicy(breaker_base_backoff=60.0, breaker_max_backoff=5.0)

    def test_half_open_probes_must_be_positive(self):
        """The probe count is no longer a keyword to refuse; its bound (at
        least one probe) is what every half-open period now asks: a
        failed probe re-opens, and after the next backoff one success
        still closes the breaker."""
        clock, tracker = make_tracker()
        trip(clock, tracker)
        clock.advance(15.0)
        assert tracker.allow_request(KEY)
        tracker.record_failure(KEY, "probe failed")
        assert tracker.state(KEY) is BreakerState.OPEN
        clock.advance(30.0)
        assert tracker.allow_request(KEY)
        tracker.record_success(KEY)
        assert tracker.state(KEY) is BreakerState.CLOSED
