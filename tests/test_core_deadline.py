"""End-to-end deadlines, retry budgets and hedged requests.

Unit tests for :mod:`repro.core.deadline` / :mod:`repro.core.retry` and
the dispatcher's hedging path, plus integration tests driving them
through a live testbed gateway.
"""

import dataclasses
import functools
import random

import pytest

from repro.core.deadline import Deadline
from repro.core.dispatch import FanoutDispatcher
from repro.core.errors import DeadlineExceededError, GridRmError, PolicyError
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.core.retry import RetryBudget, RetryPolicy
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Address, Network
from repro.testbed import build_testbed

SQL = "SELECT HostName FROM Host"


def make_site(policy=None, *, n_hosts=2, agents=("snmp",), seed=3):
    network, (site,) = build_testbed(
        n_hosts=n_hosts, agents=agents, seed=seed, policy=policy
    )
    network.clock.advance(5.0)
    return site


class TestDeadline:
    def test_after_requires_positive_budget(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            Deadline.after(clock, 0.0)
        with pytest.raises(ValueError):
            Deadline.after(clock, -1.0)

    def test_remaining_counts_down_never_negative(self):
        clock = VirtualClock()
        d = Deadline.after(clock, 2.0)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        clock.advance(5.0)
        assert d.remaining() == 0.0
        assert d.expired()

    def test_check_raises_with_context(self):
        clock = VirtualClock()
        d = Deadline.after(clock, 1.0)
        d.check("step one")  # fine
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as exc:
            d.check("step two")
        assert "step two" in str(exc.value)

    def test_clamp_bounds_hop_timeout_by_remaining_budget(self):
        clock = VirtualClock()
        d = Deadline.after(clock, 1.0)
        assert d.clamp(5.0) == pytest.approx(1.0)
        assert d.clamp(0.2) == pytest.approx(0.2)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            d.clamp(5.0)

    def test_deadline_exceeded_is_gridrm_error(self):
        assert issubclass(DeadlineExceededError, GridRmError)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(attempts=5, base_backoff=0.1, max_backoff=0.4)
        rng = random.Random(0)
        waits = [policy.backoff(a, rng) for a in (1, 2, 3, 4)]
        # Jitter only inflates, never shrinks; the cap always holds.
        assert waits[0] >= 0.1
        assert waits[1] >= 0.2
        assert all(w <= 0.4 for w in waits)
        assert waits[3] == 0.4  # 0.8 raw, capped

    def test_from_gateway_policy_maps_knobs(self):
        """The request manager takes ``attempts`` from the gateway policy;
        budget and backoffs are ``RetryPolicy``'s own defaults (no shipped
        caller varies them), replaceable on the manager."""
        site = make_site(GatewayPolicy(retry_attempts=3))
        assert site.gateway.request_manager.retry == RetryPolicy(
            attempts=3, budget=3, base_backoff=0.05, max_backoff=2.0
        )


class TestRetryBudget:
    def test_take_spends_then_denies(self):
        budget = RetryBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        assert not budget.take()
        assert budget.spent == 2
        assert budget.denied == 2

    def test_zero_tokens_always_denied(self):
        budget = RetryBudget(0)
        assert not budget.take()
        assert budget.denied == 1


class TestPolicyValidation:
    dispatcher = functools.partial(FanoutDispatcher, VirtualClock(), GatewayPolicy())

    @pytest.mark.parametrize(
        "kwargs",
        [
            (GatewayPolicy, {"default_deadline": -1.0}),
            (GatewayPolicy, {"retry_attempts": 0}),
            (RetryPolicy, {"budget": -1}),
            (RetryPolicy, {"base_backoff": 0.0}),
            (RetryPolicy, {"base_backoff": 0.5, "max_backoff": 0.1}),
            (dispatcher, {"hedge_percentile": 0.0}),
            (dispatcher, {"hedge_percentile": 101.0}),
            (dispatcher, {"hedge_min_samples": 0}),
            (dispatcher, {"hedge_min_delay": -0.1}),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        """Refused where they are read: policy fields by ``GatewayPolicy``,
        the retry and hedge constants by their components."""
        build, kw = kwargs
        with pytest.raises(PolicyError):
            build(**kw)


class TestDeadlineIntegration:
    def test_serial_expiry_fails_remaining_sources_fast(self):
        # Serial dispatch, two sources: the first eats the whole budget,
        # so the second must be failed *before dispatch* — no agent
        # traffic, no health penalty.
        site = make_site(
            GatewayPolicy(fanout_enabled=False, breaker_failure_threshold=10)
        )
        gw = site.gateway
        h0, h1 = site.host_names()[:2]
        url0, url1 = site.url_for("snmp", host=h0), site.url_for("snmp", host=h1)
        site.network.set_service_time(h0, 5.0)  # slower than any budget

        result = gw.query([url0, url1], SQL, mode=QueryMode.REALTIME, timeout=1.0)
        assert result.failed_sources == 2
        s0, s1 = result.statuses
        assert not s0.ok  # timed out against the clamped budget
        assert s1.error == "deadline exceeded before dispatch"
        assert s1.cause is Cause.DEADLINE_EXCEEDED
        assert gw.request_manager.stats["deadline_exceeded"] >= 1
        # The starved source was never touched, so its breaker stays clean.
        assert gw.health.health(url1).total_failures == 0
        # The whole query respected the end-to-end budget (native timeout
        # was clamped to the remaining deadline, not its own 5 s default).
        assert result.elapsed <= 1.0 + 1e-6

    def test_default_deadline_stamped_from_policy(self):
        site = make_site(
            GatewayPolicy(
                fanout_enabled=False,
                default_deadline=1.0,
                breaker_failure_threshold=10,
            )
        )
        gw = site.gateway
        h0, h1 = site.host_names()[:2]
        url0, url1 = site.url_for("snmp", host=h0), site.url_for("snmp", host=h1)
        site.network.set_service_time(h0, 5.0)
        result = gw.query([url0, url1], SQL, mode=QueryMode.REALTIME)
        assert result.statuses[1].error == "deadline exceeded before dispatch"

    def test_generous_deadline_changes_nothing(self):
        site = make_site()
        url = site.url_for("snmp")
        result = site.gateway.query(url, SQL, mode=QueryMode.REALTIME, timeout=60.0)
        assert result.ok_sources == 1 and result.rows

    def test_zero_default_deadline_means_unlimited(self):
        site = make_site(GatewayPolicy(default_deadline=0.0))
        url = site.url_for("snmp")
        result = site.gateway.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1


class TestRetryIntegration:
    def _closed_port_site(self, policy, **retry):
        """``retry``: budget / backoffs, set on the request manager (they
        are ``RetryPolicy`` constants, not policy fields)."""
        site = make_site(policy)
        gw = site.gateway
        gw.request_manager.retry = dataclasses.replace(gw.request_manager.retry, **retry)
        url = site.url_for("snmp")
        # Warm the driver cache with one good round-trip, then slam the
        # agent's port shut: every connect now fails deterministically.
        warm = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert warm.ok_sources == 1
        agent = site.agents["snmp"][0]
        site.network.close(agent.address)
        return site, url

    def test_transient_failures_retried_until_attempts_exhausted(self):
        site, url = self._closed_port_site(
            GatewayPolicy(retry_attempts=3, breaker_failure_threshold=10), budget=10
        )
        gw = site.gateway
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.failed_sources == 1
        assert gw.request_manager.stats["retries"] == 2  # attempts 2 and 3

    def test_retry_budget_caps_amplification(self):
        site, url = self._closed_port_site(
            GatewayPolicy(retry_attempts=3, breaker_failure_threshold=10), budget=1
        )
        gw = site.gateway
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert gw.request_manager.stats["retries"] == 1
        assert gw.request_manager.stats["retry_giveups"] == 1

    def test_retries_disabled_by_default(self):
        site, url = self._closed_port_site(
            GatewayPolicy(breaker_failure_threshold=10)
        )
        gw = site.gateway
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert gw.request_manager.stats["retries"] == 0

    def test_non_idempotent_driver_never_retried(self):
        site, url = self._closed_port_site(
            GatewayPolicy(retry_attempts=3, breaker_failure_threshold=10), budget=10
        )
        gw = site.gateway
        from repro.dbapi.url import JdbcUrl

        driver = gw.driver_manager.cached_driver(JdbcUrl.parse(url))
        assert driver is not None
        driver.idempotent = False
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert gw.request_manager.stats["retries"] == 0

    def test_no_retry_when_deadline_cannot_absorb_backoff(self):
        site, url = self._closed_port_site(
            GatewayPolicy(retry_attempts=3, breaker_failure_threshold=10),
            budget=10,
            base_backoff=5.0,
            max_backoff=10.0,
        )
        gw = site.gateway
        gw.query(url, SQL, mode=QueryMode.REALTIME, timeout=2.0)
        assert gw.request_manager.stats["retries"] == 0
        assert gw.request_manager.stats["retry_giveups"] >= 1


class TestHedging:
    def _dispatcher(self, *, hedge_enabled=True, **overrides):
        kwargs = {
            "hedge_min_samples": 1,
            "hedge_min_delay": 0.0,
            "hedge_percentile": 95.0,
        }
        kwargs.update(overrides)
        policy = GatewayPolicy(hedge_enabled=hedge_enabled)
        clock = VirtualClock()
        return clock, FanoutDispatcher(clock, policy, **kwargs)

    def _seed_window(self, clock, dispatcher, latency=0.1, n=4):
        # hedge=False while seeding: with identical samples the p95 sits
        # exactly on the observed latency, and float noise must not let
        # the warm-up flights themselves fire hedges.
        for _ in range(n):
            dispatcher.run_flight(
                "src", SQL, lambda: (clock.advance(latency), "warm")[1], hedge=False
            )

    def test_hedge_wins_against_straggler(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        calls = []

        def fetch():
            calls.append(clock.now())
            if len(calls) == 1:
                clock.advance(1.0)
                return "primary"
            clock.advance(0.01)
            return "hedge"

        t0 = clock.now()
        value = dispatcher.run_flight("src", SQL, fetch)
        assert value == "hedge"
        stats = dispatcher.stats
        assert stats.hedges_fired == 1
        assert stats.hedges_won == 1
        assert stats.hedges_cancelled == 1
        # Winner's completion: hedge delay (~p95 of 0.1s) + 0.01, far
        # under the 1 s straggler; the saving is the difference.
        assert clock.now() - t0 < 0.2
        assert stats.hedge_time_saved == pytest.approx(1.0 - (clock.now() - t0))

    def test_primary_wins_when_hedge_is_slower(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        calls = []

        def fetch():
            calls.append(clock.now())
            clock.advance(1.0 if len(calls) == 1 else 2.0)
            return f"attempt-{len(calls)}"

        t0 = clock.now()
        value = dispatcher.run_flight("src", SQL, fetch)
        assert value == "attempt-1"
        assert dispatcher.stats.hedges_fired == 1
        assert dispatcher.stats.hedges_won == 0
        assert dispatcher.stats.hedges_cancelled == 1
        assert clock.now() - t0 == pytest.approx(1.0)

    def test_hedge_rescues_failed_primary(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        calls = []

        def fetch():
            calls.append(clock.now())
            if len(calls) == 1:
                clock.advance(1.0)
                raise GridRmError("primary died")
            clock.advance(0.01)
            return "hedge"

        assert dispatcher.run_flight("src", SQL, fetch) == "hedge"
        assert dispatcher.stats.hedges_won == 1

    def test_both_fail_raises_at_later_failure(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        calls = []

        def fetch():
            calls.append(clock.now())
            clock.advance(1.0)
            raise GridRmError(f"attempt {len(calls)}")

        t0 = clock.now()
        with pytest.raises(GridRmError):
            dispatcher.run_flight("src", SQL, fetch)
        # The caller waited for the surviving sibling: delay + 1 s.
        assert clock.now() - t0 > 1.0

    def test_fast_answer_never_hedges(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        def fetch():
            clock.advance(0.001)
            return "fast"

        assert dispatcher.run_flight("src", SQL, fetch) == "fast"
        assert dispatcher.stats.hedges_fired == 0

    def test_cold_source_never_hedged(self):
        clock, dispatcher = self._dispatcher(hedge_min_samples=8)
        self._seed_window(clock, dispatcher, n=3)  # below min_samples

        def fetch():
            clock.advance(5.0)
            return "slow"

        assert dispatcher.run_flight("src", SQL, fetch) == "slow"
        assert dispatcher.stats.hedges_fired == 0

    def test_hedge_disabled_by_policy(self):
        clock, dispatcher = self._dispatcher(hedge_enabled=False)
        self._seed_window(clock, dispatcher)

        def fetch():
            clock.advance(5.0)
            return "slow"

        dispatcher.run_flight("src", SQL, fetch)
        assert dispatcher.stats.hedges_fired == 0

    def test_caller_opt_out_for_non_idempotent_fetch(self):
        clock, dispatcher = self._dispatcher()
        self._seed_window(clock, dispatcher)

        def fetch():
            clock.advance(5.0)
            return "slow"

        dispatcher.run_flight("src", SQL, fetch, hedge=False)
        assert dispatcher.stats.hedges_fired == 0

    def test_hedge_delay_reads_latency_percentile(self):
        clock, dispatcher = self._dispatcher(hedge_min_delay=0.0)
        assert dispatcher.hedge_delay("src") is None  # no history yet
        self._seed_window(clock, dispatcher, latency=0.1)
        assert dispatcher.hedge_delay("src") == pytest.approx(0.1)

    def test_min_delay_floors_the_timer(self):
        clock, dispatcher = self._dispatcher(hedge_min_delay=0.5)
        self._seed_window(clock, dispatcher, latency=0.001)
        assert dispatcher.hedge_delay("src") == 0.5


class TestGmaWirePropagation:
    """The budget crosses the GMA wire as a relative ``deadline_budget``."""

    @pytest.fixture
    def fabric(self):
        from repro.gma.directory import GMADirectory
        from repro.gma.global_layer import GlobalLayer
        from repro.testbed import build_site

        clock = VirtualClock()
        network = Network(clock, seed=41)
        a = build_site(network, name="site-a", n_hosts=2, agents=("snmp",), seed=1)
        b = build_site(network, name="site-b", n_hosts=2, agents=("snmp",), seed=2)
        clock.advance(20.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(a.gateway, directory)
        GlobalLayer(b.gateway, directory)
        return network, a, b, gla

    def test_remote_query_within_budget_succeeds(self, fabric):
        network, _, b, gla = fabric
        deadline = Deadline.after(network.clock, 30.0)
        result = gla.query_remote(
            "site-b", SQL, mode="realtime", deadline=deadline
        )
        assert {r["HostName"] for r in result.dicts()} == set(b.host_names())
        assert not deadline.expired()

    def test_expired_budget_fails_before_any_wire_traffic(self, fabric):
        network, _, _, gla = fabric
        deadline = Deadline.after(network.clock, 0.001)
        network.clock.advance(0.002)
        requests_before = network.stats.requests
        with pytest.raises(DeadlineExceededError):
            gla.query_remote("site-b", SQL, mode="realtime", deadline=deadline)
        assert network.stats.requests == requests_before

    def test_producer_rejects_exhausted_budget_on_arrival(self, fabric):
        # Defensive wire-level check: a payload claiming no budget left
        # (e.g. from a client whose clamp raced the send) is refused
        # before the producer touches its gateway.
        network, a, b, _ = fabric
        from repro.gma.producer import PRODUCER_PORT

        producer_addr = Address(b.gateway.host, PRODUCER_PORT)
        response = network.request(
            a.gateway.host,
            producer_addr,
            {
                "op": "query",
                "sql": SQL,
                "mode": "realtime",
                "from_site": "site-a",
                "deadline_budget": 0.0,
            },
        )
        assert response["ok"] is False
        assert "no budget left" in response["error"]

    def test_tight_budget_clamps_native_timeout(self, fabric):
        # A budget smaller than the WAN round-trip: the consumer clamps
        # the native timeout to the remaining budget, so the remote query
        # fails at the deadline rather than the transport's own 5 s.
        network, _, _, gla = fabric
        from repro.gma.global_layer import RemoteQueryError

        deadline = Deadline.after(network.clock, 0.01)  # < one WAN RTT
        t0 = network.clock.now()
        with pytest.raises((RemoteQueryError, DeadlineExceededError)):
            gla.query_remote("site-b", SQL, mode="realtime", deadline=deadline)
        # Never waited past the end-to-end deadline, let alone 5 s.
        assert network.clock.now() - t0 <= 0.15
