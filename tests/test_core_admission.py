"""Unit tests for the overload-protection layer (admission, shedding,
brownout, adaptive concurrency) and its breaker interplay."""

import pytest

from repro.core import admission, shed
from repro.core.admission import (
    INITIAL_LIMIT,
    LIMIT_CEILING,
    LIMIT_FLOOR,
    LIMITER_BACKOFF,
    LIMITER_WINDOW,
    AdmissionController,
    AdmissionTicket,
    GradientLimiter,
    QueryClass,
)
from repro.core.deadline import Deadline
from repro.core.errors import (
    DeadlineExceededError,
    GridRmError,
    OverloadError,
    PolicyError,
)
from repro.core.gateway import BatchQuery, Gateway
from repro.core.health import HealthTracker
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.core.shed import (
    PressureMonitor,
    PressureState,
    ShedAction,
    ShedLedger,
    shed_action,
)
from repro.simnet.clock import VirtualClock
from repro.testbed import build_testbed


def make_controller(clock=None, **policy_kw):
    """A controller at the shipped limit (``INITIAL_LIMIT``) and batch
    share (``BATCH_QUEUE_SHARE``): module constants, not keywords."""
    clock = clock or VirtualClock()
    policy = GatewayPolicy(**policy_kw)
    return clock, AdmissionController(clock, policy)


def make_limiter(clock, initial=4):
    return GradientLimiter(clock, initial=initial)


def saturate(clock, adm, busy_for):
    """Hold every gateway-wide slot busy for ``busy_for`` seconds."""
    adm._ends.extend([clock.now() + busy_for] * INITIAL_LIMIT)


class TestQueryClass:
    def test_parse_enum_passthrough(self):
        assert QueryClass.parse(QueryClass.BATCH) is QueryClass.BATCH

    def test_parse_strings(self):
        assert QueryClass.parse("critical") is QueryClass.CRITICAL
        assert QueryClass.parse("Interactive") is QueryClass.INTERACTIVE
        assert QueryClass.parse("BATCH") is QueryClass.BATCH

    def test_parse_none_defaults_interactive(self):
        assert QueryClass.parse(None) is QueryClass.INTERACTIVE

    def test_parse_unknown_rejected(self):
        with pytest.raises(GridRmError, match="query class"):
            QueryClass.parse("urgent")


class TestGradientLimiter:
    """The shipped limiter: epochs of ``LIMITER_WINDOW`` observations,
    limits within ``[LIMIT_FLOOR, LIMIT_CEILING]``."""

    def test_probes_upward_when_healthy(self):
        limiter = make_limiter(VirtualClock())
        for _ in range(3 * LIMITER_WINDOW):
            limiter.observe(0.1)
        assert limiter.limit > 4

    def test_ceiling_clamps_probing(self):
        limiter = make_limiter(VirtualClock(), initial=LIMIT_CEILING - 2)
        for _ in range(10 * LIMITER_WINDOW):
            limiter.observe(0.1)
        assert limiter.limit == LIMIT_CEILING

    def test_congestion_backs_off_multiplicatively(self):
        limiter = make_limiter(VirtualClock(), initial=8)
        for _ in range(LIMITER_WINDOW):
            limiter.observe(0.1)  # establish the baseline
        before = limiter.limit
        for _ in range(LIMITER_WINDOW):
            limiter.observe(0.1, congested=True)
        assert limiter.limit <= max(1, int(before * LIMITER_BACKOFF) + 1)
        assert limiter.limit < before

    def test_latency_gradient_backs_off_without_errors(self):
        limiter = make_limiter(VirtualClock(), initial=8)
        for _ in range(LIMITER_WINDOW):
            limiter.observe(0.1)
        before = limiter.limit
        for _ in range(LIMITER_WINDOW):
            limiter.observe(1.0)  # 10x the baseline: congestion signal
        assert limiter.limit < before

    def test_floor_holds_under_sustained_congestion(self):
        limiter = make_limiter(VirtualClock())
        for _ in range(20 * LIMITER_WINDOW):
            limiter.observe(1.0, congested=True)
        assert limiter.limit == LIMIT_FLOOR

    def test_snapshot_shape(self):
        limiter = make_limiter(VirtualClock())
        limiter.observe(0.2)
        snap = limiter.snapshot()
        assert snap["limit"] == 4
        assert snap["pending_samples"] == 1


class TestPressureMonitor:
    """The shipped thresholds: BROWNOUT from a quarter of the queue,
    SHED from three quarters."""

    def monitor(self, clock, **kw):
        kw.setdefault("queue_capacity", 10)
        kw.setdefault("min_dwell", 5.0)
        return PressureMonitor(clock, **kw)

    def test_escalates_immediately(self):
        clock = VirtualClock()
        mon = self.monitor(clock)
        assert mon.observe(0, 4) is PressureState.NORMAL
        assert mon.observe(3, 0) is PressureState.BROWNOUT
        assert mon.observe(8, 0) is PressureState.SHED

    def test_deescalation_needs_dwell(self):
        clock = VirtualClock()
        mon = self.monitor(clock)
        mon.observe(8, 0)  # SHED
        clock.advance(1.0)
        # Pressure is gone but the dwell has not elapsed: still SHED.
        assert mon.observe(0, 4) is PressureState.SHED
        clock.advance(10.0)
        assert mon.observe(0, 4) is PressureState.NORMAL

    def test_zero_headroom_with_queue_is_brownout(self):
        clock = VirtualClock()
        mon = self.monitor(clock)
        assert mon.observe(1, 0) is PressureState.BROWNOUT

    def test_retry_after_positive_under_pressure(self):
        clock = VirtualClock()
        mon = self.monitor(clock)
        mon.observe(8, 0)
        assert mon.retry_after() > 0

    def test_transition_callback_and_counter(self):
        clock = VirtualClock()
        seen = []
        mon = self.monitor(clock, on_transition=lambda a, b: seen.append((a, b)))
        mon.observe(8, 0)
        clock.advance(10.0)
        mon.observe(0, 4)
        assert (PressureState.NORMAL, PressureState.SHED) in seen
        assert mon.transitions == len(seen)


class TestShedFateTable:
    def test_normal_always_dispatches(self):
        for qc in QueryClass:
            assert (
                shed_action(PressureState.NORMAL, qc) is ShedAction.DISPATCH
            )

    def test_critical_always_dispatches_or_degrades(self):
        assert (
            shed_action(PressureState.BROWNOUT, QueryClass.CRITICAL)
            is ShedAction.DISPATCH
        )
        assert (
            shed_action(PressureState.SHED, QueryClass.CRITICAL)
            is ShedAction.DISPATCH
        )

    def test_batch_sheds_first(self):
        assert (
            shed_action(PressureState.BROWNOUT, QueryClass.BATCH)
            is ShedAction.STALE_THEN_SHED
        )
        assert (
            shed_action(PressureState.SHED, QueryClass.BATCH) is ShedAction.SHED
        )

    def test_interactive_degrades_before_shedding(self):
        assert (
            shed_action(PressureState.BROWNOUT, QueryClass.INTERACTIVE)
            is ShedAction.STALE_THEN_DISPATCH
        )
        assert (
            shed_action(PressureState.SHED, QueryClass.INTERACTIVE)
            is ShedAction.STALE_THEN_SHED
        )


class TestAdmissionController:
    def test_admit_release_round_trip(self):
        clock, adm = make_controller()
        launch = clock.now()
        ticket = adm.admit(QueryClass.INTERACTIVE)
        assert isinstance(ticket, AdmissionTicket)
        assert ticket.admitted_at == launch
        assert ticket.queued_for == 0.0
        clock.advance(0.25)
        adm.release(ticket)
        # In-flight is judged by completion instants: from the launch
        # instant's point of view the request is still running.
        assert adm.inflight(launch) == 1
        assert adm.inflight(clock.now()) == 0
        snap = adm.snapshot()
        assert snap["admitted"] == 1
        assert snap["limiter"]["pending_samples"] == 1

    def test_queue_overflow_sheds_batch_before_interactive(self):
        clock, adm = make_controller(admission_queue_limit=4)
        # Saturate the service slots with work that never finishes soon.
        t = adm.admit(QueryClass.INTERACTIVE)
        saturate(clock, adm, 1000.0)
        adm.release(t)
        # Fill the queue spans to batch's bound (BATCH_QUEUE_SHARE * 4).
        now = clock.now()
        bound = int(4 * admission.BATCH_QUEUE_SHARE)
        adm._queue_spans.extend([(now, now + 1000.0)] * bound)
        with pytest.raises(OverloadError, match="shed"):
            adm.admit(QueryClass.BATCH)
        assert adm.sheds.counts()["batch"] == 1

    def test_critical_never_queue_shed(self):
        clock, adm = make_controller(admission_queue_limit=2)
        saturate(clock, adm, 0.5)
        now = clock.now()
        adm._queue_spans.extend([(now, now + 1000.0)] * 10)
        # The queue is far past capacity, yet CRITICAL still queues.
        ticket = adm.admit(QueryClass.CRITICAL)
        assert ticket.query_class is QueryClass.CRITICAL
        assert adm.sheds.counts()["critical"] == 0

    def test_doomed_on_dequeue(self):
        clock, adm = make_controller()
        # Observed service times: p50 = 1.0s.
        for _ in range(8):
            t = adm.admit(QueryClass.INTERACTIVE)
            clock.advance(1.0)
            adm.release(t)
        # Every slot busy for 2 more seconds; a query with a 1.5s budget
        # will wait ~2s in the queue and emerge with < p50 remaining.
        saturate(clock, adm, 2.0)
        deadline = Deadline.after(clock, 1.5)
        with pytest.raises(DeadlineExceededError, match="doomed on dequeue"):
            adm.admit(QueryClass.INTERACTIVE, deadline)
        assert adm.snapshot()["doomed"] == 1

    def test_shed_carries_retry_after_and_class(self):
        clock, adm = make_controller()
        adm.monitor.observe(100, 0)  # force SHED state
        with pytest.raises(OverloadError) as exc_info:
            adm.shed(QueryClass.BATCH, "test")
        exc = exc_info.value
        assert exc.retry_after > 0
        assert exc.query_class == "batch"

    def test_allow_retry_and_hedges_follow_pressure(self):
        clock, adm = make_controller()
        assert adm.allow_retry(QueryClass.BATCH)
        assert not adm.suppress_hedges()
        adm.monitor.observe(100, 0)
        assert not adm.allow_retry(QueryClass.BATCH)
        assert adm.allow_retry(QueryClass.CRITICAL)
        assert adm.suppress_hedges()

    def test_disabled_controller_is_transparent(self):
        clock, adm = make_controller(admission_enabled=False)
        assert not adm.enabled
        assert adm.allow_retry(QueryClass.BATCH)
        assert not adm.suppress_hedges()


class TestPolicyValidation:
    """Bad policy fields are refused by ``GatewayPolicy`` with
    ``PolicyError``.  The controller's, the limiter's and the pressure
    monitor's values are module constants, not keywords: their rows
    assert that each constant meets the bound its constructor used to
    check."""

    @pytest.mark.parametrize(
        "kw",
        [
            (GatewayPolicy, {"admission_queue_limit": 0}),
            (None, lambda: 0.0 < admission.BATCH_QUEUE_SHARE),
            (None, lambda: admission.BATCH_QUEUE_SHARE <= 1.0),
            (None, lambda: INITIAL_LIMIT >= 1),
            (None, lambda: LIMIT_FLOOR >= 1),
            (None, lambda: LIMIT_FLOOR <= LIMIT_CEILING),
            (None, lambda: admission.LIMITER_TOLERANCE > 1.0),
            (None, lambda: LIMITER_BACKOFF < 1.0),
            (None, lambda: LIMITER_BACKOFF > 0.0),
            (None, lambda: LIMITER_WINDOW >= 1),
            (None, lambda: shed.BROWNOUT_ENTER > 0.0),
            (None, lambda: shed.BROWNOUT_ENTER <= shed.SHED_ENTER),
            (None, lambda: shed.SHED_ENTER <= 1.0),
            (GatewayPolicy, {"pressure_min_dwell": -1.0}),
            (GatewayPolicy, {"stream_max_subscriptions": 0}),
            (GatewayPolicy, {"stream_default_lease": 0.0}),
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        build, kwargs = kw
        if build is None:
            assert kwargs()
            return
        with pytest.raises(PolicyError):
            build(**kwargs)

    def test_limiter_and_monitor_defaults(self):
        """The shipped values DESIGN §13 quotes, now module constants."""
        assert (LIMIT_FLOOR, LIMIT_CEILING, LIMITER_WINDOW) == (1, 64, 16)
        assert (admission.LIMITER_TOLERANCE, LIMITER_BACKOFF) == (2.0, 0.8)
        assert (shed.BROWNOUT_ENTER, shed.SHED_ENTER) == (0.25, 0.75)


class TestBreakerShedInterplay:
    def test_shed_is_never_a_breaker_failure(self):
        """The unit-level contract: a shed records nothing in the
        HealthTracker — a gateway protecting itself is not a failing
        source."""
        clock = VirtualClock()
        policy = GatewayPolicy()
        health = HealthTracker(clock, policy)
        _, adm = make_controller(clock)
        adm.monitor.observe(100, 0)
        with pytest.raises(OverloadError):
            adm.shed(QueryClass.BATCH, "test")
        assert health.scoreboard() == {}

    def test_local_shed_status_no_breaker_penalty(self):
        """End-to-end at one gateway: a SHED-state gateway sheds a batch
        query as a typed per-source status and the breakers stay clean."""
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=2, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        gw = site.gateway
        gw.overload.monitor.observe(100, 0)  # force SHED
        assert gw.overload.state is PressureState.SHED
        with pytest.raises(OverloadError):
            gw.query(
                site.source_urls,
                "SELECT * FROM Processor",
                mode=QueryMode.REALTIME,
                query_class="batch",
            )
        board = gw.health.scoreboard()
        assert all(entry["total_failures"] == 0 for entry in board.values())
        assert gw.overload.sheds.counts()["batch"] == 1

    def test_critical_dispatches_even_in_shed_state(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=2, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        gw = site.gateway
        gw.overload.monitor.observe(100, 0)
        result = gw.query(
            site.source_urls,
            "SELECT * FROM Processor",
            mode=QueryMode.REALTIME,
            query_class="critical",
        )
        assert result.failed_sources == 0
        assert gw.overload.sheds.counts()["critical"] == 0

    def test_brownout_serves_stale_with_degraded_marker(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=2, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        gw = site.gateway
        # Warm the cache, then force BROWNOUT.
        gw.query(site.source_urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        gw.overload.monitor.observe(2, 0)
        assert gw.overload.state is PressureState.BROWNOUT
        result = gw.query(
            site.source_urls,
            "SELECT * FROM Processor",
            mode=QueryMode.REALTIME,
            query_class="interactive",
        )
        assert result.rows
        assert all(s.from_cache and s.degraded for s in result.statuses)
        assert all(s.cause is Cause.BROWNOUT for s in result.statuses)
        assert gw.overload.snapshot()["brownout_served"] == 1


class TestRemoteShed:
    @pytest.fixture
    def fabric(self):
        from repro.gma.directory import GMADirectory
        from repro.gma.global_layer import GlobalLayer
        from repro.simnet.network import Network
        from repro.testbed import build_site

        clock = VirtualClock()
        network = Network(clock, seed=43)
        a = build_site(network, name="site-a", n_hosts=1, agents=("snmp",), seed=1)
        b = build_site(
            network,
            name="site-b",
            n_hosts=1,
            agents=("snmp",),
            seed=2,
            policy=GatewayPolicy(),
        )
        clock.advance(20.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(a.gateway, directory)
        GlobalLayer(b.gateway, directory)
        return network, a, b, gla

    def test_remote_shed_propagates_typed(self, fabric):
        """The remote shed arrives typed: a ``shed`` status carrying the
        remote's refusal, as a local source's answer would, not a raise."""
        network, a, b, gla = fabric
        b.gateway.overload.monitor.observe(100, 0)  # site-b sheds
        result = gla.query_remote(
            "site-b",
            "SELECT * FROM Processor",
            mode="realtime",
            query_class="batch",
        )
        (status,) = result.statuses
        assert status.cause is Cause.SHED and status.shed and "shed" in status.error

    def test_remote_shed_is_not_a_breaker_failure(self, fabric):
        """Five remote sheds record no failure against ``gma://site-b``;
        they are counted by the request manager's ``requests.sheds``."""
        network, a, b, gla = fabric
        b.gateway.overload.monitor.observe(100, 0)
        sheds = a.gateway.request_manager.stats["sheds"]
        for _ in range(5):
            result = gla.query_remote(
                "site-b",
                "SELECT * FROM Processor",
                mode="realtime",
                query_class="batch",
            )
            assert [s.cause for s in result.statuses] == [Cause.SHED]
        entry = a.gateway.health.scoreboard().get("gma://site-b")
        if entry is not None:
            assert entry["total_failures"] == 0
        assert a.gateway.request_manager.stats["sheds"] - sheds == 5
        # The breaker never opened: a real query flows once pressure ends.
        b.gateway.overload.monitor.observe(0, 8)
        network.clock.advance(30.0)
        b.gateway.overload.monitor.observe(0, 8)
        result = gla.query_remote(
            "site-b", "SELECT * FROM Processor", mode="realtime"
        )
        assert result.rows

    def test_remote_critical_not_shed(self, fabric):
        network, a, b, gla = fabric
        b.gateway.overload.monitor.observe(100, 0)
        result = gla.query_remote(
            "site-b",
            "SELECT * FROM Processor",
            mode="realtime",
            query_class="critical",
        )
        assert result.rows


class TestShedLedger:
    def test_counts_by_class(self):
        ledger = ShedLedger()
        ledger.record(QueryClass.BATCH)
        ledger.record(QueryClass.BATCH)
        ledger.record(QueryClass.INTERACTIVE)
        counts = ledger.counts()
        assert counts["batch"] == 2
        assert counts["interactive"] == 1
        assert counts["critical"] == 0
        assert counts["total"] == 3


class TestGatewayWiring:
    def test_stats_expose_overload_snapshot(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        stats = site.gateway.stats()
        assert stats["overload"]["enabled"] is True
        assert stats["overload"]["state"] == "normal"

    def test_batch_query_carries_query_class(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        gw = site.gateway
        gw.overload.monitor.observe(100, 0)  # SHED
        outcomes = gw.query_batch(
            [
                BatchQuery(
                    urls=site.source_urls,
                    sql="SELECT * FROM Processor",
                    mode=QueryMode.REALTIME,
                    query_class="batch",
                ),
                BatchQuery(
                    urls=site.source_urls,
                    sql="SELECT * FROM MainMemory",
                    mode=QueryMode.REALTIME,
                    query_class="critical",
                ),
            ]
        )
        assert isinstance(outcomes[0], OverloadError)
        assert not isinstance(outcomes[1], Exception)

    def test_pressure_transition_emits_event(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(60.0)
        gw = site.gateway
        gw.overload.monitor.observe(100, 0)
        names = [e.name for e in gw.events.recent]
        assert "pressure.shed" in names

    def test_history_mode_bypasses_admission(self):
        policy = GatewayPolicy()
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=0, policy=policy
        )
        network.clock.advance(120.0)
        gw = site.gateway
        # Record some history, then force SHED.
        gw.query(site.source_urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        gw.overload.monitor.observe(100, 0)  # SHED
        # HISTORY answers come from the local store: never shed.
        result = gw.query(
            site.source_urls,
            "SELECT * FROM Processor",
            mode=QueryMode.HISTORY,
            query_class="batch",
        )
        assert result.mode is QueryMode.HISTORY
