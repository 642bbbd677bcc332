"""Unit tests for the multi-gateway event archiver.

Feeds are event subscriptions: lease upkeep (renew cadence, re-register,
counters) is the state of ``archiver.subscriber.consumer``.
"""

import pytest

from repro.core.alerts import AlertRule
from repro.gma import archiver as archiver_module
from repro.gma.archiver import EventArchiver
from repro.gma.subscription import EventPublisher
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


@pytest.fixture
def fabric():
    clock = VirtualClock()
    network = Network(clock, seed=81)
    a = build_site(
        network, name="arc-a", n_hosts=2, agents=("snmp",), seed=1,
        snmp_trap_threshold=0.0,
    )
    b = build_site(
        network, name="arc-b", n_hosts=2, agents=("snmp",), seed=2,
        snmp_trap_threshold=0.0,
    )
    pa = EventPublisher(a.gateway)
    pb = EventPublisher(b.gateway)
    archiver = EventArchiver(network, "archive-box")
    return network, a, b, pa, pb, archiver


class TestArchiving:
    def test_records_events_from_multiple_gateways(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa)
        archiver.follow(pb)
        network.clock.advance(120.0)
        assert archiver.event_count() > 0
        hosts = {r[0] for r in archiver.query("SELECT source_host FROM events").rows}
        assert any(h.startswith("arc-a") for h in hosts)
        assert any(h.startswith("arc-b") for h in hosts)

    def test_sql_over_archive(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa)
        network.clock.advance(120.0)
        result = archiver.query(
            "SELECT name, COUNT(*) FROM events GROUP BY name"
        )
        assert result.rows and result.rows[0][0] == "load.high"

    def test_name_prefix_filter(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa, where="Name LIKE 'never.%'")
        network.clock.advance(120.0)
        assert archiver.event_count() == 0

    def test_ring_bound(self, fabric, monkeypatch):
        """The shipped bound (``archiver.MAX_ROWS``, 100 000 rows) takes
        far more events than a unit test should make, so the constant is
        patched down to 10."""
        network, a, b, pa, pb, archiver = fabric
        monkeypatch.setattr(archiver_module, "MAX_ROWS", 10)
        archiver.follow(pa)
        archiver.follow(pb)
        network.clock.advance(300.0)
        assert archiver.event_count() == 10

    def test_reports(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa)
        archiver.follow(pb)
        network.clock.advance(120.0)
        noisy = archiver.noisiest_hosts(3)
        assert noisy and noisy[0][1] >= noisy[-1][1]
        breakdown = archiver.severity_breakdown()
        assert breakdown.get("warning", 0) > 0


class TestLeaseManagement:
    def test_renewal_keeps_feed_alive_past_lease(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa, lease=60.0)
        network.clock.advance(200.0)  # > 3 lease periods
        n = archiver.event_count()
        assert n > 0
        assert archiver.subscriber.consumer.stats["renewals"] >= 2
        network.clock.advance(60.0)
        assert archiver.event_count() > n  # still flowing

    def test_stop_unsubscribes(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa)
        network.clock.advance(60.0)
        n = archiver.event_count()
        archiver.stop()
        assert pa.subscriber_count() == 0
        network.clock.advance(120.0)
        assert archiver.event_count() == n

    def test_renewal_survives_publisher_outage(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa, lease=60.0)
        network.set_host_up(a.gateway.host, False)
        network.clock.advance(100.0)
        stats = archiver.subscriber.consumer.stats
        assert stats["renewal_failures"] >= 1
        network.set_host_up(a.gateway.host, True)
        # Renewals resume once the publisher is back: the lease lapsed
        # server-side, so the feed is resurrected or re-registered.
        n = archiver.event_count()
        network.clock.advance(100.0)
        assert stats["renewals"] + stats["reregisters"] >= 1
        assert pa.subscriber_count() == 1
        assert archiver.event_count() > n


class TestWithAlertRules:
    def test_alert_events_archived_across_wan(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa, where="Name LIKE 'alert.%'")
        a.gateway.alerts.add_rule(
            AlertRule(
                name="always",
                urls=[a.url_for("snmp")],
                sql="SELECT HostName FROM Processor WHERE CPUCount >= 1",
                period=20.0,
                rearm_after=0.0,
                use_cache=False,
            )
        )
        network.clock.advance(60.0)
        result = archiver.query(
            "SELECT COUNT(*) FROM events WHERE name = 'alert.always'"
        )
        assert result.rows[0][0] >= 2


class TestLeaseRecovery:
    """Regressions for the renewal machinery fixed alongside the
    streaming plane: resubscribe-on-missing and timer tightening."""

    def test_resubscribes_when_publisher_forgot_the_lease(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        consumer = archiver.subscriber.consumer
        sid = archiver.follow(pa, lease=60.0)
        network.clock.advance(10.0)
        # Simulate a lapse beyond the tombstone grace: the publisher
        # dropped the subscription while the archiver still holds it.
        pa.hub._subs.pop(sid)
        consumer._renew_all()
        assert consumer.stats["reregisters"] == 1
        assert consumer._regs[0].cq_id != sid
        assert pa.subscriber_count() == 1
        # The recovered feed archives events again.
        n = archiver.event_count()
        network.clock.advance(120.0)
        assert archiver.event_count() > n

    def test_later_shorter_lease_tightens_renew_cadence(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        consumer = archiver.subscriber.consumer
        archiver.follow(pa, lease=600.0)
        assert consumer._renew_period == 300.0
        # A second feed with a much shorter lease must re-arm the timer
        # at half *its* lease, or it would expire between renewals.
        archiver.follow(pb, lease=60.0)
        assert consumer._renew_period == 30.0
        network.clock.advance(200.0)
        assert consumer.stats["renewals"] >= 2 * (200 // 30 - 1)
        assert pb.subscriber_count() == 1  # never lapsed
        assert pb.stats["expired"] == 0

    def test_longer_lease_does_not_loosen_cadence(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        archiver.follow(pa, lease=60.0)
        archiver.follow(pb, lease=600.0)
        assert archiver.subscriber.consumer._renew_period == 30.0

    def test_stop_resets_timer_state_for_reuse(self, fabric):
        network, a, b, pa, pb, archiver = fabric
        consumer = archiver.subscriber.consumer
        archiver.follow(pa, lease=60.0)
        archiver.stop()
        assert consumer._renew_timer is None
        assert consumer._renew_period == 0.0
        # A fresh follow after stop() re-arms from scratch.
        archiver.follow(pb, lease=100.0)
        assert consumer._renew_period == 50.0
        archiver.stop()

    def test_dropping_one_feed_keeps_the_other_alive_past_its_lease(self, fabric):
        """Both publishers number their first subscription 1: dropping
        feed A must leave feed B registered, renewed and archiving."""
        network, a, b, pa, pb, archiver = fabric
        consumer = archiver.subscriber.consumer
        sid_a = archiver.follow(pa, lease=60.0)
        sid_b = archiver.follow(pb, lease=60.0)
        assert sid_a == sid_b == 1
        network.clock.advance(20.0)
        assert consumer.deregister(pa.address, sid_a)
        assert [(r.hub, r.cq_id) for r in consumer._regs] == [(pb.address, sid_b)]
        assert consumer._renew_timer is not None
        from_a = archiver.query(
            "SELECT COUNT(*) FROM events WHERE source_host LIKE 'arc-a%'"
        ).rows[0][0]
        renewals = consumer.stats["renewals"]
        network.clock.advance(240.0)  # four leases on
        assert consumer.stats["renewals"] > renewals
        assert pa.subscriber_count() == 0
        assert pb.subscriber_count() == 1 and pb.stats["expired"] == 0
        recent = archiver.query(
            "SELECT source_host FROM events "
            f"WHERE received_at > {network.clock.now() - 60.0}"
        ).rows
        assert recent and all(h.startswith("arc-b") for (h,) in recent)
        assert from_a == archiver.query(
            "SELECT COUNT(*) FROM events WHERE source_host LIKE 'arc-a%'"
        ).rows[0][0]
