"""Unit tests for inter-gateway event subscriptions (paper §3.1.5).

The event plane is a stream hub over a one-group ``Event`` schema: the
publisher's leases, buffers and counters are ``publisher.hub``'s, the
subscriber's flow control and lease upkeep are ``subscriber.consumer``'s.
"""

import pytest

from repro.core.errors import OverloadError
from repro.core.events import Event
from repro.core.policy import GatewayPolicy
from repro.gma.subscription import (
    EventPublisher,
    EventSubscriber,
    decode_event,
    encode_event,
)
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import NetworkError
from repro.simnet.network import Network
from repro.testbed import build_site

from .test_gma_streams import _silence_renewals


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=71)
    site = build_site(
        network,
        name="pub",
        n_hosts=2,
        agents=("snmp",),
        seed=71,
        snmp_trap_threshold=0.0,  # every threshold check fires a trap
    )
    publisher = EventPublisher(site.gateway)
    network.add_host("consumer-box", site="elsewhere")
    subscriber = EventSubscriber(network, "consumer-box")
    return network, site, publisher, subscriber


def go_quiet(subscriber):
    """A consumer that stopped renewing without deregistering (crashed,
    wedged): its StreamConsumer would otherwise renew at half-lease."""
    _silence_renewals(subscriber.consumer)


def buffered_times(publisher, sid):
    """``Time`` of every event buffered for one paused subscription."""
    return [
        row[3] for batch in publisher.hub._subs[sid].buffer for row in batch["rows"]
    ]


class TestWireFormat:
    def test_round_trip(self):
        event = Event("h", "load.high", "warning", 12.5, {"k": 1}, "snmp-trap")
        assert decode_event(encode_event(event)) == event

    def test_garbage_rejected(self):
        row = encode_event(Event("h", "load.high", "warning", 12.5, {"k": 1}))
        assert decode_event("nope") is None
        assert decode_event({"kind": "gridrm-event"}) is None
        assert decode_event(row[:-1]) is None  # short row
        assert decode_event(row[:3] + ["noon"] + row[4:]) is None  # Time
        assert decode_event(row[:3] + [10**400] + row[4:]) is None  # float() overflows
        assert decode_event(row[:5] + [7]) is None  # Fields not a mapping


class TestSubscription:
    def test_events_flow_to_subscriber(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        subscriber.subscribe(publisher.address)
        network.clock.advance(120.0)  # traps fire, pump runs, pushes flow
        assert got
        assert got[0].name == "load.high"
        assert got[0].fields  # the trap's varbinds crossed as one cell
        assert subscriber.received == len(got)
        assert publisher.stats["pushes"] == len(got)

    def test_name_prefix_filter(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        subscriber.subscribe(publisher.address, where="Name LIKE 'nonexistent.%'")
        network.clock.advance(120.0)
        assert got == []
        subscriber.subscribe(publisher.address, where="Name LIKE 'load.%'")
        network.clock.advance(120.0)
        assert got and all(e.name.startswith("load.") for e in got)

    def test_source_host_filter(self, rig):
        network, site, publisher, subscriber = rig
        target = site.host_names()[0]
        got = []
        subscriber.on_event(got.append)
        subscriber.subscribe(publisher.address, where=f"SourceHost = '{target}'")
        network.clock.advance(120.0)
        assert got and all(e.source_host == target for e in got)

    def test_unparsable_where_refused_and_registers_nothing(self, rig):
        network, site, publisher, subscriber = rig
        for where in ("Name LIKE", "NoSuchColumn = 1"):
            with pytest.raises(NetworkError, match="rejected"):
                subscriber.subscribe(publisher.address, where=where)
        assert publisher.subscriber_count() == 0
        assert subscriber.consumer._regs == []
        assert subscriber.consumer._renew_timer is None

    def test_unsubscribe_stops_flow(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        sid = subscriber.subscribe(publisher.address)
        network.clock.advance(60.0)
        n = len(got)
        assert subscriber.consumer.deregister(publisher.address, sid)
        network.clock.advance(60.0)
        assert len(got) == n

    def test_unsubscribe_unknown_id(self, rig):
        network, site, publisher, subscriber = rig
        assert not subscriber.consumer.deregister(publisher.address, 999)


class TestLeases:
    def test_expired_lease_stops_delivery_and_sweeps(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        subscriber.subscribe(publisher.address, lease=30.0)
        go_quiet(subscriber)
        network.clock.advance(29.0)
        during_lease = len(got)
        network.clock.advance(120.0)
        assert len(got) == during_lease
        assert publisher.subscriber_count() == 0  # swept
        assert publisher.stats["expired"] == 1

    def test_renew_extends_lease(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        sid = subscriber.subscribe(publisher.address, lease=30.0)
        go_quiet(subscriber)
        network.clock.advance(25.0)
        assert subscriber.consumer.renew(publisher.address, sid, 300.0)
        n = len(got)
        network.clock.advance(60.0)
        assert len(got) > n

    def test_renew_unknown_id(self, rig):
        network, site, publisher, subscriber = rig
        assert not subscriber.consumer.renew(publisher.address, 12345, 10.0)


class TestGatewayToGateway:
    def test_alerts_propagate_to_remote_gateway(self):
        """A site-b operator subscribes to site-a's gateway alerts —
        the paper's inter-gateway event propagation, using the alert
        monitor as the event source."""
        from repro.core.alerts import AlertRule

        clock = VirtualClock()
        network = Network(clock, seed=72)
        a = build_site(network, name="prod", n_hosts=2, agents=("snmp",), seed=1)
        b = build_site(network, name="noc", n_hosts=1, agents=("snmp",), seed=2)
        clock.advance(10.0)

        publisher = EventPublisher(a.gateway)
        subscriber = EventSubscriber(network, b.gateway.host, port=8402)
        remote_events = []
        subscriber.on_event(remote_events.append)
        subscriber.subscribe(publisher.address, where="Name LIKE 'alert.%'")

        a.gateway.alerts.add_rule(
            AlertRule(
                name="cpu-busy",
                urls=[a.url_for("snmp")],
                sql="SELECT HostName, CPUUtilization FROM Processor "
                    "WHERE CPUUtilization >= 0",
                period=15.0,
                use_cache=False,
                rearm_after=0.0,
            )
        )
        clock.advance(40.0)
        assert remote_events
        assert remote_events[0].name == "alert.cpu-busy"
        # The event crossed the WAN: source is in site 'prod'.
        assert network.site_of(remote_events[0].source_host) == "prod"


class TestBackpressure:
    """Bounded per-subscription buffers: a slow consumer pauses and the
    publisher buffers (bounded, counted drops) instead of pushing."""

    def test_pause_buffers_and_resume_flushes_in_order(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        sid = subscriber.subscribe(publisher.address, max_buffer=1000)
        network.clock.advance(60.0)
        live = len(got)
        assert live > 0

        assert subscriber.consumer.pause(publisher.address, sid)
        network.clock.advance(60.0)
        assert len(got) == live  # nothing pushed while paused
        stats = publisher.hub.buffer_stats()[sid]
        assert stats["paused"] and stats["buffered"] > 0

        buffered = buffered_times(publisher, sid)
        flushed = subscriber.consumer.resume(publisher.address, sid)
        assert flushed == stats["buffered"] == len(buffered)
        network.clock.advance(1.0)  # let the frame deliver
        assert [e.time for e in got[live : live + flushed]] == buffered
        assert publisher.hub.buffer_stats()[sid]["buffered"] == 0

    def test_drop_oldest_keeps_newest(self, rig):
        network, site, publisher, subscriber = rig
        sid = subscriber.subscribe(
            publisher.address, max_buffer=3, overflow="drop_oldest"
        )
        assert subscriber.consumer.pause(publisher.address, sid)
        network.clock.advance(300.0)
        stats = publisher.hub.buffer_stats()[sid]
        assert stats["buffered"] == 3
        assert stats["dropped"] > 0
        assert publisher.stats["dropped"] == stats["dropped"]
        # The three retained events are the *newest* three.
        times = buffered_times(publisher, sid)
        assert times == sorted(times)
        assert times[-1] > times[0]
        assert times[-1] > network.clock.now() - 60.0

    def test_pause_overflow_keeps_prefix(self, rig):
        network, site, publisher, subscriber = rig
        sid = subscriber.subscribe(
            publisher.address, max_buffer=3, overflow="pause"
        )
        assert subscriber.consumer.pause(publisher.address, sid)
        network.clock.advance(300.0)
        stats = publisher.hub.buffer_stats()[sid]
        assert stats["buffered"] == 3
        assert stats["dropped"] > 0
        # The retained events are the *first* three (orderly prefix).
        first_batch = buffered_times(publisher, sid)
        network.clock.advance(60.0)
        assert buffered_times(publisher, sid) == first_batch

    def test_unknown_overflow_policy_rejected(self, rig):
        network, site, publisher, subscriber = rig
        with pytest.raises(NetworkError, match="rejected"):
            subscriber.subscribe(
                publisher.address, max_buffer=3, overflow="teleport"
            )
        assert publisher.subscriber_count() == 0

    def test_full_subscription_table_is_a_typed_shed(self):
        """``stream_max_subscriptions`` caps event subscribers too."""
        network = Network(VirtualClock(), seed=73)
        site = build_site(
            network, name="cap", n_hosts=1, agents=("snmp",), seed=73,
            policy=GatewayPolicy(stream_max_subscriptions=2),
        )
        publisher = EventPublisher(site.gateway)
        network.add_host("consumer-box", site="elsewhere")
        subscriber = EventSubscriber(network, "consumer-box")
        subscriber.subscribe(publisher.address)
        subscriber.subscribe(publisher.address, where="Severity <> 'info'")
        with pytest.raises(OverloadError) as shed:
            subscriber.subscribe(publisher.address)
        assert shed.value.retry_after == site.gateway.policy.stream_sweep_period
        assert publisher.subscriber_count() == 2
        assert publisher.stats["shed"] == 1


class TestTombstoneGrace:
    """A swept subscription stays renew-resurrectable for one sweep
    period — the regression guard for the lease-gap race where a
    renewal already on the wire loses to the sweeper."""

    def test_renewal_in_flight_across_sweep_resurrects(self, rig):
        network, site, publisher, subscriber = rig
        got = []
        subscriber.on_event(got.append)
        # The subscriber sits in another site: ~40ms one-way WAN delay.
        sid = subscriber.subscribe(publisher.address, lease=30.0)
        go_quiet(subscriber)
        expiry = publisher.hub._subs[sid].expires_at
        network.clock.call_at(expiry + 0.001, publisher.hub.sweep)
        outcomes = []
        network.clock.call_at(
            expiry - 0.02,  # sent while alive, arrives after the sweep
            lambda: outcomes.append(
                subscriber.consumer.renew(publisher.address, sid, 300.0)
            ),
        )
        network.clock.advance(31.0)
        assert publisher.stats["expired"] == 1, "sweep must win the race"
        assert outcomes == [True]
        assert publisher.stats["resurrected"] == 1
        assert publisher.subscriber_count() == 1
        # The resurrected subscription keeps receiving events.
        n = len(got)
        network.clock.advance(60.0)
        assert len(got) > n

    def test_tombstone_discarded_after_one_sweep_period(self, rig):
        network, site, publisher, subscriber = rig
        sid = subscriber.subscribe(publisher.address, lease=10.0)
        go_quiet(subscriber)
        network.clock.advance(15.0)
        publisher.hub.sweep()
        publisher.hub.sweep()  # grace over
        assert not subscriber.consumer.renew(publisher.address, sid, 10.0)
        assert publisher.subscriber_count() == 0

    def test_unsubscribe_reaches_into_tombstones(self, rig):
        network, site, publisher, subscriber = rig
        sid = subscriber.subscribe(publisher.address, lease=10.0)
        go_quiet(subscriber)
        network.clock.advance(15.0)
        publisher.hub.sweep()
        assert subscriber.consumer.deregister(publisher.address, sid)
        # Gone for good: a renewal within the grace window finds nothing.
        assert not subscriber.consumer.renew(publisher.address, sid, 10.0)
