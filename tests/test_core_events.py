"""Unit tests for the EventManager (paper §3.1.5, Figure 4)."""

import pytest

from repro.agents import snmp as wire
from repro.agents.snmp import SnmpAgent
from repro.core.events import Event, EventManager, SnmpTrapEventDriver
from repro.core.history import HistoryStore
from repro.core.policy import GatewayPolicy
from repro.glue.schema import standard_schema
from repro.simnet.network import Address


@pytest.fixture
def em(network):
    manager = EventManager(
        network,
        "gateway",
        GatewayPolicy(event_fast_buffer_size=8, event_disk_buffer_size=16),
        history=HistoryStore(standard_schema()),
        drain_batch=4,
        drain_period=1.0,
    )
    manager.install_driver(SnmpTrapEventDriver())
    return manager


@pytest.fixture
def trap_agent(network, host, em):
    agent = SnmpAgent(host, network)
    agent.add_trap_sink(Address("gateway", wire.TRAP_PORT))
    return agent


def deliver(network, n=1):
    """Advance enough for traps to arrive and the pump to run."""
    network.clock.advance(float(max(2, n)))


class TestIngestAndTranslate:
    def test_trap_becomes_event(self, network, em, trap_agent):
        got = []
        em.register_listener(got.append)
        trap_agent.send_trap(wire.TRAP_LOAD_HIGH, (wire.VarBind(wire.LA_LOAD_1, 250),))
        deliver(network)
        assert len(got) == 1
        event = got[0]
        assert event.name == "load.high"
        assert event.severity == "warning"
        assert event.source_host == "n0"
        assert event.fields[wire.oid_str(wire.LA_LOAD_1)] == 250

    def test_unknown_trap_oid_named_generically(self, network, em, trap_agent):
        got = []
        em.register_listener(got.append)
        trap_agent.send_trap((1, 3, 6, 1, 4, 1, 9, 9))
        deliver(network)
        assert got[0].name.startswith("trap.")
        assert got[0].severity == "info"

    def test_garbage_datagram_counted_undecodable(self, network, em):
        network.add_host("noisy", site="default")
        network.send("noisy", Address("gateway", wire.TRAP_PORT), b"\xde\xad")
        deliver(network)
        assert em.stats["undecodable"] == 1

    def test_event_recorded_to_history(self, network, em, trap_agent):
        trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        deliver(network)
        result = em.history.query("SELECT EventName, Level FROM LogEvent")
        assert result.rows == [["load.high", "warning"]]

    def test_duplicate_port_driver_rejected(self, em):
        with pytest.raises(ValueError):
            em.install_driver(SnmpTrapEventDriver())


class TestListeners:
    def test_filter_by_source(self, network, em, trap_agent, hosts):
        """Every listener hears every event; one that wants a single
        source filters in its callback."""
        other = SnmpAgent(hosts[1], network, port=1161)
        other.add_trap_sink(Address("gateway", wire.TRAP_PORT))
        only_n0, every = [], []
        em.register_listener(
            lambda e: only_n0.append(e) if e.source_host == "n0" else None
        )
        em.register_listener(every.append)
        trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        other.send_trap(wire.TRAP_LOAD_HIGH)
        deliver(network)
        assert len(only_n0) == 1 and len(every) == 2

    def test_filter_by_name_prefix(self, network, em, trap_agent):
        """A listener that wants one family of events filters by name in
        its callback."""
        load_events = []
        em.register_listener(
            lambda e: load_events.append(e) if e.name.startswith("load.") else None
        )
        trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        trap_agent.send_trap((1, 3, 6, 1, 4, 1, 5))
        deliver(network)
        assert len(load_events) == 1

    def test_unregister(self, network, em, trap_agent):
        got = []
        reg = em.register_listener(got.append)
        assert em.unregister_listener(reg)
        assert not em.unregister_listener(reg)
        trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        deliver(network)
        assert got == []


class TestBuffering:
    def test_burst_within_buffers_not_lost(self, network, em, trap_agent):
        got = []
        em.register_listener(got.append)
        for _ in range(20):  # fast 8 + disk 16 can hold it
            trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        network.clock.advance(10.0)  # several pump ticks at batch=4
        assert len(got) == 20
        assert em.stats["spilled"] > 0
        assert em.stats["dropped"] == 0

    def test_overflow_beyond_both_buffers_drops(self, network, em, trap_agent):
        for _ in range(40):  # > 8 + 16 before any pump tick
            trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        network.clock.advance(0.5)  # deliver datagrams, no pump yet
        assert em.stats["dropped"] > 0

    def test_pump_respects_batch_limit(self, network, em, trap_agent):
        for _ in range(6):
            trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        network.clock.advance(0.9)  # delivered, not yet pumped
        assert em.pump() == 4  # batch
        assert em.pump() == 2
        assert em.pump() == 0

    def test_backlog_reports_buffered(self, network, em, trap_agent):
        for _ in range(3):
            trap_agent.send_trap(wire.TRAP_LOAD_HIGH)
        network.clock.advance(0.5)
        assert em.backlog() == 3


class TestOutbound:
    def test_transmit_translates_to_native(self, network, em):
        """Events can be pushed back out as native SNMP traps."""
        network.add_host("sink", site="default")
        got = []
        network.listen(
            Address("sink", 162),
            lambda p, s: None,
            datagram_handler=lambda p, s: got.append(wire.SnmpMessage.decode(p)),
        )
        event = Event(
            source_host="gateway",
            name="load.high",
            severity="warning",
            time=network.clock.now(),
            fields={wire.oid_str(wire.LA_LOAD_1): 300},
        )
        em.transmit(event, Address("sink", 162), kind="snmp-trap")
        network.clock.advance(1.0)
        assert len(got) == 1
        assert got[0].pdu_type == wire.TAG_TRAP
        assert em.stats["transmitted"] == 1

    def test_transmit_unknown_kind_rejected(self, em, network):
        event = Event("g", "x", "info", 0.0)
        with pytest.raises(ValueError):
            em.transmit(event, Address("sink", 1), kind="smoke-signals")

def test_second_gateway_event_propagation(network):
    """A second gateway's EventManager receives what the first emits —
    the paper's inter-gateway event propagation."""
    network.add_host("gw2", site="default")
    em1 = EventManager(network, "gateway", GatewayPolicy(), drain_period=1.0)
    em1.install_driver(SnmpTrapEventDriver())
    em2 = EventManager(network, "gw2", GatewayPolicy(), drain_period=1.0)
    em2.install_driver(SnmpTrapEventDriver())
    got = []
    em2.register_listener(got.append)
    event = Event(
        source_host="gateway",
        name="load.high",
        severity="warning",
        time=network.clock.now(),
        fields={},
    )
    em1.transmit(event, Address("gw2", wire.TRAP_PORT), kind="snmp-trap")
    network.clock.advance(3.0)
    assert len(got) == 1
    assert got[0].name == "load.high"
