"""Unit tests for the streaming plane (:mod:`repro.gma.streams`).

Covers the hub's producer flavours and replay semantics, bounded-buffer
backpressure fates, the admission interplay (brownout suppression, typed
shed on registration), deadline enforcement on the registration hop,
lease sweep / tombstone grace / clock-inflation resurrection, consumer
lease recovery, the republisher's windowed derivation, trace spans and
the console/servlet surfaces.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.errors import OverloadError
from repro.core.history import HistoryStore
from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.core.shed import PressureState
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.gma.archiver import EventArchiver
from repro.gma.streams import (
    FLAVOURS,
    REPLAY_LIMIT,
    Republisher,
    StreamConsumer,
    StreamHub,
    decode_batch,
    encode_batch,
    encode_frame,
)
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site, build_testbed
from tests.conftest import paper_policy
from tests.history_rows import record_rows

PROBE = GlueGroup(
    name="Probe",
    fields=(
        GlueField("HostName", "TEXT"),
        GlueField("Load", "REAL"),
        GlueField("Slot", "INTEGER"),
    ),
    description="synthetic streaming group",
)


def _fabric(policy=None, *, history=False, overload=None, tracer=None):
    clock = VirtualClock()
    network = Network(clock, seed=0)
    network.add_host("hub-host", site="t")
    schema = GlueSchema("t-1", groups=(PROBE,))
    policy = policy or GatewayPolicy()
    store = HistoryStore(schema) if history else None
    hub = StreamHub(
        network,
        "hub-host",
        plans=PlanCache(schema),
        schema=schema,
        policy=policy,
        history=store,
        overload=overload,
        tracer=tracer,
    )
    consumer = StreamConsumer(network, "client")
    return clock, network, hub, consumer, store


def _publish(hub, clock, rows, *, source="probe://h0"):
    hub.publish("Probe", [(source, ["HostName", "Load", "Slot"], rows, clock.now())])
    clock.advance(1.0)


def _silence_renewals(consumer):
    """Cancel the consumer's auto-renew timer; the test drives leases."""
    if consumer._renew_timer is not None:
        consumer._renew_timer.cancel()
        consumer._renew_timer = None
        consumer._renew_period = 0.0


class _FakeOverload:
    """Just enough of an AdmissionController for the hub's interplay."""

    def __init__(self, state: PressureState) -> None:
        self.enabled = True
        self.state = state
        self.monitor = SimpleNamespace(retry_after=lambda: 3.0)


# ----------------------------------------------------------------------
# Producer flavours
# ----------------------------------------------------------------------
def test_stream_flavour_pushes_only_matching_tuples():
    clock, network, hub, consumer, _ = _fabric()
    cq = consumer.register(
        hub.address,
        "SELECT HostName, Load FROM Probe WHERE Load > 0.5",
        flavour="stream",
    )
    _publish(hub, clock, [["n0", 0.9, 1], ["n1", 0.1, 2], ["n2", 0.7, 3]])
    assert consumer.rows(hub.address, cq) == [["n0", 0.9], ["n2", 0.7]]
    # A publish with no matching rows must push nothing at all.
    before = len(consumer.delivered.get((hub.host, cq), []))
    _publish(hub, clock, [["n3", 0.2, 4]])
    assert len(consumer.delivered.get((hub.host, cq), [])) == before
    # stream flavour replays nothing on attach.
    assert consumer.delivered[hub.host, cq][0]["replay"] is False


def test_latest_flavour_replays_current_rows_on_attach():
    clock, network, hub, consumer, _ = _fabric()
    _publish(hub, clock, [["n0", 0.9, 1]], source="probe://h0")
    _publish(hub, clock, [["n1", 0.4, 2]], source="probe://h1")
    # The second publish from h0 supersedes the first: latest means
    # *current* rows per source, not the full history.
    _publish(hub, clock, [["n0", 0.6, 5]], source="probe://h0")
    cq = consumer.register(
        hub.address, "SELECT HostName, Load FROM Probe", flavour="latest"
    )
    clock.advance(1.0)
    batches = consumer.delivered[hub.host, cq]
    assert all(b["replay"] for b in batches)
    by_source = {b["source_url"]: b["rows"] for b in batches}
    assert by_source == {
        "probe://h0": [["n0", 0.6]],
        "probe://h1": [["n1", 0.4]],
    }
    assert hub.stats["replayed"] == 2


def test_history_flavour_replays_since_watermark():
    clock, network, hub, consumer, store = _fabric(history=True)
    for t, load in ((10.0, 0.1), (20.0, 0.2), (30.0, 0.3)):
        record_rows(
            store, "Probe",
            [{"HostName": "n0", "Load": load, "Slot": 1}],
            source_url="probe://h0",
            recorded_at=t,
        )
    cq = consumer.register(
        hub.address,
        "SELECT HostName, Load FROM Probe",
        flavour="history",
        watermark=15.0,
    )
    clock.advance(1.0)
    (batch,) = consumer.delivered[hub.host, cq]
    assert batch["replay"] is True
    assert batch["source_url"] == "history://Probe"
    assert batch["rows"] == [["n0", 0.2], ["n0", 0.3]]


def test_history_replay_caps_at_replay_limit():
    """The shipped cap, ``streams.REPLAY_LIMIT`` rows, three short of
    the recorded history."""
    clock, network, hub, consumer, store = _fabric(history=True)
    for i in range(REPLAY_LIMIT + 3):
        record_rows(
            store, "Probe",
            [{"HostName": f"n{i}", "Load": float(i), "Slot": i}],
            source_url="probe://h0",
            recorded_at=float(i),
        )
    cq = consumer.register(
        hub.address, "SELECT HostName FROM Probe", flavour="history"
    )
    clock.advance(1.0)
    (batch,) = consumer.delivered[hub.host, cq]
    # Newest rows win the cap: catch-up, not a full table scan.
    assert batch["rows"] == [[f"n{i}"] for i in range(3, REPLAY_LIMIT + 3)]


def test_narrow_publish_never_fails_the_publisher():
    """A publish carrying a subset of the group's columns must skip the
    subscriptions it cannot satisfy — never raise into the publisher."""
    clock, network, hub, consumer, _ = _fabric()
    wide = consumer.register(hub.address, "SELECT HostName, Load FROM Probe")
    narrow = consumer.register(hub.address, "SELECT HostName FROM Probe")
    # A real-time query that only acquired HostName publishes just that.
    hub.publish("Probe", [("probe://h0", ["HostName"], [["n0"], ["n1"]], clock.now())])
    clock.advance(1.0)
    assert consumer.rows(hub.address, narrow) == [["n0"], ["n1"]]
    assert consumer.delivered.get((hub.host, wide), []) == []
    assert hub.stats["unsatisfied"] == 1
    # The narrow snapshot also cannot feed a later ``latest`` attach.
    late = consumer.register(
        hub.address, "SELECT HostName, Load FROM Probe", flavour="latest"
    )
    clock.advance(1.0)
    assert consumer.delivered.get((hub.host, late), []) == []
    assert hub.stats["unsatisfied"] == 2
    # A full-width publish satisfies everyone again.
    _publish(hub, clock, [["n2", 0.4, 1]])
    assert consumer.rows(hub.address, wide) == [["n2", 0.4]]
    assert consumer.rows(hub.address, late) == [["n2", 0.4]]


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------
def test_paused_subscription_buffers_then_drop_oldest():
    clock, network, hub, consumer, _ = _fabric()
    cq = consumer.register(
        hub.address,
        "SELECT HostName, Slot FROM Probe",
        max_buffer=2,
        overflow="drop_oldest",
    )
    assert consumer.pause(hub.address, cq)
    for slot in range(4):
        _publish(hub, clock, [[f"n{slot}", 0.5, slot]])
    assert consumer.rows(hub.address, cq) == []  # nothing crossed the wire yet
    stats = hub.buffer_stats()[cq]
    assert stats["paused"] and stats["buffered"] == 2
    assert stats["dropped"] == 2 and hub.stats["dropped"] == 2
    flushed = consumer.resume(hub.address, cq)
    clock.advance(1.0)
    assert flushed == 2
    # drop_oldest kept the newest window, flushed in publish order.
    assert consumer.rows(hub.address, cq) == [["n2", 2], ["n3", 3]]
    assert not hub.buffer_stats()[cq]["paused"]


def test_pause_overflow_policy_drops_the_newcomer():
    clock, network, hub, consumer, _ = _fabric()
    cq = consumer.register(
        hub.address,
        "SELECT Slot FROM Probe",
        max_buffer=2,
        overflow="pause",
    )
    consumer.pause(hub.address, cq)
    for slot in range(4):
        _publish(hub, clock, [[f"n{slot}", 0.5, slot]])
    consumer.resume(hub.address, cq)
    clock.advance(1.0)
    # The orderly prefix survives; the late batches were dropped.
    assert consumer.rows(hub.address, cq) == [[0], [1]]
    assert hub.stats["dropped"] == 2


def test_bad_overflow_policy_rejected():
    clock, network, hub, consumer, _ = _fabric()
    from repro.simnet.errors import NetworkError

    with pytest.raises(NetworkError, match="unknown overflow"):
        consumer.register(
            hub.address, "SELECT Slot FROM Probe", overflow="drop_newest"
        )


# ----------------------------------------------------------------------
# Admission interplay
# ----------------------------------------------------------------------
def test_brownout_suppresses_batch_pushes_only():
    overload = _FakeOverload(PressureState.BROWNOUT)
    clock, network, hub, consumer, _ = _fabric(overload=overload)
    batch_cq = consumer.register(
        hub.address, "SELECT Slot FROM Probe", query_class="batch"
    )
    inter_cq = consumer.register(
        hub.address, "SELECT HostName FROM Probe", query_class="interactive"
    )
    _publish(hub, clock, [["n0", 0.5, 1]])
    assert consumer.rows(hub.address, batch_cq) == []
    assert consumer.rows(hub.address, inter_cq) == [["n0"]]
    assert hub.stats["suppressed"] == 1
    assert hub.buffer_stats()[batch_cq]["suppressed"] == 1
    # Pressure relaxes: batch pushes resume, nothing was buffered.
    overload.state = PressureState.NORMAL
    _publish(hub, clock, [["n1", 0.5, 2]])
    assert consumer.rows(hub.address, batch_cq) == [[2]]


def test_shed_state_refuses_batch_registration_with_typed_shed():
    overload = _FakeOverload(PressureState.SHED)
    clock, network, hub, consumer, _ = _fabric(overload=overload)
    with pytest.raises(OverloadError) as exc:
        consumer.register(
            hub.address, "SELECT Slot FROM Probe", query_class="batch"
        )
    assert exc.value.retry_after == 3.0
    assert exc.value.query_class == "batch"
    assert consumer.stats["shed"] == 1
    assert hub.stats["shed"] == 1
    # Interactive / critical registrations still land while shedding.
    assert consumer.register(
        hub.address, "SELECT Slot FROM Probe", query_class="interactive"
    )
    assert consumer.register(
        hub.address, "SELECT Slot FROM Probe", query_class="critical"
    )


def test_subscription_cap_sheds_with_sweep_retry_hint():
    policy = GatewayPolicy(stream_max_subscriptions=1, stream_sweep_period=7.0)
    clock, network, hub, consumer, _ = _fabric(policy)
    consumer.register(hub.address, "SELECT Slot FROM Probe")
    with pytest.raises(OverloadError) as exc:
        consumer.register(hub.address, "SELECT HostName FROM Probe")
    assert exc.value.retry_after == 7.0


def test_exhausted_deadline_refused_at_hub():
    clock, network, hub, consumer, _ = _fabric()
    response = network.request(
        "client",
        hub.address,
        {
            "op": "register",
            "sql": "SELECT Slot FROM Probe",
            "host": "client",
            "port": 9,
            "deadline_budget": 0.0,
        },
    )
    assert response["ok"] is False
    assert "deadline" in response["error"]
    assert hub.subscription_count() == 0


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def test_register_error_paths():
    clock, network, hub, consumer, _ = _fabric()
    from repro.simnet.errors import NetworkError

    with pytest.raises(NetworkError, match="unknown flavour"):
        consumer.register(hub.address, "SELECT Slot FROM Probe", flavour="pull")
    with pytest.raises(NetworkError, match="no group"):
        consumer.register(hub.address, "SELECT Nope FROM Probe")
    assert network.request("client", hub.address, {"op": "warp"}) == {
        "ok": False,
        "error": "unknown op 'warp'",
    }
    assert network.request("client", hub.address, "gibberish") == {
        "ok": False,
        "error": "malformed request",
    }
    assert network.request("client", hub.address, {"op": "renew", "cq": 99}) == {
        "ok": False,
        "error": "missing",
    }
    assert not consumer.deregister(hub.address, 99)


def test_ignores_non_batch_datagrams():
    assert decode_batch({"kind": "other"}) is None
    assert decode_batch({"kind": "gridrm-tuples", "cq": "x"}) is None
    assert decode_batch("text") is None


@pytest.mark.parametrize("instant", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
def test_non_finite_instants_are_refused_on_both_wires(instant):
    """``published_at`` becomes the consumer's watermark and the
    watermark the hub's replay bisect: one unauthenticated datagram with
    ``inf`` would silence every later ``history`` catch-up."""
    clock, network, hub, consumer, store = _fabric(history=True)
    record_rows(
        store, "Probe", [{"HostName": "n0", "Load": 0.1, "Slot": 1}],
        source_url="probe://h0", recorded_at=5.0,
    )
    cq = consumer.register(hub.address, "SELECT Slot FROM Probe", flavour="history")
    clock.advance(1.0)
    (reg,) = consumer._regs
    honest = reg.last_published
    assert honest > 0.0 and consumer.rows(hub.address, cq) == [[1]]
    forged = encode_batch(
        cq, ["Slot"], [[9]], published_at=instant, source_url="x", replay=False
    )
    assert decode_batch(forged) is None
    consumer._on_datagram(encode_frame([forged]), hub.address)
    assert reg.last_published == honest and consumer.rows(hub.address, cq) == [[1]]
    # The hub refuses the same values (and a negative one) as a watermark,
    # with the typed reply of every other bad registration field.
    registration = {
        "op": "register", "sql": "SELECT Slot FROM Probe", "flavour": "history",
        "host": "client", "port": consumer.address.port, "watermark": instant,
    }
    for watermark in (instant, -1.0, [3]):
        reply = network.request(
            "client", hub.address, {**registration, "watermark": watermark}
        )
        assert reply == {"ok": False, "error": f"bad watermark {watermark!r}"}
    assert hub.stats["registered"] == 1


# ----------------------------------------------------------------------
# Lease lifecycle: sweep, tombstone grace, clock inflation, recovery
# ----------------------------------------------------------------------
def test_sweep_tombstones_then_renewal_resurrects():
    policy = GatewayPolicy(stream_sweep_period=1000.0)  # manual sweeps
    clock, network, hub, consumer, _ = _fabric(policy)
    cq = consumer.register(hub.address, "SELECT Slot FROM Probe", lease=30.0)
    _silence_renewals(consumer)
    clock.advance(40.0)
    assert hub.sweep() == 1
    assert hub.subscription_count() == 0
    assert hub.snapshot()["tombstones"] == 1
    assert hub.stats["expired"] == 1
    # Within the grace window a renewal lands, state intact.
    assert consumer.renew(hub.address, cq, 30.0)
    assert hub.stats["resurrected"] == 1
    assert hub.subscription_count() == 1
    _publish(hub, clock, [["n0", 0.5, 1]])
    assert consumer.rows(hub.address, cq) == [[1]]


def test_tombstone_gone_after_second_sweep():
    policy = GatewayPolicy(stream_sweep_period=1000.0)
    clock, network, hub, consumer, _ = _fabric(policy)
    cq = consumer.register(hub.address, "SELECT Slot FROM Probe", lease=30.0)
    _silence_renewals(consumer)
    clock.advance(40.0)
    hub.sweep()
    hub.sweep()  # grace over: the tombstone is discarded
    assert not consumer.renew(hub.address, cq, 30.0)
    assert hub.snapshot()["tombstones"] == 0


def test_renewal_in_flight_across_the_sweep_resurrects():
    """The lease-gap race the tombstone grace exists for.

    A renewal is *sent* before the lease expires, but its transport
    delay (here a WAN hop, ~40ms one way) carries the arrival past both
    the expiry instant and a sweep that runs just after it.  The sweep
    removes the subscription while the renewal is on the wire; without
    the grace the renewal would come back ``missing`` and the
    subscription would be lost despite being renewed in good faith.
    """
    policy = GatewayPolicy(stream_sweep_period=10_000.0)  # manual sweep
    clock, network, hub, consumer, _ = _fabric(policy)
    network.add_host("far-client", site="remote")  # WAN to the hub
    response = network.request(
        "far-client",
        hub.address,
        {
            "op": "register",
            "sql": "SELECT Slot FROM Probe",
            "host": "far-client",
            "port": 8501,
            "lease": 30.0,
        },
    )
    cq = response["cq"]
    expiry = hub._subs[cq].expires_at
    clock.call_at(expiry + 0.001, hub.sweep)  # sweeper wins the race...
    outcomes = []
    clock.call_at(
        expiry - 0.02,  # ...against a renewal sent while still alive
        lambda: outcomes.append(
            network.request(
                "far-client",
                hub.address,
                {"op": "renew", "cq": cq, "lease": 30.0},
            )
        ),
    )
    clock.advance(31.0)
    assert hub.stats["expired"] == 1, "sweep must have fired mid-flight"
    assert outcomes == [{"ok": True}]
    assert hub.stats["resurrected"] == 1
    assert hub.subscription_count() == 1


def test_consumer_reregisters_when_lease_lapsed_beyond_grace():
    clock, network, hub, consumer, _ = _fabric()
    cq = consumer.register(hub.address, "SELECT Slot FROM Probe", lease=60.0)
    # Simulate a lapse beyond tombstone grace: the hub forgot the cq.
    network.add_host("admin", site="t")
    assert network.request(
        "admin", hub.address, {"op": "deregister", "cq": cq}
    ) == {"ok": True}
    consumer._renew_all()
    assert consumer.stats["reregisters"] == 1
    new_cq = consumer._regs[0].cq_id
    assert new_cq != cq
    _publish(hub, clock, [["n0", 0.5, 3]])
    assert consumer.rows(hub.address, new_cq) == [[3]]


def test_one_consumer_at_two_hubs_holds_equal_ids_apart():
    """Ids are per-hub counters: a consumer following two hubs holds
    (hub A, 1) and (hub B, 1).  Deliveries, watermarks, deregistration
    and renewal must each address one of them, not both."""
    clock, network, hub_a, consumer, _ = _fabric()
    network.add_host("hub-b-host", site="t")
    schema = GlueSchema("t-1", groups=(PROBE,))
    hub_b = StreamHub(
        network, "hub-b-host", plans=PlanCache(schema), schema=schema,
        policy=GatewayPolicy(),
    )
    sql = "SELECT Slot FROM Probe"
    cq_a = consumer.register(hub_a.address, sql, lease=60.0)
    cq_b = consumer.register(hub_b.address, sql, lease=60.0)
    assert cq_a == cq_b == 1
    reg_a, reg_b = consumer._regs

    _publish(hub_a, clock, [["n0", 0.5, 1]])
    assert reg_a.last_published > 0.0 and reg_b.last_published == 0.0
    _publish(hub_b, clock, [["n0", 0.5, 2]])
    assert reg_a.last_published < reg_b.last_published
    assert consumer.rows(hub_a.address, 1) == [[1]]
    assert consumer.rows(hub_b.address, 1) == [[2]]
    assert sorted(consumer.delivered) == [("hub-b-host", 1), ("hub-host", 1)]

    assert consumer.deregister(hub_a.address, cq_a)
    assert consumer._regs == [reg_b]
    assert consumer._renew_timer is not None
    assert hub_a.subscription_count() == 0
    clock.advance(200.0)  # three leases on: hub B's was renewed throughout
    assert consumer.stats["renewals"] >= 5
    assert hub_b.subscription_count() == 1 and hub_b.stats["expired"] == 0
    _publish(hub_b, clock, [["n0", 0.5, 3]])
    assert consumer.rows(hub_b.address, 1) == [[2], [3]]


def test_expired_subscription_receives_no_pushes():
    policy = GatewayPolicy(stream_sweep_period=1000.0)
    clock, network, hub, consumer, _ = _fabric(policy)
    cq = consumer.register(hub.address, "SELECT Slot FROM Probe", lease=5.0)
    _silence_renewals(consumer)  # let the lease lapse; keep the hub entry
    clock.advance(10.0)
    _publish(hub, clock, [["n0", 0.5, 1]])
    assert consumer.rows(hub.address, cq) == []


def test_an_aggregate_over_a_text_value_leaves_its_snapshot_unsatisfied():
    """``MAX`` over a TEXT value among numbers is a typed SQL error: the
    subscription skips that snapshot and the round goes on."""
    clock, network, hub, consumer, _ = _fabric()
    cq = consumer.register(hub.address, "SELECT MAX(Load) AS Top FROM Probe")
    columns = ["HostName", "Load", "Slot"]
    now = clock.now()
    hub.publish("Probe", [
        ("probe://h0", columns, [["n0", 0.5, 1], ["n1", "n/a", 2]], now),
        ("probe://h1", columns, [["n2", 0.7, 3]], now),
    ])
    clock.advance(1.0)
    assert hub.stats["unsatisfied"] == 1
    assert [b["source_url"] for b in consumer.delivered[hub.host, cq]] == ["probe://h1"]
    assert consumer.rows(hub.address, cq) == [[0.7]]


# ----------------------------------------------------------------------
# Republisher: derived streams over an upstream hub
# ----------------------------------------------------------------------
def test_republisher_derives_windowed_aggregates_downstream():
    clock, network, hub, _, _ = _fabric()
    rep = Republisher(network, "rep-host")
    assert isinstance(rep, EventArchiver)  # still the archiving consumer
    assert rep.event_count() == 0
    rep.derive(
        hub.address,
        "SELECT HostName, Load FROM Probe",
        key_column="HostName",
        value_column="Load",
        window=10.0,
        group="DerivedLoad",
    )
    downstream = StreamConsumer(network, "viewer", port=8601)
    cq = downstream.register(
        rep.hub.address,
        "SELECT HostName, AvgValue, MinValue, MaxValue, Samples "
        "FROM DerivedLoad",
    )
    _publish(hub, clock, [["n0", 1.0, 1], ["n1", 3.0, 2]])
    _publish(hub, clock, [["n0", 2.0, 3], ["bad", "oops", 4]])
    clock.advance(12.0)  # close the window
    assert rep.stats["samples"] == 3
    assert rep.stats["skipped_rows"] == 1  # the non-numeric Load
    assert rep.stats["windows"] == 1
    (batch,) = downstream.delivered[rep.hub.host, cq]
    assert batch["source_url"] == "republish://rep-host/DerivedLoad"
    assert batch["rows"] == [
        ["n0", 1.5, 1.0, 2.0, 2],
        ["n1", 3.0, 3.0, 3.0, 1],
    ]
    # An empty window publishes nothing.
    clock.advance(10.0)
    assert rep.stats["windows"] == 1
    rep.stop()
    downstream.stop()


def test_republisher_keeps_two_hubs_derivations_apart():
    """Continuous-query ids are per hub, so two upstream gateways both
    hand out cq 1: a derivation folds only the batches its own hub's
    host sent."""
    network = Network(VirtualClock(), seed=3)
    sites = [
        build_site(network, name=name, n_hosts=2, agents=("snmp",), seed=3)
        for name in ("site-a", "site-b")
    ]
    network.clock.advance(60.0)
    rep = Republisher(network, "rep-host")
    derivations = [
        rep.derive(
            site.gateway.streams.address,
            "SELECT HostName, LoadAverage1Min FROM Processor",
            key_column="HostName",
            value_column="LoadAverage1Min",
            window=600.0,
            group=f"Load-{site.name}",
        )
        for site in sites
    ]
    assert [d.cq_id for d in derivations] == [1, 1]
    site_a, site_b = sites
    site_a.gateway.query(
        list(site_a.source_urls), "SELECT * FROM Processor", mode=QueryMode.REALTIME
    )
    network.clock.advance(1.0)
    assert sorted(key for key, _ in derivations[0].pending) == ["site-a-n00", "site-a-n01"]
    assert derivations[1].pending == []
    site_b.gateway.query(
        list(site_b.source_urls), "SELECT * FROM Processor", mode=QueryMode.REALTIME
    )
    network.clock.advance(1.0)
    for site, derivation in zip(sites, derivations):
        hosts = {key for key, _ in derivation.pending}
        assert hosts == {f"{site.name}-n00", f"{site.name}-n01"}, site.name
    assert rep.stats["samples"] == 4
    rep.stop()


def test_republisher_rejects_nonpositive_window():
    clock, network, hub, _, _ = _fabric()
    rep = Republisher(network, "rep-host")
    with pytest.raises(ValueError, match="window"):
        rep.derive(
            hub.address,
            "SELECT HostName, Load FROM Probe",
            key_column="HostName",
            value_column="Load",
            window=0.0,
            group="DerivedLoad",
        )


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_subscribe_trace_reparents_remote_context():
    clock = VirtualClock()
    network = Network(clock, seed=0)
    network.add_host("hub-host", site="t")
    schema = GlueSchema("t-1", groups=(PROBE,))
    hub_tracer = Tracer(clock)
    hub = StreamHub(
        network,
        "hub-host",
        plans=PlanCache(schema),
        schema=schema,
        policy=GatewayPolicy(),
        tracer=hub_tracer,
    )
    client_tracer = Tracer(clock)
    consumer = StreamConsumer(network, "client", tracer=client_tracer)
    _publish(hub, clock, [["n0", 0.7, 1]])
    with client_tracer.start_trace("attach-probe"):
        consumer.register(
            hub.address, "SELECT HostName FROM Probe", flavour="latest"
        )
    client_trace_id = next(
        t.trace_id for t in client_tracer.traces() if t.name == "attach-probe"
    )
    subscribe = [t for t in hub_tracer.traces() if t.name == "subscribe"]
    assert len(subscribe) == 1
    attrs = subscribe[0].root.attrs
    assert attrs["remote_trace"] == client_trace_id
    assert attrs["flavour"] == "latest"
    assert attrs["replayed"] == 1
    # The attach replay ran under its own span inside the subscribe trace.
    assert any(s.name == "replay" for s in subscribe[0].spans)


def test_push_spans_nest_under_the_live_query_trace():
    network, (site,) = build_testbed(n_hosts=2, agents=("snmp",), seed=0)
    gw = site.gateway
    network.clock.advance(60.0)
    consumer = StreamConsumer(network, "viewer")
    consumer.register(
        gw.streams.address, "SELECT HostName, CPUUtilization FROM Processor"
    )
    result = gw.query(
        list(site.source_urls), "SELECT * FROM Processor",
        mode=QueryMode.REALTIME,
    )
    network.clock.advance(1.0)
    assert consumer.rows(gw.streams.address, consumer._regs[0].cq_id)
    trace = gw.tracer.get(result.trace_id)
    pushes = [s for s in trace.spans if s.name == "push"]
    assert pushes, "publish must trace inside the query that fetched"
    assert all(s.attrs["group"] == "Processor" for s in pushes)


# ----------------------------------------------------------------------
# Gateway wiring, console and servlet surfaces
# ----------------------------------------------------------------------
def test_streaming_default_off_and_gateway_wiring():
    """Re-aimed: streaming is on by default; this id pins the wiring of a
    gateway with it off, the paper's (``paper_policy``)."""
    assert GatewayPolicy().streaming_enabled
    network, (site,) = build_testbed(
        n_hosts=2, agents=("snmp",), seed=0, policy=paper_policy()
    )
    gw = site.gateway
    assert gw.streams is None
    assert gw.stats()["streams"] == {"enabled": False}
    from repro.web.console import Console

    assert "DISABLED" in Console(gw).streams_panel()


def test_console_and_servlet_render_stream_state():
    network, (site,) = build_testbed(n_hosts=2, agents=("snmp",), seed=0)
    gw = site.gateway
    network.clock.advance(60.0)
    consumer = StreamConsumer(network, "viewer")
    consumer.register(
        gw.streams.address,
        "SELECT HostName FROM Processor",
        query_class="batch",
    )
    gw.query(
        list(site.source_urls), "SELECT * FROM Processor",
        mode=QueryMode.REALTIME,
    )
    network.clock.advance(1.0)
    from repro.web.console import Console
    from repro.web.servlet import GatewayServlet, http_get

    panel = Console(gw).streams_panel()
    assert "subscriptions: 1 live" in panel
    assert "batch" in panel and "Processor" in panel
    snap = gw.streams.snapshot()
    assert f"{snap['pushes']} batches" in panel
    assert f"in {snap['frames']} frames" in panel
    servlet = GatewayServlet(gw)
    network.add_host("browser", site="ops")
    code, body = http_get(network, "browser", servlet.address, "/streams")
    assert code == 200 and "Continuous queries" in body
    assert f"in {snap['frames']} frames" in body
    stats = gw.stats()["streams"]
    assert stats["subscriptions"] == 1 and stats["pushes"] >= 1
    assert 1 <= stats["frames"] <= stats["pushes"]
    gw.shutdown()
    assert gw.streams._sweep_task is None


def test_race_detector_knows_stream_disciplines():
    from repro.analysis.races import Discipline, RaceDetector

    det = RaceDetector.standard(VirtualClock())
    assert det._disciplines["stream.subs"] is Discipline.EXCLUSIVE
    assert det._disciplines["stream.push"] is Discipline.COMMUTATIVE


def test_flavours_constant_is_the_rgma_triple():
    assert FLAVOURS == ("stream", "latest", "history")
