"""Deliveries are invariant, datagrams are not.

The stream hub ships one ``gridrm-frame`` datagram per consumer address
per publish (attach replay, resume flush) instead of one datagram per
subscription.  What a consumer observes *per subscription* — which
batches, their columns and rows, ``published_at`` / ``source_url`` /
``replay`` — must not depend on the framing; how many datagrams cross
the wire must.

``golden_stream_frames.json`` was produced by running this module's
:func:`scenario` against the commit *before* frames existed
(``python -m tests.test_stream_frames > tests/golden_stream_frames.json``
from this repo's root with ``PYTHONPATH`` on that commit's ``src``), the
recipe of ``tests/test_query_analysed_once.py``.  The scenario's links have no
jitter, so no virtual instant depends on how many datagrams drew from
the network's RNG and the two commits are comparable field by field.
One batch was re-recorded since: the ``history`` attach replay (cq 9)
lists its eight rows in ``RecordedAt`` order, as the store's index now
keeps them, where the parent listed them in arrival order (same rows).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.request_manager import QueryMode
from repro.gma import streams
from repro.gma.streams import Republisher, StreamConsumer
from repro.obs import check_trace
from repro.simnet.clock import VirtualClock
from repro.simnet.link import LAN, WAN
from repro.simnet.network import Network
from repro.sql.plan import BoundPlan, ShapeGroup
from repro.testbed import build_site

from .test_gma_streams import _fabric

GOLDEN_PATH = Path(__file__).with_name("golden_stream_frames.json")

ROUNDS = 5
#: Three consumer addresses; the last two are one host on two ports.
ADDRESSES = ("wall:8501", "desk:8501", "desk:8502")
#: (consumer index, flavour, SQL): 12 subscriptions of mixed selectivity
#: over two groups.
SUBSCRIPTIONS = (
    (0, "stream", "SELECT HostName, LoadAverage1Min FROM Processor"),
    (0, "stream", "SELECT HostName, LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 4"),
    (0, "stream", "SELECT HostName, CPUUtilization FROM Processor WHERE CPUUtilization < 60"),
    (0, "stream", "SELECT HostName, RAMAvailableMB FROM MainMemory"),
    (0, "stream", "SELECT HostName FROM Processor WHERE CPUCount > 64"),  # never
    (0, "latest", "SELECT HostName, CPUCount FROM Processor"),
    (1, "stream", "SELECT HostName, LoadAverage1Min FROM Processor WHERE HostName = 'site-a-n02'"),
    (1, "stream", "SELECT HostName, RAMSizeMB FROM MainMemory WHERE RAMSizeMB >= 2048"),
    (1, "history", "SELECT HostName, LoadAverage5Min FROM Processor"),
    (1, "stream", "SELECT HostName, ClockSpeedMHz FROM Processor WHERE ClockSpeedMHz > 800"),
    (2, "stream", "SELECT HostName, VirtualAvailableMB FROM MainMemory WHERE HostName = 'site-a-n03'"),
    (2, "stream", "SELECT HostName, CPUIdle FROM Processor WHERE CPUIdle > 50"),
)


def quiet_network(seed):
    """A network that draws nothing from its RNG (see module doc)."""
    return Network(
        VirtualClock(),
        seed=seed,
        lan=dataclasses.replace(LAN, jitter=0.0),
        wan=dataclasses.replace(WAN, jitter=0.0),
    )


def acquire(site):
    """One acquisition round: every source, both groups, then settle."""
    for group in ("Processor", "MainMemory"):
        site.gateway.query(
            list(site.source_urls), f"SELECT * FROM {group}", mode=QueryMode.REALTIME
        )
    site.clock.advance(10.0)


def scenario(spy=None):
    """4 SNMP agents + 1 Ganglia agent, one warm-up round (so ``latest``
    and ``history`` have something to replay), 12 registrations, then
    :data:`ROUNDS` acquisition rounds.  ``spy(hub)`` is called before the
    first measured round.  Returns (site, consumers)."""
    network = quiet_network(23)
    site = build_site(
        network,
        name="site-a",
        n_hosts=4,
        agents=("snmp", "ganglia"),
        seed=23,
    )
    site.clock.advance(60.0)
    acquire(site)
    consumers = [
        StreamConsumer(network, host, port=int(port))
        for host, _, port in (a.partition(":") for a in ADDRESSES)
    ]
    hub = site.gateway.streams
    for index, flavour, sql in SUBSCRIPTIONS:
        consumers[index].register(hub.address, sql, flavour=flavour)
    site.clock.advance(1.0)
    if spy is not None:
        spy(hub)
    for _ in range(ROUNDS):
        acquire(site)
    return site, consumers


def observed(site, consumers):
    """What the golden pins: per subscription (registration order), every
    delivered batch, and the hub's ``pushes``.

    Batches are listed by ``(published_at, source_url)``: sibling sources
    of one fan-out publish within microseconds of each other, delivery
    order across datagrams is explicitly unordered (DESIGN section 14),
    and a frame's transfer time is not a lone batch's.
    """
    deliveries = []
    for cq_id, (index, _, _) in enumerate(SUBSCRIPTIONS, start=1):
        deliveries.append(
            sorted(
                [
                    [
                        b["cq"], b["columns"], b["rows"],
                        b["published_at"], b["source_url"], b["replay"],
                    ]
                    for b in consumers[index].batches
                    if b["cq"] == cq_id
                ],
                key=lambda b: (b[3], b[4]),
            )
        )
    return {
        "deliveries": deliveries,
        "pushes": site.gateway.streams.stats["pushes"],
    }


def golden():
    return observed(*scenario())


# ----------------------------------------------------------------------
# (a) the seeded site: same deliveries as the parent, fewer datagrams
# ----------------------------------------------------------------------
class TestSeededSite:
    def test_deliveries_and_pushes_equal_the_parents(self):
        want = json.loads(GOLDEN_PATH.read_text())
        got = json.loads(json.dumps(golden()))
        assert got["pushes"] == want["pushes"]
        for cq_id, (mine, theirs) in enumerate(
            zip(got["deliveries"], want["deliveries"]), start=1
        ):
            assert mine == theirs, f"cq {cq_id} ({SUBSCRIPTIONS[cq_id - 1][2]})"
        assert len(got["deliveries"]) == len(want["deliveries"]) == 12
        # The scenario is worth pinning: most subscriptions are fed, one
        # never is, and replays are part of the sequences.
        assert sum(1 for d in want["deliveries"] if d) == 11
        assert any(b[5] for d in want["deliveries"] for b in d)

    def test_one_datagram_per_owed_consumer_address_per_publish(self):
        """One datagram per owed consumer address per query *round*: a
        query over all sources calls the hub once, after its fan-out, so
        each of the 10 queries costs at most one frame per address where
        per-source publishing cost up to one per address per source."""
        log = []

        def spy(hub):
            network = hub.network
            inner = hub.publish

            def publish(group, sources):
                before = {cq.cq_id: cq.delivered for cq in hub._subs.values()}
                datagrams = network.stats.datagrams
                frames = hub.stats["frames"]
                pushed = inner(group, sources)
                owed = {
                    cq.consumer
                    for cq in hub._subs.values()
                    if cq.delivered > before[cq.cq_id]
                }
                log.append(
                    (
                        network.stats.datagrams - datagrams,
                        hub.stats["frames"] - frames,
                        len(owed),
                        pushed,
                    )
                )
                return pushed

            hub.publish = publish

        site, consumers = scenario(spy)
        assert len(log) == ROUNDS * 2  # one call per query, not per source
        for datagrams, frames, addresses, pushed in log:
            assert datagrams == frames == addresses
            assert pushed >= addresses
        # Every query of the scenario owes all three addresses something.
        assert {addresses for _, _, addresses, _ in log} == {3}
        # One datagram per subscription would have been 179; one per
        # address per source fetch was 110; one per address per round is 30.
        assert sum(p for _, _, _, p in log) == 179
        assert sum(d for d, _, _, _ in log) == 30
        hub = site.gateway.streams
        assert hub.stats["pushes"] == sum(
            len(c.batches) for c in consumers
        )
        assert hub.snapshot()["frames"] == hub.stats["frames"]


    def test_a_round_runs_each_subscription_once_per_layout(self, monkeypatch):
        """Counts, not clocks: one group evaluation per (statement shape,
        layout) per round.  The Processor round publishes 5 snapshots of
        one layout, and its 9 live Processor subscriptions are 9 shapes:
        the hub makes 9 ``ShapeGroup.execute_each`` calls of one plan
        each — a group of one takes the path every group takes, not its
        plan's ``execute_each`` — and no ``execute`` (one per
        subscription per source, 45, before the WHERE ran once per
        round)."""
        site, _ = scenario()
        hub = site.gateway.streams
        counts = {"execute": 0, "execute_each": 0, "snapshots": 0, "layouts": 0}
        groups = []
        inner = hub.publish

        def publish(group, sources):
            counts["snapshots"] += len(sources)
            counts["layouts"] += len({tuple(columns) for _, columns, _, _ in sources})
            with monkeypatch.context() as m:
                for name in ("execute", "execute_each"):
                    real = getattr(BoundPlan, name)

                    def counted(plan, arg, real=real, name=name):
                        counts[name] += 1
                        return real(plan, arg)

                    m.setattr(BoundPlan, name, counted)
                real_group = ShapeGroup.execute_each

                def evaluated(group, parts):
                    groups.append(len(group.plans))
                    return real_group(group, parts)

                m.setattr(ShapeGroup, "execute_each", evaluated)
                return inner(group, sources)

        hub.publish = publish
        live = [cq for cq in hub._subs.values() if cq.group == "Processor"]
        site.gateway.query(
            list(site.source_urls), "SELECT * FROM Processor", mode=QueryMode.REALTIME
        )
        assert len(live) == 9
        assert len({cq.shape or cq.cq_id for cq in live}) == 9
        assert counts == {"execute": 0, "execute_each": 0, "snapshots": 5, "layouts": 1}
        assert groups == [1] * 9


#: ``benchmarks/e2e/workloads.py``'s ``stream_events`` subscription set:
#: 8 statement shapes x 8 literal variants over 8 hosts, (SQL, rows per
#: round).  ``{one}`` / ``{other}`` are hosts ``k`` and ``k + 3``.
EVENT_SHAPES = (
    ("SELECT HostName, LoadAverage1Min FROM Processor WHERE LoadAverage1Min >= {minus}", 8),
    ("SELECT HostName, CPUUtilization, CPUIdle FROM Processor WHERE CPUCount >= {one_minus}", 8),
    ("SELECT * FROM Processor WHERE HostName = '{one}'", 1),
    ("SELECT HostName, LoadAverage5Min FROM Processor WHERE HostName LIKE 'site-a-n0{k}%'", 1),
    ("SELECT HostName, SiteName, LoadAverage15Min FROM Processor "
     "WHERE SiteName = 'site-a' AND HostName IN ('{one}', '{other}')", 2),
    ("SELECT HostName, CPUUtilization FROM Processor "
     "WHERE HostName = '{other}' AND CPUUtilization >= {minus} ORDER BY HostName", 1),
    ("SELECT HostName, Vendor, Model FROM Processor WHERE CPUCount < {minus}", 0),
    ("SELECT HostName, CPUUser + CPUSystem FROM Processor "
     "WHERE HostName <> '{one}' AND CPUIdle < {minus} LIMIT 4", 0),
)


def event_site():
    """Eight one-row SNMP sources; two viewers holding four variants of
    every shape each, and a republisher's derivation on a third host."""
    network = quiet_network(11)
    site = build_site(network, name="site-a", n_hosts=8, agents=("snmp",), seed=11)
    site.clock.advance(60.0)
    hosts = site.host_names()
    sqls = [
        sql.format(
            k=k, minus=-k, one_minus=1 - k, one=hosts[k], other=hosts[(k + 3) % 8]
        )
        for k in range(8)
        for sql, _ in EVENT_SHAPES
    ]
    hub = site.gateway.streams
    viewers = [StreamConsumer(network, "viewer-a"), StreamConsumer(network, "viewer-b")]
    for viewer, half in zip(viewers, (sqls[:32], sqls[32:])):
        for sql in half:
            viewer.register(hub.address, sql)
    archiver = Republisher(network, "archiver", consumer_port=8511, policy=site.gateway.policy)
    archiver.derive(
        hub.address, "SELECT HostName, LoadAverage1Min FROM Processor",
        key_column="HostName", value_column="LoadAverage1Min", window=60.0,
        group="HostLoadWindow",
    )
    site.clock.advance(1.0)
    return site, viewers


def test_the_event_set_costs_one_finish_and_one_member_per_distinct_answer(monkeypatch):
    """Counts, not clocks, on the ``stream_events`` set.  Its 65 live
    subscriptions are 14 shape groups, not 9: a literal's sign is a
    token, so ``>= 0`` and ``>= -1`` are two shapes, and five of the
    eight statements split in two.  A round of 8 one-row sources owes
    176 batches in 3 frames, as before, but the hub runs 72 ``_finish``
    calls and frames 94 members, where it ran and framed one per batch
    (176 each).  The shapes that share keep every row for every variant
    (``>=`` below every value: one result per source), and the ``IN``
    shape's variants ``k`` and ``k - 3`` keep the same row of host
    ``k``."""
    site, viewers = event_site()
    hub = site.gateway.streams
    finishes = []
    frames = []
    groups = []
    inner = hub.publish
    real_finish = BoundPlan._finish
    real_send = site.network.send
    real_group = ShapeGroup.execute_each

    def finish(plan, rows):
        finishes.append(len(rows))
        return real_finish(plan, rows)

    def send(src, dst, payload):
        frames.append(payload)
        return real_send(src, dst, payload)

    def evaluated(group, parts):
        groups.append(len(group.plans))
        return real_group(group, parts)

    def publish(group, sources):
        with monkeypatch.context() as m:
            m.setattr(BoundPlan, "_finish", finish)
            m.setattr(site.network, "send", send)
            m.setattr(ShapeGroup, "execute_each", evaluated)
            return inner(group, sources)

    hub.publish = publish
    pushes = hub.stats["pushes"]
    site.gateway.query(
        list(site.source_urls), "SELECT * FROM Processor", mode=QueryMode.REALTIME
    )
    site.clock.advance(1.0)
    assert len(hub._subs) == 65
    assert sorted(groups) == [1, 1, 1, 1, 1, 2, 6, 7, 7, 7, 7, 8, 8, 8]
    assert hub.stats["pushes"] - pushes == 176
    assert len(frames) == 3
    assert len(finishes) == 72
    assert sum(len(part["members"]) for f in frames for part in f["parts"]) == 94
    # Each viewer got one batch per (subscription, source) it keeps.
    want = sum(rows for _, rows in EVENT_SHAPES) * 8
    assert sum(len(v.batches) for v in viewers) == want == 168


# ----------------------------------------------------------------------
# A bare hub (test_gma_streams' fabric) for flow control, replay and loss
# ----------------------------------------------------------------------
def publish(network, hub, slot, *, source="probe://h0"):
    """One publish of one row; returns the datagrams it cost."""
    before = network.stats.datagrams
    row = [f"n{slot}", 0.5, slot]
    hub.publish("Probe", [(source, ["HostName", "Load", "Slot"], [row], network.clock.now())])
    network.clock.advance(1.0)
    return network.stats.datagrams - before


# ----------------------------------------------------------------------
# (b) pause / resume / overflow
# ----------------------------------------------------------------------
class TestPauseAndResume:
    def test_paused_member_is_left_out_and_resume_is_one_frame(self):
        _, network, hub, client, _ = _fabric()
        other = StreamConsumer(network, "other")
        paused = client.register(hub.address, "SELECT Slot FROM Probe")
        sibling = client.register(hub.address, "SELECT HostName FROM Probe")
        far = other.register(hub.address, "SELECT Slot, Load FROM Probe")
        assert client.pause(hub.address, paused)
        for slot in range(3):
            # The sibling on the same address is still framed; the other
            # consumer still gets its own frame.
            assert publish(network, hub, slot) == 2
        assert client.rows(hub.address, paused) == []
        assert client.rows(hub.address, sibling) == [["n0"], ["n1"], ["n2"]]
        assert other.rows(hub.address, far) == [[0, 0.5], [1, 0.5], [2, 0.5]]
        assert hub.buffer_stats()[paused]["buffered"] == 3
        before = network.stats.datagrams, hub.stats["frames"]
        assert client.resume(hub.address, paused) == 3
        network.clock.advance(1.0)
        assert network.stats.datagrams - before[0] == 1
        assert hub.stats["frames"] - before[1] == 1
        # Publish order, one arrival instant, nothing for anyone else.
        assert client.rows(hub.address, paused) == [[0], [1], [2]]
        flushed = client.delivered[hub.host, paused]
        assert [b["published_at"] for b in flushed] == sorted(
            b["published_at"] for b in flushed
        )
        assert len({b["received_at"] for b in flushed}) == 1
        assert len(other.batches) == 3
        assert hub.buffer_stats()[paused]["delivered"] == 3
        # Resuming an empty buffer sends nothing.
        client.pause(hub.address, paused)
        before = network.stats.datagrams
        assert client.resume(hub.address, paused) == 0
        assert network.stats.datagrams == before

    def test_a_resume_flush_is_counted_in_the_hubs_pushes_and_tuples(self):
        _, network, hub, client, _ = _fabric()
        paused = client.register(hub.address, "SELECT Slot FROM Probe")
        client.register(hub.address, "SELECT HostName FROM Probe")
        client.pause(hub.address, paused)
        for slot in range(3):
            publish(network, hub, slot)
        assert client.resume(hub.address, paused) == 3
        network.clock.advance(1.0)
        per_cq = hub.buffer_stats().values()
        assert hub.stats["pushes"] == sum(s["delivered"] for s in per_cq) == 6
        assert hub.stats["tuples"] == sum(s["tuples"] for s in per_cq) == 6
        assert hub.stats["pushes"] == len(client.batches)

    def test_overflow_fates_and_drop_counts_unchanged(self):
        for overflow, kept in (("drop_oldest", [[2], [3]]), ("pause", [[0], [1]])):
            _, network, hub, client, _ = _fabric()
            cq = client.register(
                hub.address, "SELECT Slot FROM Probe", max_buffer=2, overflow=overflow
            )
            client.pause(hub.address, cq)
            for slot in range(4):
                assert publish(network, hub, slot) == 0
            assert hub.stats["dropped"] == 2
            assert hub.buffer_stats()[cq]["dropped"] == 2
            assert hub.stats["pushes"] == hub.stats["frames"] == 0
            assert client.resume(hub.address, cq) == 2
            network.clock.advance(1.0)
            assert client.rows(hub.address, cq) == kept


# ----------------------------------------------------------------------
# (c) attach replay
# ----------------------------------------------------------------------
def test_latest_attach_over_four_sources_is_one_frame():
    _, network, hub, client, _ = _fabric()
    for slot in range(4):
        publish(network, hub, slot, source=f"probe://h{slot}")
    before = network.stats.datagrams, hub.stats["frames"]
    cq = client.register(hub.address, "SELECT Slot FROM Probe", flavour="latest")
    network.clock.advance(1.0)
    assert network.stats.datagrams - before[0] == 1
    assert hub.stats["frames"] - before[1] == 1
    assert hub.stats["replayed"] == 4
    batches = client.delivered[hub.host, cq]
    assert [b["source_url"] for b in batches] == [f"probe://h{i}" for i in range(4)]
    assert all(b["replay"] for b in batches)
    assert client.rows(hub.address, cq) == [[0], [1], [2], [3]]
    assert hub.stats["pushes"] == 4


# ----------------------------------------------------------------------
# (d) loss granularity
# ----------------------------------------------------------------------
def test_a_lost_frame_costs_one_consumer_one_whole_publish():
    _, network, hub, client, _ = _fabric()
    other = StreamConsumer(network, "other")
    mine = [
        client.register(hub.address, "SELECT Slot FROM Probe"),
        client.register(hub.address, "SELECT HostName FROM Probe"),
        client.register(hub.address, "SELECT Slot, Load FROM Probe"),
    ]
    theirs = other.register(hub.address, "SELECT Slot FROM Probe")
    publish(network, hub, 0)
    network.partition({"hub-host", "other"}, {"client"})
    drops = network.stats.drops
    assert publish(network, hub, 1) == 2  # sent, one of them into the void
    assert network.stats.drops - drops == 1
    network.heal()
    publish(network, hub, 2)
    # Every subscription of the partitioned consumer lost publish 1 ...
    assert [len(client.delivered[hub.host, cq]) for cq in mine] == [2, 2, 2]
    assert client.rows(hub.address, mine[0]) == [[0], [2]]
    assert client.rows(hub.address, mine[1]) == [["n0"], ["n2"]]
    # ... nobody else lost anything, and the hub owes what it owed.
    assert other.rows(hub.address, theirs) == [[0], [1], [2]]
    assert hub.stats["pushes"] == 12 and hub.stats["frames"] == 6


# ----------------------------------------------------------------------
# (e) trace: one push span per frame, under the publishing query's execute
# ----------------------------------------------------------------------
def traced_round():
    """The seeded site's last acquisition round, with its frames:
    returns (traces of the round's queries, frames sent in the round)."""
    site, _ = scenario()
    gw = site.gateway
    frames = gw.streams.stats["frames"]
    n_traces = len(gw.tracer.traces())
    acquire(site)
    return gw.tracer.traces()[n_traces:], gw.streams.stats["frames"] - frames


def test_one_push_span_per_frame_under_the_publishing_source():
    """The name is kept, the parent moved: a query publishes its whole
    round once, after the fan-out, so every push span sits under that
    query's ``execute`` span rather than under one ``source`` branch."""
    traces, frames = traced_round()
    assert len(traces) == 2  # Processor, MainMemory
    pushes = []
    for trace in traces:
        assert check_trace(trace) == []
        parents = {c.span_id: s for s in trace.spans for c in s.children}
        for span in trace.spans:
            if span.name != "push":
                continue
            pushes.append(span)
            assert parents[span.span_id].name == "execute"
            attrs = span.attrs
            assert attrs["group"] in ("Processor", "MainMemory")
            assert attrs["consumer"] in ADDRESSES
            # One member per (subscription, source) the round owed it.
            assert len(attrs["cqs"]) >= len(set(attrs["cqs"])) >= 1
            assert attrs["rows"] >= len(attrs["cqs"])
            # Everything in one frame belongs to one consumer address.
            owners = {ADDRESSES[SUBSCRIPTIONS[cq - 1][0]] for cq in attrs["cqs"]}
            assert owners == {attrs["consumer"]}
    assert len(pushes) == frames > 0
    assert any(len(set(s.attrs["cqs"])) > 1 for s in pushes)
    assert any(len(s.attrs["cqs"]) > len(set(s.attrs["cqs"])) for s in pushes)


# ----------------------------------------------------------------------
# (f) the query round is the unit of publishing
# ----------------------------------------------------------------------
def round_site():
    """Three SNMP sources, one consumer following every Processor row."""
    network = quiet_network(5)
    site = build_site(
        network, name="site-a", n_hosts=3, agents=("snmp",), seed=5
    )
    site.clock.advance(60.0)
    consumer = StreamConsumer(network, "viewer")
    consumer.register(
        site.gateway.streams.address, "SELECT HostName, LoadAverage1Min FROM Processor"
    )
    return site, consumer


def round_query(site):
    return site.gateway.query(
        list(site.source_urls), "SELECT * FROM Processor", mode=QueryMode.REALTIME
    )


def test_completed_sources_are_delivered_when_a_sibling_fails():
    site, consumer = round_site()
    site.fail_host("site-a-n01")
    result = round_query(site)
    site.clock.advance(1.0)
    assert [s.ok for s in result.statuses] == [True, False, True]
    assert [b["source_url"] for b in consumer.batches] == [
        site.source_urls[0], site.source_urls[2]
    ]
    assert site.gateway.streams.stats["frames"] == 1


def test_completed_sources_are_delivered_when_the_fan_out_raises(monkeypatch):
    site, consumer = round_site()
    dispatcher = site.gateway.request_manager.dispatcher
    run = dispatcher.run

    def run_then_raise(*args, **kwargs):
        run(*args, **kwargs)
        raise RuntimeError("fan-out bug")

    monkeypatch.setattr(dispatcher, "run", run_then_raise)
    with pytest.raises(RuntimeError, match="fan-out bug"):
        round_query(site)
    site.clock.advance(1.0)
    assert sorted(b["source_url"] for b in consumer.batches) == sorted(site.source_urls)
    assert site.gateway.streams.stats["frames"] == 1


def test_a_slow_source_delays_its_siblings_frame_to_the_end_of_the_round():
    """The declared cost of one frame per round: fast siblings leave
    with the slowest source, yet each batch is stamped when its own fetch
    produced it."""
    site, consumer = round_site()
    site.network.set_service_time("site-a-n02", 0.5)
    started = site.clock.now()
    round_query(site)
    ended = site.clock.now()
    site.clock.advance(1.0)
    stamps = {b["source_url"]: b["published_at"] for b in consumer.batches}
    fast, slow = site.source_urls[:2], site.source_urls[2]
    assert set(stamps) == set(site.source_urls)
    assert all(stamps[u] < started + 0.5 < stamps[slow] for u in fast)
    assert stamps[slow] <= ended
    # One frame: every batch arrived at the same instant, after the round.
    assert len({b["received_at"] for b in consumer.batches}) == 1
    assert consumer.batches[0]["received_at"] > ended


def test_frame_helpers_are_the_wire_form():
    """A frame states each source part's stamps once, and each member
    names every subscription its result is owed to; decoding expands a
    member back into one batch per subscription, each with rows of its
    own, so a consumer sees the batches it always saw."""
    member = streams.encode_batch([7, 9], ["a"], [[1]])
    assert member == {"cqs": [7, 9], "columns": ["a"], "rows": [[1]]}
    frame = streams.encode_frame([(("u", 2.0, False), [member])])
    assert frame == {
        "kind": "gridrm-frame",
        "parts": [{"source_url": "u", "published_at": 2.0, "replay": False, "members": [member]}],
    }
    batches = streams.decode_frame(frame)
    assert batches == [
        {"kind": "gridrm-tuples", "cq": cq, "columns": ["a"], "rows": [[1]],
         "published_at": 2.0, "source_url": "u", "replay": False}
        for cq in (7, 9)
    ]
    assert batches == streams.decode_batch(member, published_at=2.0, source_url="u", replay=False)
    first, second = batches
    assert first["rows"][0] is not second["rows"][0] is not member["rows"][0]
    # The bare member is a member codec, not a datagram.
    assert streams.decode_frame(member) == []
    _, _, hub, client, _ = _fabric()
    client._on_datagram(member, hub.address)
    assert client.batches == [] and client.received == 0


def test_a_widely_shared_result_is_split_so_no_member_spreads_too_far():
    """A member naming ``n`` subscriptions over ``size`` items decodes
    into ``n * size`` copies, so a consumer skips one past
    ``MEMBER_SPREAD * (n + size)``, and the hub splits a result shared
    that widely over several members: 20 subscriptions of one statement
    over 20 one-value rows (41 items: a column name, 20 rows, 20 values)
    make members of 9, 9 and 2 ids, and every subscription still gets
    its batch."""
    _, network, hub, client, _ = _fabric()
    cqs = [client.register(hub.address, "SELECT Slot FROM Probe") for _ in range(20)]
    frames = []
    real_send = network.send

    def send(src, dst, payload):
        frames.append(payload)
        return real_send(src, dst, payload)

    network.send = send
    rows = [[f"n{i}", 0.5, i] for i in range(20)]
    hub.publish("Probe", [("probe://h0", ["HostName", "Load", "Slot"], rows, network.clock.now())])
    network.clock.advance(1.0)
    (frame,) = frames
    (part,) = frame["parts"]
    assert [len(m["cqs"]) for m in part["members"]] == [9, 9, 2]
    assert [client.rows(hub.address, cq) for cq in cqs] == [[[i] for i in range(20)]] * 20
    # One id more in a member is skipped whole at the consumer.
    wide = streams.encode_batch(cqs[:10], ["Slot"], [[i] for i in range(20)])
    assert streams.decode_batch(wide, 1.0, "u", False) == []
    assert len(streams.decode_batch(dict(wide, cqs=cqs[:9]), 1.0, "u", False)) == 9


if __name__ == "__main__":
    answer = golden()  # one subscription per line
    print('{"pushes": %d, "deliveries": [' % answer["pushes"])
    print(",\n".join(json.dumps(d) for d in answer["deliveries"]))
    print("]}")
