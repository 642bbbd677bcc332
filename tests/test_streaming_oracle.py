"""Differential oracle for the streaming plane.

The continuous-query path must be *semantically invisible*: the tuples a
subscription delivers on each publish have to be byte-identical to what
a client would get by polling the same SQL against that publish's rows.
The two sides deliberately share no execution code —

* the **streaming side** compiles once through the
  :class:`~repro.core.plans.PlanCache` and evaluates the bound slot plan
  (:mod:`repro.sql.plan`) at the hub on every publish;
* the **oracle side** re-parses and interprets the same SQL with
  :func:`tests.reference_sql.execute_select` over mapping rows —

so any divergence in predicate semantics, projection order, NULL
handling, aggregation, dedup or LIMIT clipping between the compiled and
interpreted engines surfaces as a byte-level mismatch here.

Each seeded case draws a random query (projection / predicate /
aggregate / ORDER BY / DISTINCT / LIMIT mix), a random publish schedule
(row counts, values, NULL injection, shuffled column order), runs both
sides on the virtual clock, and compares ``repr`` of (columns, rows)
per publish — including the no-rows case, where the hub must deliver
nothing at all.  A second check per case registers a ``latest``-flavour
subscription after the schedule and holds its attach replay to the same
oracle over each source's final publish.

Case budget: ``len(SEEDS) * CASES_PER_SEED`` >= 200, enforced by
``test_case_budget``.

A gateway query publishes its whole fan-out in one ``publish`` call, and
the hub runs each subscription's WHERE once over all of the round's
snapshots before finishing each snapshot on its own.  The round cases
(``test_multi_source_rounds_match_the_reference_per_snapshot``) hold
that to the same oracle: 2-8 snapshots per call, each with its own
column order, some lacking a column and some holding a TEXT value where
a number is compared; every (subscription, source) delivery must be the
reference over that snapshot alone and every snapshot the reference
raises on one ``unsatisfied``.  Budget: ``test_round_case_budget``.

Events are tuples too: the event plane (:mod:`repro.gma.subscription`)
is a hub over the ``Event`` group, so the same oracle holds every event
subscription's ``where`` predicate to the interpreted executor
(``test_event_subscriptions_match_polling_oracle``), and a trap storm
costs one frame per consumer address per event however many
subscriptions that address holds (``test_event_storm_costs_one_frame_per_event``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.events import Event
from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.gma.streams import StreamConsumer, StreamHub
from repro.gma.subscription import (
    EVENT_COLUMNS,
    EventPublisher,
    EventSubscriber,
    encode_event,
)
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.errors import SqlError
from repro.sql.parser import parse_select
from repro.testbed import build_site
from tests.reference_sql import execute_select

SEEDS = range(10)
CASES_PER_SEED = 20

PROBE = GlueGroup(
    name="Probe",
    fields=(
        GlueField("HostName", "TEXT"),
        GlueField("SiteName", "TEXT"),
        GlueField("Load", "REAL"),
        GlueField("Temp", "REAL"),
        GlueField("Slot", "INTEGER"),
    ),
    description="synthetic oracle group",
)

COLUMNS = [f.name for f in PROBE.fields]


def _fresh():
    """One isolated hub + consumer on a fresh virtual network."""
    clock = VirtualClock()
    network = Network(clock, seed=0)
    network.add_host("hub-host", site="oracle")
    schema = GlueSchema("oracle-1", groups=(PROBE,))
    hub = StreamHub(
        network,
        "hub-host",
        plans=PlanCache(schema),
        schema=schema,
        policy=GatewayPolicy(),
    )
    consumer = StreamConsumer(network, "oracle-client")
    return clock, network, hub, consumer


# ----------------------------------------------------------------------
# Seeded query / schedule generators
# ----------------------------------------------------------------------
def _gen_where(rng: random.Random) -> str:
    clauses = [
        "",
        f" WHERE Load > {rng.randint(0, 100) / 10}",
        f" WHERE Slot <= {rng.randint(0, 8)}",
        f" WHERE HostName = 'n{rng.randrange(4)}'",
        f" WHERE Temp < {rng.randint(200, 400) / 10} AND Slot > {rng.randrange(4)}",
        f" WHERE SiteName = 'site-{rng.randrange(2)}' "
        f"OR Load >= {rng.randint(0, 80) / 10}",
        f" WHERE Load IS NOT NULL AND Load < {rng.randint(10, 90) / 10}",
    ]
    return rng.choice(clauses)


def _gen_sql(rng: random.Random) -> str:
    where = _gen_where(rng)
    shape = rng.randrange(8)
    if shape == 0:
        return f"SELECT * FROM Probe{where}"
    if shape in (1, 2):
        cols = rng.sample(COLUMNS, rng.randint(1, len(COLUMNS)))
        return f"SELECT {', '.join(cols)} FROM Probe{where}"
    if shape == 3:
        return (
            "SELECT HostName, Load * 2 AS DoubleLoad, Slot + 1 AS NextSlot "
            f"FROM Probe{where}"
        )
    if shape == 4:
        return (
            "SELECT COUNT(*) AS N, AVG(Load) AS MeanLoad, MAX(Temp) AS Hot "
            f"FROM Probe{where}"
        )
    if shape == 5:
        return (
            "SELECT SiteName, COUNT(*) AS N, MIN(Slot) AS FirstSlot "
            f"FROM Probe{where} GROUP BY SiteName ORDER BY SiteName"
        )
    if shape == 6:
        return (
            f"SELECT HostName, Load FROM Probe{where} "
            f"ORDER BY Load DESC, HostName ASC LIMIT {rng.randint(1, 5)}"
        )
    return f"SELECT DISTINCT SiteName, Slot FROM Probe{where} ORDER BY Slot, SiteName"


def _gen_publish(rng: random.Random) -> tuple[list[str], list[list[object]]]:
    """One publish: shuffled column order, 1-6 rows, ~10% NULL injection."""
    columns = list(COLUMNS)
    rng.shuffle(columns)
    rows = []
    for _ in range(rng.randint(1, 6)):
        values = {
            "HostName": f"n{rng.randrange(4)}",
            "SiteName": f"site-{rng.randrange(2)}",
            "Load": round(rng.uniform(0.0, 10.0), 2),
            "Temp": round(rng.uniform(15.0, 45.0), 1),
            "Slot": rng.randrange(8),
        }
        if rng.random() < 0.1:
            values[rng.choice(("Load", "Temp"))] = None
        rows.append([values[c] for c in columns])
    return columns, rows


def _oracle(sql: str, columns: list[str], rows: list[list[object]]):
    """The interpreted side: re-parse, execute over mapping rows."""
    stmt = parse_select(sql)
    return execute_select(stmt, columns, [dict(zip(columns, r)) for r in rows])


# ----------------------------------------------------------------------
# The oracle proper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_matches_polling_oracle(seed: int) -> None:
    rng = random.Random(0xC0FFEE + seed)
    for case in range(CASES_PER_SEED):
        sql = _gen_sql(rng)
        clock, network, hub, consumer = _fresh()
        cq = consumer.register(hub.address, sql, flavour="stream", lease=1e6)
        clock.advance(1.0)

        sources = (f"probe://case/src0", f"probe://case/src1")
        final_publish: dict[str, tuple[list[str], list[list[object]]]] = {}
        for step in range(rng.randint(3, 8)):
            columns, rows = _gen_publish(rng)
            source = sources[step % len(sources)]
            final_publish[source] = (columns, rows)
            before = len(consumer.delivered.get((hub.host, cq), []))
            hub.publish("Probe", [(source, columns, rows, network.clock.now())])
            clock.advance(1.0)
            delivered = consumer.delivered.get((hub.host, cq), [])[before:]

            expected = _oracle(sql, columns, rows)
            if not expected.rows:
                # An empty result must push nothing at all.
                assert delivered == [], (
                    f"seed={seed} case={case} sql={sql!r}: hub pushed "
                    f"{delivered!r} where polling returns no rows"
                )
                continue
            assert len(delivered) == 1, (
                f"seed={seed} case={case} sql={sql!r}: expected one batch, "
                f"got {len(delivered)}"
            )
            batch = delivered[0]
            assert batch["source_url"] == source
            assert not batch["replay"]
            got = repr((batch["columns"], batch["rows"]))
            want = repr((list(expected.columns), list(expected.rows)))
            assert got == want, (
                f"seed={seed} case={case} sql={sql!r}: streamed {got} != "
                f"polled {want} for publish {columns!r} {rows!r}"
            )

        # Attach replay (latest flavour): must equal polling each
        # source's final publish, sources in sorted order, empties
        # skipped — the same query, answered from retained state.
        replay_cq = consumer.register(
            hub.address, sql, flavour="latest", lease=1e6
        )
        clock.advance(1.0)
        replayed = consumer.delivered.get((hub.host, replay_cq), [])
        expected_replay = []
        for source in sorted(final_publish):
            columns, rows = final_publish[source]
            result = _oracle(sql, columns, rows)
            if result.rows:
                expected_replay.append(
                    (source, list(result.columns), list(result.rows))
                )
        # Datagram delivery order across sources is not guaranteed (each
        # send draws its own delay); every batch carries its source_url
        # provenance, so compare per-source.
        got_replay = sorted(
            (b["source_url"], b["columns"], b["rows"]) for b in replayed
        )
        assert all(b["replay"] for b in replayed)
        assert repr(got_replay) == repr(expected_replay), (
            f"seed={seed} case={case} sql={sql!r}: latest replay diverged "
            f"from polling the final publishes"
        )
        hub.close()


def test_case_budget() -> None:
    """The differential oracle covers at least 200 query x schedule cases."""
    assert len(SEEDS) * CASES_PER_SEED >= 200


# ----------------------------------------------------------------------
# Multi-source rounds: one publish call carries a gateway query's fan-out
# ----------------------------------------------------------------------
ROUND_SEEDS = range(10)
ROUND_CASES_PER_SEED = 12
#: Subscriptions registered per round case, all on one consumer.
ROUND_SUBSCRIPTIONS = 4
NUMERIC_COLUMNS = ("Load", "Temp", "Slot")


def _gen_snapshot(rng: random.Random) -> tuple[list[str], list[list[object]]]:
    """One source's snapshot in a round: its own column order, and now
    and then a column missing or a TEXT value in a numeric column."""
    columns, rows = _gen_publish(rng)
    roll = rng.random()
    if roll < 0.2:
        gone = columns.index(rng.choice(columns))
        columns = columns[:gone] + columns[gone + 1:]
        rows = [row[:gone] + row[gone + 1:] for row in rows]
    elif roll < 0.4:
        row = rng.choice(rows)
        row[columns.index(rng.choice(NUMERIC_COLUMNS))] = rng.choice(("n/a", "", "2.5"))
    return columns, rows


def _reference_or_error(sql: str, columns: list[str], rows: list[list[object]]):
    try:
        return _oracle(sql, columns, rows)
    except SqlError:
        return None


@pytest.mark.parametrize("seed", ROUND_SEEDS)
def test_multi_source_rounds_match_the_reference_per_snapshot(seed: int) -> None:
    """A round of 2-8 snapshots in one ``publish`` call: every
    (subscription, source) delivery is the reference over that snapshot
    alone, in source order, and each snapshot the reference raises on
    is one ``unsatisfied``."""
    rng = random.Random(0x5EED + seed)
    layouts_per_round = []
    raised = delivered_batches = 0
    for case in range(ROUND_CASES_PER_SEED):
        clock, network, hub, consumer = _fresh()
        sqls = [_gen_sql(rng) for _ in range(ROUND_SUBSCRIPTIONS)]
        cqs = [consumer.register(hub.address, sql, lease=1e6) for sql in sqls]
        clock.advance(1.0)
        for step in range(rng.randint(1, 3)):
            sources = [f"probe://case{case}/src{i}" for i in range(rng.randint(2, 8))]
            snapshots = [_gen_snapshot(rng) for _ in sources]
            layouts_per_round.append(len({tuple(c) for c, _ in snapshots}))
            before = {cq: len(consumer.delivered.get((hub.host, cq), [])) for cq in cqs}
            arrived = len(consumer.batches)
            unsatisfied = hub.stats["unsatisfied"]
            now = network.clock.now()
            hub.publish(
                "Probe",
                [(url, columns, rows, now) for url, (columns, rows) in zip(sources, snapshots)],
            )
            clock.advance(1.0)
            want_unsatisfied = 0
            owed = []
            for sql, cq in zip(sqls, cqs):
                got = consumer.delivered.get((hub.host, cq), [])[before[cq]:]
                want = []
                for url, (columns, rows) in zip(sources, snapshots):
                    expected = _reference_or_error(sql, columns, rows)
                    if expected is None:
                        want_unsatisfied += 1
                    elif expected.rows:
                        want.append(
                            repr((url, list(expected.columns), list(expected.rows)))
                        )
                        owed.append((sources.index(url), cq))
                assert [
                    repr((b["source_url"], b["columns"], b["rows"])) for b in got
                ] == want, (
                    f"seed={seed} case={case} step={step} sql={sql!r}: round "
                    f"{snapshots!r} delivered {got!r}"
                )
                delivered_batches += len(want)
            assert hub.stats["unsatisfied"] - unsatisfied == want_unsatisfied, (
                f"seed={seed} case={case} step={step}"
            )
            # One frame owes exactly these (source, subscription) pairs,
            # and each subscription meets its sources in source order.
            # Order across subscriptions is the frame's members' order,
            # which is no part of the contract.
            framed = [
                (sources.index(b["source_url"]), b["cq"])
                for b in consumer.batches[arrived:]
            ]
            assert sorted(framed) == sorted(owed)
            for cq in cqs:
                mine = [source for source, owner in framed if owner == cq]
                assert mine == sorted(mine)
            raised += want_unsatisfied
        hub.close()
    # The schedule is worth running: rounds mix layouts, some snapshots
    # cannot satisfy a subscription, and batches do flow.
    assert max(layouts_per_round) > 1 and raised and delivered_batches


def test_round_case_budget() -> None:
    """The round oracle covers at least 100 multi-source cases, each
    holding several subscriptions over one or more rounds."""
    assert len(ROUND_SEEDS) * ROUND_CASES_PER_SEED >= 100


# ----------------------------------------------------------------------
# Events as tuples: the event plane under the same oracle
# ----------------------------------------------------------------------
EVENT_SEEDS = range(5)

EVENT_WHERES = (
    "",
    "Name LIKE 'alert.%'",
    "Name NOT LIKE '%.high'",
    "Name IN ('load.high', 'breaker.open')",
    "SourceHost = 'n1'",
    "Severity <> 'info'",
    "SourceHost = 'n0' AND Name LIKE 'load.%' AND Severity <> 'error'",
    "SourceHost IN ('n2', 'n3') OR Severity = 'error'",
    "Time >= 20 AND NativeKind = 'snmp-trap'",
    "Name LIKE 'never.%'",
)

EVENT_NAMES = (
    "load.high", "load.low", "alert.cpu-hot", "alert.memory-low",
    "breaker.open", "pressure.brownout",
)


def _event_rig(seed: int):
    """A quiet one-host site (no trap threshold, no alert rules): the
    only events are the ones the test emits."""
    network = Network(VirtualClock(), seed=seed)
    site = build_site(network, name="ev", n_hosts=1, agents=("snmp",), seed=seed)
    publisher = EventPublisher(site.gateway)
    network.add_host("ev-client", site="ev")
    subscriber = EventSubscriber(network, "ev-client")
    return network, site.gateway.events, publisher, subscriber


def _gen_event(rng: random.Random, now: float) -> Event:
    return Event(
        source_host=f"n{rng.randrange(4)}",
        name=rng.choice(EVENT_NAMES),
        severity=rng.choice(("info", "warning", "error")),
        time=now,
        fields={f"k{rng.randrange(3)}": rng.randint(0, 99)},
        native_kind=rng.choice(("snmp-trap", "alert", "")),
    )


@pytest.mark.parametrize("seed", EVENT_SEEDS)
def test_event_subscriptions_match_polling_oracle(seed: int) -> None:
    rng = random.Random(0xE7E27 + seed)
    network, events, publisher, subscriber = _event_rig(seed)
    decoded: list[Event] = []
    subscriber.on_event(decoded.append)
    sids = [
        subscriber.subscribe(publisher.address, where=where, lease=1e6)
        for where in EVENT_WHERES
    ]
    emitted = []
    for _ in range(rng.randint(20, 40)):
        event = _gen_event(rng, network.clock.now())
        emitted.append(event)
        events.emit(event)
        network.clock.advance(1.0)  # one frame per event, in publish order
    rows = [encode_event(e) for e in emitted]

    for where, sid in zip(EVENT_WHERES, sids):
        sql = "SELECT * FROM Event" + (f" WHERE {where}" if where else "")
        expected = _oracle(sql, EVENT_COLUMNS, rows)
        batches = subscriber.consumer.delivered.get((publisher.hub.host, sid), [])
        assert all(b["columns"] == list(expected.columns) for b in batches)
        got = [row for b in batches for row in b["rows"]]
        assert repr(got) == repr(list(expected.rows)), (
            f"seed={seed} where={where!r}: pushed {got!r} != polled "
            f"{list(expected.rows)!r}"
        )
    # The schedule is worth running: the empty predicate saw everything,
    # some predicate saw a strict non-empty subset, one saw nothing.
    delivered = [len(subscriber.consumer.rows(publisher.address, sid)) for sid in sids]
    assert delivered[0] == len(emitted) and delivered[-1] == 0
    assert any(0 < n < len(emitted) for n in delivered)
    # Rows become the emitted events again on the subscriber side.
    assert subscriber.received == len(decoded) == sum(delivered)
    assert [e for e in decoded if e in emitted] == decoded


def test_event_storm_costs_one_frame_per_event() -> None:
    """K subscriptions from one consumer address over N events: N frames
    (and datagrams) carrying K*N batches, not K*N datagrams."""
    k, n = 6, 25
    network, events, publisher, subscriber = _event_rig(0)
    for i in range(k):  # k distinct texts, every one of them always true
        subscriber.subscribe(publisher.address, where=f"Time >= {-i}")
    rng = random.Random(7)
    before = network.stats.datagrams
    for _ in range(n):  # a storm: every event inside one virtual instant
        events.emit(_gen_event(rng, network.clock.now()))
    network.clock.advance(1.0)
    assert publisher.stats["frames"] == n
    assert publisher.stats["pushes"] == k * n
    assert network.stats.datagrams - before == n
    assert subscriber.received == k * n
