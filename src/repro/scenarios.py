"""The five scenario declarations the CLI is generated from.

Each is a :class:`~repro.scenario.Scenario`: what differs between
``chaos``, ``overload``, ``stream``, ``crashtest`` and ``racecheck``.
The lifecycle they all run through, the report they all return and the
dual run ``--race-detect`` means on each are in :mod:`repro.scenario`.

Every scenario runs the default ``GatewayPolicy()`` with CGSL/FGSL on
(``security_enabled``, so the checkers judge the authorised path); a
``_<name>_policy`` spells only that and what the scenario varies or
must pin, each with its reason.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Sequence

from repro.core.dispatch import percentile
from repro.core.gateway import BatchQuery, Gateway
from repro.core.history import HistoryStore
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.gma.streams import FLAVOURS, Republisher, StreamConsumer
from repro.scenario import (
    SQL,
    Ctx,
    Knobs,
    Scenario,
    breaker_invariants,
    no_stuck_buffers,
    stuck_buffers,
    trace_invariants,
)
from repro.sql.database import Row
from repro.storage.recovery import RULE_SEGMENT_QUARANTINED


# ----------------------------------------------------------------------
# chaos: the standard fault schedule against polling rounds
# ----------------------------------------------------------------------
def install_standard_faults(ctx: Ctx) -> None:
    """Schedule the canonical chaos scenario over the site.

    All windows are expressed relative to *now* and scaled by the poll
    ``period`` so the same mix of overlapping faults hits whatever the
    cadence: two spiky hosts from the start, a mid-run slowdown, a
    flapping host, a flaky agent port, a corruption window, and a timed
    partition (auto-healed) between the gateway and one host.
    """
    plane, period = ctx.plane, ctx.k["period"]
    hosts = ctx.site.host_names()

    def h(i: int) -> str:
        return hosts[i % len(hosts)]

    span = ctx.k["rounds"] * period
    plane.latency_spikes(h(0), prob=0.30, extra=1.5)
    plane.latency_spikes(h(1), prob=0.15, extra=2.5, start=0.1 * span)
    plane.slow_host(
        h(1), factor=3.0, service_time=0.05, start=0.25 * span, duration=0.25 * span
    )
    plane.flap_host(h(2), down_at=0.2 * span, down_for=1.5 * period, times=2)
    plane.flaky_port(h(0), prob=0.25, start=0.4 * span, duration=0.3 * span)
    plane.corrupt_payloads(h(1), prob=0.15, start=0.55 * span, duration=0.25 * span)
    plane.partition_between(
        [ctx.gw.host], [h(3)], start=0.7 * span, duration=1.5 * period
    )


def _chaos_policy(k: Knobs) -> GatewayPolicy:
    return GatewayPolicy(
        security_enabled=True,
        # The two A/B arms of E15/E16 (--no-fanout, --no-hedge).
        fanout_enabled=k["fanout"],
        hedge_enabled=k["hedging"],
        # One query-level retry (the default, 1, never retries) inside an
        # end-to-end deadline: what E15 measures.
        retry_attempts=2,
        default_deadline=k["deadline"],
        # One WAL generation for the whole run, so the dual run compares
        # every frame by index (a periodic checkpoint truncates the log).
        history_checkpoint_interval=0.0,
    )


def _chaos_step(ctx: Ctx, i: int) -> list[Any]:
    result = ctx.poll()
    m = ctx.measurements
    m.setdefault("latencies", []).append(result.elapsed)
    m["ok_rounds"] = m.get("ok_rounds", 0) + all(s.ok for s in result.statuses)
    statuses = [
        (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.error)
        for s in result.statuses
    ]
    return [(i, result.columns, result.rows, statuses)]


def _chaos_measure(ctx: Ctx) -> None:
    m, gw = ctx.measurements, ctx.gw
    lat = m["latencies"]  # per-round end-to-end virtual latencies
    m.update(
        p50=percentile(lat, 50),
        p95=percentile(lat, 95),
        p99=percentile(lat, 99),
        max=max(lat),
        requests=dict(gw.request_manager.stats),
        dispatch=gw.dispatcher.stats.as_dict(),
        breakers=gw.health.summary(),
    )


_FAULT_LINE = (
    "faults injected: spikes={faults[spikes_injected]} "
    "(+{faults[spike_seconds]:.1f}s), refusals={faults[refusals]}, "
    "corruptions={faults[corruptions]}, flaps={faults[flaps]}, "
    "partitions={faults[partitions]}/heals={faults[heals]}"
)

CHAOS = Scenario(
    name="chaos",
    help="run the standard chaos scenario",
    knobs=dict(
        rounds=30,
        hosts=4,
        agents=("snmp", "ganglia"),
        hedging=True,
        fanout=True,
        deadline=10.0,
        period=30.0,
        warmup_rounds=10,
    ),
    flags={
        "hedging": ("--no-hedge", "disable hedged requests"),
        "fanout": ("--no-fanout", "disable concurrent fan-out"),
    },
    policy=_chaos_policy,
    faults=install_standard_faults,
    step=_chaos_step,
    measure=_chaos_measure,
    checkers=(breaker_invariants, trace_invariants),
    template=(
        "{rounds} rounds, hedging {hedging:onoff}, "
        "fan-out {fanout:onoff}, deadline={deadline:g}s",
        "latency (virtual): p50={p50:.3f}s p95={p95:.3f}s p99={p99:.3f}s "
        "max={max:.3f}s",
        "clean rounds: {ok_rounds}/{rounds}, "
        "source failures: {requests[source_failures]}, "
        "deadline exceeded: {requests[deadline_exceeded]}",
        "retries: {requests[retries]} (gave up {requests[retry_giveups]})",
        "hedges: fired {dispatch[hedges_fired]}, won {dispatch[hedges_won]}, "
        "cancelled {dispatch[hedges_cancelled]}, "
        "saved {dispatch[hedge_time_saved]:.2f}s virtual",
        _FAULT_LINE,
        "breakers: {breakers[trips]} trips, {breakers[recoveries]} recoveries, "
        "{breakers[open]} open at end",
    ),
)


#: The chaos declaration, always dual-run: all three evidence streams
#: (steps, traces, WAL frames) get compared.
RACECHECK = dataclasses.replace(
    CHAOS,
    name="racecheck",
    help="dual-run divergence check + virtual-lane race detection",
    knobs={**CHAOS.knobs, "rounds": 15},
    race_detect=True,
)


# ----------------------------------------------------------------------
# overload: offered-load spike x slow-host fault
# ----------------------------------------------------------------------
BASE_LOAD = 2
SPIKE_START_ROUND = 3
#: The admission controller's initial gateway-wide limit: the default
#: spike (32 members) is 4x the no-queue capacity.
QUEUE_LIMIT = 8


def query_class_for(i: int) -> str:
    """Deterministic class mix for member ``i`` (no RNG: replay identity
    must not depend on draw order): 10% critical, ~30% batch, the rest
    interactive."""
    if i % 10 == 0:
        return "critical"
    if i % 3 == 2:
        return "batch"
    return "interactive"


def _member_sql(k: Knobs) -> list[str]:
    # Burst member i asks a *distinct* query (an always-true predicate
    # varying by slot) — identical queries would coalesce via
    # single-flight and the "offered load" would be one flight per
    # source, which is no load at all.
    return [f"{SQL} WHERE 0 <= {i}" for i in range(max(k["spike_load"], BASE_LOAD))]


def _overload_policy(k: Knobs) -> GatewayPolicy:
    return GatewayPolicy(
        security_enabled=True,
        # Hedging fights admission control (ROADMAP item 1, open): a hedge
        # is a second copy of the work the limiter is shedding.  On a
        # zero-latency history store, shedding on, spike goodput falls to
        # 25-31 of 32 with 6-13 breaker trips (seeds 0-4; 29-32 and none
        # unhedged) and E18's shape is lost; this disk's WAL latency
        # happens to mask it, which the shape must not depend on.
        hedge_enabled=False,
        # Goodput is "complete inside the deadline"; one retry as in chaos.
        retry_attempts=2,
        default_deadline=k["deadline"],
        # --shed-off is the collapse arm: both overload planes off.
        admission_enabled=k["shedding"],
        adaptive_concurrency=k["shedding"],
        admission_queue_limit=QUEUE_LIMIT,
        pressure_min_dwell=k["period"] / 2,
        # The breaker's stale-on-open path would mask the comparison:
        # without admission control, queueing blows deadlines, the
        # breakers mistake overload for host failure and quietly serve
        # everything stale — "goodput" by accident, with healthy sources
        # marked dead (breaker pollution, visible in ``breakers``).
        # The chaos scenario covers that path; here it is off in BOTH
        # arms so the measured stale serving is the *deliberate*
        # brownout machinery.
        serve_stale_on_open=False,
    )


def _overload_warm(ctx: Ctx) -> None:
    # The query cache needs a relation per (source, member-sql) so
    # brownout has stale coverage to serve, and the limiters need a
    # latency baseline.  ``warmup_rounds=0`` removes that coverage, so
    # pressured queries shed instead — the shed-heavy variant.
    for msql in _member_sql(ctx.k):
        ctx.poll(msql)


def _overload_faults(ctx: Ctx) -> None:
    # ``slow_host=False`` drops the fault entirely: sheds then come
    # purely from offered load (sheds happen, zero breaker activity).
    if not ctx.k["slow_host"]:
        return
    period = ctx.k["period"]
    # Every monitored host degrades together (site-wide resource
    # contention, exactly when offered load peaks).  A single slow host
    # would just trip its breaker and be served stale — real overload is
    # the case breakers *cannot* isolate.  Rounds take `period` plus the
    # batch's own virtual elapsed time, and an overloaded batch runs
    # long — the window is sized generously so it covers the spike
    # rounds in both arms (trailing base-load rounds are far below
    # capacity either way).
    for name in ctx.site.host_names():
        ctx.plane.slow_host(
            name,
            factor=3.0,
            service_time=0.3,
            start=SPIKE_START_ROUND * period,
            duration=3 * ctx.k["spike_rounds"] * period,
        )


def _overload_step(ctx: Ctx, rnd: int) -> list[Any]:
    k, m = ctx.k, ctx.measurements
    in_spike = SPIKE_START_ROUND <= rnd < SPIKE_START_ROUND + k["spike_rounds"]
    n = k["spike_load"] if in_spike else BASE_LOAD
    member_sql = _member_sql(k)
    members = [
        BatchQuery(
            urls=ctx.urls,
            sql=member_sql[i],
            mode=QueryMode.REALTIME,
            query_class=query_class_for(i),
        )
        for i in range(n)
    ]
    payloads: list[Any] = []
    good = 0
    for i, out in enumerate(ctx.gw.query_batch(members, principal=ctx.principal)):
        if isinstance(out, Exception):
            payloads.append((rnd, i, type(out).__name__, str(out)))
            continue
        statuses = [
            (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.shed, s.error)
            for s in out.statuses
        ]
        payloads.append((rnd, i, out.columns, out.rows, statuses))
        # Goodput: a complete answer *within the deadline budget*
        # (brownout stale serves qualify: complete, honestly marked
        # degraded, fast).  An answer that limps in late is not good —
        # the client gave up — which is what makes queueing collapse
        # measurable even where nothing raised.
        if out.statuses and out.failed_sources == 0 and out.elapsed <= k["deadline"]:
            good += 1
    m.setdefault("goodput", []).append(good)
    m.setdefault("offered", []).append(n)
    m["critical_offered"] = m.get("critical_offered", 0) + sum(
        query_class_for(i) == "critical" for i in range(n)
    )
    return payloads


def _overload_measure(ctx: Ctx) -> None:
    m, gw = ctx.measurements, ctx.gw
    snapshot = gw.overload.snapshot()
    m.update(
        base_load=BASE_LOAD,
        good_total=sum(m["goodput"]),
        offered_total=sum(m["offered"]),
        shed_counts=dict(snapshot["sheds"]),
        critical_shed=int(snapshot["sheds"].get("critical", 0)),
        brownout_served=int(snapshot["brownout_served"]),
        doomed=int(snapshot["doomed"]),
        pressure_transitions=int(snapshot["transitions"]),
        final_state=str(snapshot["state"]),
        requests=dict(gw.request_manager.stats),
        breakers=gw.health.summary(),
    )


def critical_never_shed(ctx: Ctx) -> list[str]:
    """Critical work is never dropped, whatever the pressure."""
    n = int(ctx.gw.overload.snapshot()["sheds"].get("critical", 0))
    return [f"{n} CRITICAL quer(ies) shed"] if n else []


OVERLOAD = Scenario(
    name="overload",
    help="run the overload scenario (load spike x slow hosts)",
    knobs=dict(
        rounds=12,
        hosts=4,
        agents=("snmp",),
        shedding=True,
        spike_load=32,
        spike_rounds=6,
        deadline=2.0,
        period=10.0,
        warmup_rounds=4,
        slow_host=True,
    ),
    flags={
        "spike_load": ("--spike-load", "burst size during the spike"),
        "shedding": (
            "--shed-off",
            "disable admission control / shedding (the collapse arm)",
        ),
        "slow_host": (
            "--no-slow-host",
            "skip the slow-host fault (sheds come purely from load)",
        ),
    },
    policy=_overload_policy,
    warm=_overload_warm,
    faults=_overload_faults,
    step=_overload_step,
    measure=_overload_measure,
    checkers=(critical_never_shed, breaker_invariants, trace_invariants),
    template=(
        "{rounds} rounds, shedding {shedding:onoff}, "
        "load {base_load}->{spike_load}/round, deadline={deadline:g}s",
        "goodput: {good_total}/{offered_total} (per round: {goodput:join})",
        "sheds: total={shed_counts[total]} (critical={shed_counts[critical]}, "
        "interactive={shed_counts[interactive]}, batch={shed_counts[batch]}), "
        "brownout served={brownout_served}, doomed={doomed}",
        "critical: {critical_shed}/{critical_offered} shed",
        "pressure: {pressure_transitions} transitions, final state={final_state}",
        "deadline exceeded: {requests[deadline_exceeded]}, "
        "source failures: {requests[source_failures]}, "
        "retries: {requests[retries]} (gave up {requests[retry_giveups]})",
        "breakers: {breakers[trips]} trips, {breakers[open]} open at end",
    ),
)


# ----------------------------------------------------------------------
# stream: continuous queries x faults x lease recovery
# ----------------------------------------------------------------------
def _stream_policy(k: Knobs) -> GatewayPolicy:
    return GatewayPolicy(
        security_enabled=True,
        # As chaos: this scenario runs the standard fault schedule.
        retry_attempts=2,
        default_deadline=k["deadline"],
        # Leases and sweeps scaled to the poll period, so the consumer
        # partition outlives lease + tombstone grace at any cadence.
        stream_sweep_period=k["period"],
        stream_default_lease=2.0 * k["period"],
    )


def _stream_faults(ctx: Ctx) -> None:
    """Register the subscriptions, then start the faults.

    Warm-up ran first so ``latest``/``history`` registrations have rows
    to replay on attach; the continuous queries register next, and only
    then do the faults start — including, when ``partition`` is on, a
    consumer partition sized to outlive lease + tombstone grace so
    recovery exercises re-registration with the delivery watermark.
    """
    k, gw, network = ctx.k, ctx.gw, ctx.network
    period = k["period"]
    lease = 2.0 * period
    assert gw.streams is not None  # the default policy has the streaming plane
    consumer = StreamConsumer(network, "stream-client")
    hub_addr = gw.streams.address
    # Deterministic flavour x class mix; distinct predicates so the
    # per-subscription plans (and their pushes) do not alias.
    for i in range(k["subscriptions"]):
        consumer.register(
            hub_addr,
            f"SELECT HostName, LoadAverage1Min FROM Processor WHERE 0 <= {i}",
            flavour=FLAVOURS[i % len(FLAVOURS)],
            lease=lease,
            query_class=query_class_for(i),
        )
    # The republisher folds per-host CPU into windowed aggregates and
    # publishes them through its own hub; the same consumer subscribes
    # downstream, closing the derived-stream loop.
    rep = Republisher(network, "stream-rep", policy=gw.policy)
    derivation = rep.derive(
        hub_addr,
        "SELECT HostName, CPUUtilization FROM Processor",
        key_column="HostName",
        value_column="CPUUtilization",
        window=2.0 * period,
        group="DerivedLoad",
        lease=lease,
    )
    consumer.register(
        rep.hub.address,
        "SELECT HostName, AvgValue, Samples FROM DerivedLoad",
        flavour="stream",
        lease=lease,
    )
    ctx.fixtures.update(consumer=consumer, rep=rep, derivation=derivation)

    install_standard_faults(ctx)
    if k["partition"]:
        # Outlives lease (2p) + sweep-to-tombstone + tombstone drop
        # (2 sweeps, 2p): the hub forgets the consumer's subscriptions
        # entirely, so healing must re-register.
        ctx.plane.partition_between(
            [gw.host],
            ["stream-client"],
            start=0.25 * k["rounds"] * period,
            duration=lease + 3.0 * period,
        )


def _stream_step(ctx: Ctx, i: int) -> list[Any]:
    result = ctx.poll()
    statuses = [(s.url, s.ok, s.rows, s.error) for s in result.statuses]
    return [(i, result.columns, result.rows, statuses)]


def _stream_finish(ctx: Ctx) -> list[Any]:
    """Sign every delivered batch, note the push plane's end state, then
    tear the consumer down over a healed network."""
    consumer: StreamConsumer = ctx.fixtures["consumer"]
    rep: Republisher = ctx.fixtures["rep"]
    hub = ctx.gw.streams
    assert hub is not None
    batches = consumer.batches
    snapshot = hub.snapshot()
    ctx.measurements.update(
        delivered_batches=len(batches),
        delivered_rows=sum(len(b["rows"]) for b in batches),
        #: Batches flagged ``replay`` (latest/history attach catch-up).
        replay_batches=sum(1 for b in batches if b["replay"]),
        renewals=consumer.stats["renewals"],
        renewal_failures=consumer.stats["renewal_failures"],
        reregisters=consumer.stats["reregisters"],
        derived_windows=ctx.fixtures["derivation"].windows_published,
        derived_samples=rep.stats["samples"],
        hub=snapshot,
    )
    ctx.found["no_stuck_buffers"] += stuck_buffers(hub) + stuck_buffers(rep.hub)
    consumer.stop()
    rep.stop()
    ctx.clock.advance(ctx.k["period"])
    # Arrival order: the push plane's half of the replay identity.
    return [
        (
            b["cq"],
            b["columns"],
            b["rows"],
            b["published_at"],
            b["received_at"],
            b["source_url"],
            b["replay"],
        )
        for b in batches
    ]


def reregistered_after_partition(ctx: Ctx) -> list[str]:
    """A partition that outlives lease + grace must end in re-registration."""
    if ctx.k["partition"] and ctx.measurements["reregisters"] == 0:
        return [
            "consumer partition healed without any re-registration — "
            "lease recovery never ran"
        ]
    return []


STREAM = Scenario(
    name="stream",
    help="run the streaming scenario (continuous queries x faults)",
    knobs=dict(
        rounds=12,
        hosts=4,
        agents=("snmp",),
        subscriptions=6,
        period=10.0,
        warmup_rounds=3,
        deadline=10.0,
        partition=True,
    ),
    flags={
        "subscriptions": (
            "--subscriptions",
            "continuous queries to register (flavour x class mix)",
        ),
        "partition": (
            "--no-partition",
            "skip the long consumer partition (no lease-lapse recovery)",
        ),
    },
    policy=_stream_policy,
    faults=_stream_faults,
    step=_stream_step,
    finish=_stream_finish,
    checkers=(reregistered_after_partition, no_stuck_buffers, trace_invariants),
    template=(
        "{rounds} rounds, {subscriptions} subscription(s), "
        "consumer partition {partition:onoff}",
        "delivered: {delivered_batches} batches ({delivered_rows} rows), "
        "{replay_batches} replay batches on attach",
        "hub: {hub[pushes]} pushes in {hub[frames]} frames, "
        "{hub[replayed]} rows replayed, {hub[dropped]} dropped, "
        "{hub[suppressed]} suppressed, {hub[shed]} shed",
        "leases: {renewals} renewals ({renewal_failures} failed), "
        "{hub[expired]} expired, {hub[resurrected]} resurrected, "
        "{reregisters} re-registered after lapse",
        "republisher: {derived_windows} windows from {derived_samples} samples",
        _FAULT_LINE,
    ),
)


# ----------------------------------------------------------------------
# crashtest: kill / recover / verify over the durable history store
# ----------------------------------------------------------------------
def _crash_policy(k: Knobs) -> GatewayPolicy:
    return GatewayPolicy(
        security_enabled=True,
        history_fsync_interval=k["fsync_interval"],
        # Checkpoints are driven explicitly by the step so every cycle's
        # sealing schedule is a pure function of the knobs.
        history_checkpoint_interval=0.0,
        # A ring the rounds overflow, and not a multiple of a round (3
        # hosts x snmp + ganglia record 6 Processor rows a round), so the
        # ring boundary splits a round's out-of-order rows and
        # checkpoints drop segments: which rows survive a crash is then
        # the ring's decision, and the checker holds it to one.
        history_max_rows_per_group=16,
    )


def _diff(expected: list[Row], got: list[Row]) -> str:
    """First divergence between two lists of stored rows, for a
    violation message."""
    if len(expected) != len(got):
        return f"expected {len(expected)} rows, recovered {len(got)}"
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return f"row {i}: expected {e!r}, recovered {g!r}"
    return ""


_CRASH_COUNTERS = (
    "crashes",
    "torn_tails",
    "bit_flips",
    "segments_quarantined",
    # rows held to the acked-prefix equality, summed over all checks
    "rows_verified",
    "rows_recovered",
)


def _crash_step(ctx: Ctx, cycle: int) -> list[Any]:
    """One kill/recover/verify cycle.

    ``rounds`` query rounds record history (an explicit checkpoint every
    ``checkpoint_every`` rounds seals segments and truncates the WAL),
    odd cycles flip one bit inside a sealed segment, then the disk
    power-fails (torn writes drawn from the fault plane's RNG), the
    gateway is killed, and a successor is built on the same disk and
    held to the durability invariant as an *equality*, not a bound: per
    GLUE group its store serves exactly what a fresh, engine-less store
    with the same ring serves after recording each pre-crash
    acknowledged row once, in log order.
    """
    k, m, gw, disk = ctx.k, ctx.measurements, ctx.gw, ctx.disk
    violations = ctx.found["acked_prefix"]
    rng = ctx.fixtures.setdefault("rng", random.Random(ctx.seed ^ 0x5EED))
    for counter in _CRASH_COUNTERS:
        m.setdefault(counter, 0)
    every = k["checkpoint_every"]
    for r in range(k["rounds"]):
        ctx.poll()
        ctx.clock.advance(k["period"])
        # Never checkpoint on the cycle's last round: the crash must
        # land on a live WAL tail (that's the case under test).
        if (r + 1) % every == 0 and r + 1 < k["rounds"]:
            gw.history.checkpoint()

    engine = gw.history_engine
    assert engine is not None
    # Odd cycles: bit-rot one sealed segment the harness picks (so the
    # oracle knows which rows are *expected* to degrade).
    flipped: frozenset[str] = frozenset()
    if cycle % 2 == 1:
        sealed = disk.list("seg/")
        if sealed:
            victim = sealed[rng.randrange(len(sealed))]
            ctx.plane.flip_segment_bit(disk, path=victim)
            flipped = frozenset([victim])
            m["bit_flips"] += 1

    # The pre-crash oracle: a ring that saw only the acknowledged rows.
    reference = HistoryStore(
        gw.history.schema, max_rows_per_group=gw.history.max_rows_per_group
    )
    for group in engine.groups():
        if reference.schema.has_group(group):
            layout = reference.layout(group)
            for row in engine.acked_rows(group, layout, exclude_segments=flipped):
                reference.record(
                    group, layout, [row], source_url=row[-2], recorded_at=row[-1]
                )
    synced_lsn = engine.wal.synced_lsn

    ctx.plane.crash_disk(disk)
    gw.crash()
    m["crashes"] += 1

    gw = Gateway(
        ctx.network,
        ctx.site.gateway.host,
        site=ctx.site.name,
        policy=gw.policy,
        disk=disk,
        persistent_store=ctx.store,
    )
    ctx.replace_gateway(gw)
    new_engine = gw.history_engine
    assert new_engine is not None
    recovery = new_engine.recovery_report
    m.setdefault("recoveries", []).append(recovery.as_dict())
    if recovery.wal_tail != "clean":
        m["torn_tails"] += 1
    m["segments_quarantined"] += recovery.segments_quarantined

    expected: dict[str, list[Row]] = {}
    recovered: dict[str, list[Row]] = {}
    groups = set(reference.groups_recorded()) | set(gw.history.groups_recorded())
    for group in sorted(groups):
        want = expected[group] = list(reference.since(group, None))
        got = recovered[group] = list(gw.history.since(group, None))
        diff = _diff(want, got)
        if diff:
            violations.append(
                f"cycle {cycle}: group {group}: recovered store != ring over "
                f"the acked prefix (synced_lsn={synced_lsn}): {diff}"
            )
        m["rows_verified"] += len(want)
    m["rows_recovered"] += gw.history.rows_recovered
    # A corrupted segment is quarantined with a surfaced GRM401 finding,
    # and start-up still succeeds (degraded serving, never a refusal).
    if flipped and recovery.segments_quarantined == 0:
        violations.append(
            f"cycle {cycle}: flipped bit in {sorted(flipped)} but recovery "
            "quarantined nothing"
        )
    if flipped and not any(
        f.rule_id == RULE_SEGMENT_QUARANTINED for f in recovery.findings
    ):
        violations.append(
            f"cycle {cycle}: quarantine happened without a "
            f"{RULE_SEGMENT_QUARANTINED} finding surfaced"
        )
    if recovery.findings and not gw.startup_findings:
        violations.append(
            f"cycle {cycle}: recovery findings missing from "
            "gateway.startup_findings"
        )
    return [
        (
            cycle,
            synced_lsn,
            sorted(flipped),
            {g: rows for g, rows in sorted(expected.items())},
            {g: rows for g, rows in sorted(recovered.items())},
            recovery.as_dict(),
        )
    ]


def acked_prefix(ctx: Ctx) -> list[str]:
    """Every recovered store served exactly what the ring keeps of the
    acknowledged prefix (checked by the crashtest step against each
    successor as it boots)."""
    return ctx.found["acked_prefix"]


CRASHTEST = Scenario(
    name="crashtest",
    help="kill/recover/verify loops over durable history",
    knobs=dict(
        cycles=3,
        rounds=5,
        # One WAL record per record() batch: a 3-host two-agent round
        # writes 4 records (3 snmp + 1 ganglia), so an fsync interval of
        # 3 keeps the crash off the group-commit boundary and torn tails
        # reachable.
        hosts=3,
        agents=("snmp", "ganglia"),
        fsync_interval=3,
        checkpoint_every=2,
        period=30.0,
    ),
    flags={
        "cycles": ("--cycles", "kill/recover cycles to run"),
        "fsync_interval": (
            "--fsync-interval",
            "WAL group-commit interval (records per fsync)",
        ),
        "checkpoint_every": (
            "--checkpoint-every",
            "checkpoint every N rounds (N >= 1)",
        ),
    },
    policy=_crash_policy,
    step=_crash_step,
    checkers=(acked_prefix,),
    template=(
        "{cycles} kill/recover cycles, {rounds} rounds each, "
        "fsync every {fsync_interval} records",
        "crashes: {crashes} (torn WAL tails: {torn_tails}, "
        "bit flips: {bit_flips})",
        "acked prefix verified: {rows_verified} rows held equal, "
        "{rows_recovered} rows recovered in total",
        "quarantined segments: {segments_quarantined}",
    ),
    steps="cycles",
    paced=False,
    drain_periods=0,
    site_name="crash",
)


#: The scenario table the CLI is generated from.
SCENARIOS: Sequence[Scenario] = (CHAOS, OVERLOAD, STREAM, CRASHTEST, RACECHECK)
