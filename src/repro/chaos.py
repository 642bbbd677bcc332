"""Chaos scenario runner: the fault plane pointed at a live testbed.

``python -m repro chaos`` (or :func:`run_chaos` from a test) builds a
site, installs a standard :class:`~repro.simnet.faults.FaultPlane`
scenario — latency spikes, a slowed host, a flapping host, a flaky agent
port, payload corruption and a timed partition — and drives query rounds
through it, measuring what the robustness machinery (deadlines, retry
budgets, hedged requests, circuit breakers) does to tail latency.

Everything is seeded: re-running with the same ``seed`` and the same
knobs replays the exact same fault schedule, the same per-request fault
draws and therefore byte-identical results — the :class:`ChaosReport`
carries a SHA-256 signature over every round's rows and statuses to make
replay identity checkable.  (Different knobs legitimately produce
different signatures: hedges and retries consume extra fault draws, and
fan-out shifts request instants.)  The soak tests assert replay identity
per configuration, plus the structural invariants: no stuck network
futures and no inconsistent breaker entries once the dust settles.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.dispatch import percentile
from repro.core.health import BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.simnet.faults import FaultPlane
from repro.testbed import Site, build_testbed


@dataclass
class ChaosReport:
    """One chaos run's measurements and invariant checks."""

    seed: int
    rounds: int
    hedging: bool
    fanout: bool
    deadline: float
    #: Per-round end-to-end virtual latencies, in round order.
    latencies: list[float] = field(default_factory=list)
    ok_rounds: int = 0
    #: SHA-256 over every round's (columns, rows, statuses) — the replay
    #: identity: same seed => same signature, whatever the knobs.
    signature: str = ""
    requests: dict[str, Any] = field(default_factory=dict)
    dispatch: dict[str, Any] = field(default_factory=dict)
    faults: dict[str, Any] = field(default_factory=dict)
    breakers: dict[str, Any] = field(default_factory=dict)
    #: Breaker entries violating structural invariants (must be empty).
    breaker_violations: list[str] = field(default_factory=list)
    #: Span-tree invariant violations across every retained query trace
    #: (closure, containment, hedge accounting — must be empty).
    trace_violations: list[str] = field(default_factory=list)
    #: Query traces checked by the invariant pass.
    traces_checked: int = 0
    #: Unresolved NetFutures after the run (must be 0).
    pending_futures: int = 0
    elapsed_virtual: float = 0.0
    #: GRM55x lane-race findings (``race_detect=True`` runs only; must
    #: be empty — an entry means two unordered branches shared state).
    race_findings: list[str] = field(default_factory=list)
    #: State accesses the race detector inspected (0 = detection off).
    race_accesses: int = 0

    # ------------------------------------------------------------------
    def latency(self, q: float) -> float:
        """The q-th percentile of per-round latency (virtual seconds)."""
        return percentile(self.latencies, q)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "hedging": self.hedging,
            "fanout": self.fanout,
            "deadline": self.deadline,
            "p50": self.latency(50),
            "p95": self.latency(95),
            "p99": self.latency(99),
            "max": max(self.latencies),
            "ok_rounds": self.ok_rounds,
            "signature": self.signature,
            "requests": dict(self.requests),
            "dispatch": dict(self.dispatch),
            "faults": dict(self.faults),
            "breakers": dict(self.breakers),
            "breaker_violations": list(self.breaker_violations),
            "trace_violations": list(self.trace_violations),
            "traces_checked": self.traces_checked,
            "pending_futures": self.pending_futures,
            "elapsed_virtual": self.elapsed_virtual,
            "race_findings": list(self.race_findings),
            "race_accesses": self.race_accesses,
        }

    def format(self) -> str:
        """Console rendering of the run."""
        r = self.requests
        d = self.dispatch
        f = self.faults
        lines = [
            f"Chaos run: seed={self.seed}, {self.rounds} rounds, "
            f"hedging {'on' if self.hedging else 'off'}, "
            f"fan-out {'on' if self.fanout else 'off'}, "
            f"deadline={self.deadline:g}s",
            f"  latency (virtual): p50={self.latency(50):.3f}s "
            f"p95={self.latency(95):.3f}s p99={self.latency(99):.3f}s "
            f"max={max(self.latencies):.3f}s",
            f"  clean rounds: {self.ok_rounds}/{self.rounds}, "
            f"source failures: {r.get('source_failures', 0)}, "
            f"deadline exceeded: {r.get('deadline_exceeded', 0)}",
            f"  retries: {r.get('retries', 0)} "
            f"(gave up {r.get('retry_giveups', 0)})",
            f"  hedges: fired {d.get('hedges_fired', 0)}, "
            f"won {d.get('hedges_won', 0)}, "
            f"cancelled {d.get('hedges_cancelled', 0)}, "
            f"saved {d.get('hedge_time_saved', 0.0):.2f}s virtual",
            f"  faults injected: spikes={f.get('spikes_injected', 0)} "
            f"(+{f.get('spike_seconds', 0.0):.1f}s), "
            f"refusals={f.get('refusals', 0)}, "
            f"corruptions={f.get('corruptions', 0)}, "
            f"flaps={f.get('flaps', 0)}, "
            f"partitions={f.get('partitions', 0)}/"
            f"heals={f.get('heals', 0)}",
            f"  breakers: {self.breakers.get('trips', 0)} trips, "
            f"{self.breakers.get('recoveries', 0)} recoveries, "
            f"{self.breakers.get('open', 0)} open at end",
            f"  invariants: pending futures={self.pending_futures}, "
            f"breaker violations={len(self.breaker_violations)}, "
            f"trace violations={len(self.trace_violations)} "
            f"({self.traces_checked} traces checked)",
        ]
        if self.race_accesses:
            lines.append(
                f"  lane races: {len(self.race_findings)} finding(s) over "
                f"{self.race_accesses} shared-state accesses"
            )
        lines += [
            f"  replay signature: {self.signature[:16]}…",
        ]
        return "\n".join(lines)


def install_standard_faults(
    plane: FaultPlane, site: Site, *, period: float, rounds: int
) -> None:
    """Schedule the canonical chaos scenario over one site.

    All windows are expressed relative to *now* and scaled by the poll
    ``period`` so the same mix of overlapping faults hits whatever the
    cadence: two spiky hosts from the start, a mid-run slowdown, a
    flapping host, a flaky agent port, a corruption window, and a timed
    partition (auto-healed) between the gateway and one host.
    """
    hosts = site.host_names()

    def h(i: int) -> str:
        return hosts[i % len(hosts)]

    span = rounds * period
    plane.latency_spikes(h(0), prob=0.30, extra=1.5)
    plane.latency_spikes(h(1), prob=0.15, extra=2.5, start=0.1 * span)
    plane.slow_host(
        h(1), factor=3.0, service_time=0.05, start=0.25 * span, duration=0.25 * span
    )
    plane.flap_host(h(2), down_at=0.2 * span, down_for=1.5 * period, times=2)
    plane.flaky_port(h(0), prob=0.25, start=0.4 * span, duration=0.3 * span)
    plane.corrupt_payloads(h(1), prob=0.15, start=0.55 * span, duration=0.25 * span)
    plane.partition_between(
        [site.gateway.host], [h(3)], start=0.7 * span, duration=1.5 * period
    )


def _breaker_violations(board: dict[str, dict[str, Any]]) -> list[str]:
    """Structural invariants every breaker entry must satisfy."""
    valid = {s.value for s in BreakerState}
    out = []
    for key, e in board.items():
        if e["state"] not in valid:
            out.append(f"{key}: unknown state {e['state']!r}")
        if e["consecutive_failures"] > e["total_failures"]:
            out.append(f"{key}: consecutive_failures > total_failures")
        if e["state"] == BreakerState.OPEN.value and e["open_until"] <= 0:
            out.append(f"{key}: OPEN with no open_until instant")
        if e["trips"] > 0 and e["total_failures"] == 0:
            out.append(f"{key}: tripped without any recorded failure")
    return out


def _maybe_detect(detector: "Any | None"):
    """races.activate(detector), or a no-op context when detection is off."""
    if detector is None:
        return nullcontext()
    from repro.analysis import races

    return races.activate(detector)


def run_chaos(
    *,
    seed: int = 0,
    rounds: int = 30,
    hosts: int = 4,
    agents: Sequence[str] = ("snmp", "ganglia"),
    hedging: bool = True,
    fanout: bool = True,
    deadline: float = 10.0,
    period: float = 30.0,
    warmup_rounds: int = 10,
    sql: str = "SELECT * FROM Processor",
    race_detect: bool = False,
) -> ChaosReport:
    """Build a site, inject the standard fault scenario, measure.

    ``warmup_rounds`` clean polls run first so the hedger has a latency
    window to take its percentile from; faults start only after warm-up,
    so two runs differing only in knobs see the identical schedule.
    Returns a :class:`ChaosReport`; raises nothing on per-source
    failures (they are part of the measurement).

    ``race_detect=True`` runs the whole scenario under the virtual-lane
    race detector (:mod:`repro.analysis.races`): any unordered-branch
    shared-state access lands in ``report.race_findings`` as a GRM55x
    line, and the detector stays attached to the gateway so a later
    ``gw.analyze()`` reports the same findings.
    """
    policy = GatewayPolicy(
        fanout_enabled=fanout,
        hedge_enabled=hedging,
        retry_attempts=2,
        default_deadline=deadline,
    )
    network, (site,) = build_testbed(
        n_hosts=hosts, agents=tuple(agents), seed=seed, policy=policy
    )
    gw = site.gateway
    clock = network.clock
    clock.advance(60.0)
    urls = list(site.source_urls)

    detector = None
    if race_detect:
        from repro.analysis import races

        detector = races.RaceDetector.standard(clock)
        gw.race_detector = detector
    with _maybe_detect(detector):
        for _ in range(max(0, warmup_rounds)):
            gw.query(urls, sql, mode=QueryMode.REALTIME)
            clock.advance(period)

        plane = FaultPlane(network, seed=seed)
        install_standard_faults(plane, site, period=period, rounds=rounds)

        report = ChaosReport(
            seed=seed, rounds=rounds, hedging=hedging, fanout=fanout, deadline=deadline
        )
        digest = hashlib.sha256()
        started = clock.now()
        for i in range(rounds):
            result = gw.query(urls, sql, mode=QueryMode.REALTIME)
            report.latencies.append(result.elapsed)
            if all(s.ok for s in result.statuses):
                report.ok_rounds += 1
            digest.update(
                repr(
                    (
                        i,
                        result.columns,
                        result.rows,
                        [
                            (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.error)
                            for s in result.statuses
                        ],
                    )
                ).encode()
            )
            clock.advance(period)
        # Drain anything still scheduled (fault heals, breaker re-probes) so
        # the invariant checks see the settled end state.
        clock.advance(10 * period)

    if detector is not None:
        report.race_findings = [f.format() for f in detector.report()]
        report.race_accesses = detector.accesses_noted

    report.signature = digest.hexdigest()
    report.elapsed_virtual = clock.now() - started
    report.requests = dict(gw.request_manager.stats)
    report.dispatch = gw.dispatcher.stats.as_dict()
    report.faults = plane.stats.as_dict()
    report.breakers = gw.health.summary()
    report.breaker_violations = _breaker_violations(gw.health.scoreboard())
    from repro.obs.invariants import check_tracer

    report.traces_checked = len(gw.tracer.traces())
    report.trace_violations = check_tracer(gw.tracer)
    report.pending_futures = network.pending_futures()
    return report


# ----------------------------------------------------------------------
# Overload scenario: offered-load spike x slow-host fault
# ----------------------------------------------------------------------
@dataclass
class OverloadReport:
    """One overload-chaos run's measurements and invariant checks.

    *Goodput* counts complete answers delivered **within the deadline
    budget** (every source ok — brownout stale serves qualify: the
    client got a complete, honestly degraded-marked answer, fast).  An
    answer that limps in after the deadline is *not* good — the client
    gave up — which is what makes queueing collapse measurable even
    where nothing raised: work kept completing, just ever later.  Sheds,
    deadline blowouts and partial results produce no good answer either.
    """

    seed: int
    rounds: int
    shedding: bool
    base_load: int
    spike_load: int
    deadline: float
    #: Per-round good completions / offered members, in round order.
    goodput: list[int] = field(default_factory=list)
    offered: list[int] = field(default_factory=list)
    offered_total: int = 0
    good_total: int = 0
    #: Per-class shed counts from the gateway's ledger.
    shed_counts: dict[str, int] = field(default_factory=dict)
    brownout_served: int = 0
    doomed: int = 0
    critical_offered: int = 0
    critical_shed: int = 0
    pressure_transitions: int = 0
    final_state: str = "normal"
    #: SHA-256 over every member outcome of every round (replay identity).
    signature: str = ""
    requests: dict[str, Any] = field(default_factory=dict)
    breakers: dict[str, Any] = field(default_factory=dict)
    breaker_violations: list[str] = field(default_factory=list)
    trace_violations: list[str] = field(default_factory=list)
    traces_checked: int = 0
    pending_futures: int = 0
    elapsed_virtual: float = 0.0
    race_findings: list[str] = field(default_factory=list)
    race_accesses: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "shedding": self.shedding,
            "base_load": self.base_load,
            "spike_load": self.spike_load,
            "deadline": self.deadline,
            "goodput": list(self.goodput),
            "offered": list(self.offered),
            "offered_total": self.offered_total,
            "good_total": self.good_total,
            "shed_counts": dict(self.shed_counts),
            "brownout_served": self.brownout_served,
            "doomed": self.doomed,
            "critical_offered": self.critical_offered,
            "critical_shed": self.critical_shed,
            "pressure_transitions": self.pressure_transitions,
            "final_state": self.final_state,
            "signature": self.signature,
            "requests": dict(self.requests),
            "breakers": dict(self.breakers),
            "breaker_violations": list(self.breaker_violations),
            "trace_violations": list(self.trace_violations),
            "traces_checked": self.traces_checked,
            "pending_futures": self.pending_futures,
            "elapsed_virtual": self.elapsed_virtual,
            "race_findings": list(self.race_findings),
            "race_accesses": self.race_accesses,
        }

    def format(self) -> str:
        """Console rendering of the run."""
        r = self.requests
        lines = [
            f"Overload run: seed={self.seed}, {self.rounds} rounds, "
            f"shedding {'on' if self.shedding else 'off'}, "
            f"load {self.base_load}->{self.spike_load}/round, "
            f"deadline={self.deadline:g}s",
            f"  goodput: {self.good_total}/{self.offered_total} "
            f"(per round: {' '.join(str(g) for g in self.goodput)})",
            f"  sheds: total={self.shed_counts.get('total', 0)} "
            f"(critical={self.shed_counts.get('critical', 0)}, "
            f"interactive={self.shed_counts.get('interactive', 0)}, "
            f"batch={self.shed_counts.get('batch', 0)}), "
            f"brownout served={self.brownout_served}, doomed={self.doomed}",
            f"  critical: {self.critical_shed}/{self.critical_offered} shed",
            f"  pressure: {self.pressure_transitions} transitions, "
            f"final state={self.final_state}",
            f"  deadline exceeded: {r.get('deadline_exceeded', 0)}, "
            f"source failures: {r.get('source_failures', 0)}, "
            f"retries: {r.get('retries', 0)} "
            f"(gave up {r.get('retry_giveups', 0)})",
            f"  breakers: {self.breakers.get('trips', 0)} trips, "
            f"{self.breakers.get('open', 0)} open at end",
            f"  invariants: pending futures={self.pending_futures}, "
            f"breaker violations={len(self.breaker_violations)}, "
            f"trace violations={len(self.trace_violations)} "
            f"({self.traces_checked} traces checked)",
        ]
        if self.race_accesses:
            lines.append(
                f"  lane races: {len(self.race_findings)} finding(s) over "
                f"{self.race_accesses} shared-state accesses"
            )
        lines.append(f"  replay signature: {self.signature[:16]}…")
        return "\n".join(lines)


def _overload_class(i: int) -> str:
    """Deterministic class mix for burst member ``i`` (no RNG: replay
    identity must not depend on draw order): 10% critical, ~30% batch,
    the rest interactive."""
    if i % 10 == 0:
        return "critical"
    if i % 3 == 2:
        return "batch"
    return "interactive"


def run_overload(
    *,
    seed: int = 0,
    rounds: int = 12,
    hosts: int = 4,
    agents: Sequence[str] = ("snmp",),
    shedding: bool = True,
    base_load: int = 2,
    spike_load: int = 32,
    spike_start_round: int = 3,
    spike_rounds: int = 6,
    deadline: float = 2.0,
    period: float = 10.0,
    warmup_rounds: int = 4,
    queue_limit: int = 8,
    slow_host: bool = True,
    slow_factor: float = 3.0,
    slow_service: float = 0.3,
    sql: str = "SELECT * FROM Processor",
    race_detect: bool = False,
) -> OverloadReport:
    """Offered-load spike x slow-host fault against one gateway.

    Each round offers a burst of concurrent client queries
    (``base_load``, spiking to ``spike_load`` during the spike window)
    with a deterministic CRITICAL/INTERACTIVE/BATCH mix; during the
    spike every monitored host also degrades (site-wide contention), so
    per-request cost inflates exactly when offered load peaks.  The
    default spike (32 members against an initial admission limit of 8)
    is 4x the no-queue capacity.  With ``shedding`` on, the gateway's
    admission control + adaptive concurrency + brownout machinery
    (:mod:`repro.core.admission`) degrades gracefully: excess load is
    absorbed by bounded queueing, brownout stale serving and typed
    sheds, and the breakers stay quiet.  With it off, per-source queue
    waits push answers past their deadline (late answers are not
    goodput), the resulting failures trip breakers on *healthy* hosts,
    and goodput collapses.

    ``warmup_rounds=0`` removes the stale coverage brownout serving
    depends on, so pressured queries shed instead — the shed-heavy
    variant.  ``slow_host=False`` drops the fault entirely: sheds then
    come purely from offered load, which is what the breaker x shed
    end-to-end assertion wants (sheds happen, zero breaker activity).
    """
    policy = GatewayPolicy(
        fanout_enabled=True,
        hedge_enabled=False,
        retry_attempts=2,
        default_deadline=deadline,
        admission_enabled=shedding,
        adaptive_concurrency=shedding,
        admission_queue_limit=queue_limit,
        pressure_min_dwell=period / 2,
        # The breaker's stale-on-open path would mask the comparison:
        # without admission control, queueing blows deadlines, the
        # breakers mistake overload for host failure and quietly serve
        # everything stale — "goodput" by accident, with healthy sources
        # marked dead (breaker pollution, visible in ``breakers``).
        # run_chaos covers that path; here it is off in BOTH arms so the
        # measured stale serving is the *deliberate* brownout machinery.
        serve_stale_on_open=False,
    )
    network, (site,) = build_testbed(
        n_hosts=hosts, agents=tuple(agents), seed=seed, policy=policy
    )
    gw = site.gateway
    clock = network.clock
    clock.advance(60.0)
    urls = list(site.source_urls)

    detector = None
    if race_detect:
        from repro.analysis import races

        detector = races.RaceDetector.standard(clock)
        gw.race_detector = detector

    report = OverloadReport(
        seed=seed,
        rounds=rounds,
        shedding=shedding,
        base_load=base_load,
        spike_load=spike_load,
        deadline=deadline,
    )
    digest = hashlib.sha256()
    from repro.core.gateway import BatchQuery

    # Burst member i asks a *distinct* query (an always-true predicate
    # varying by slot) — identical queries would coalesce via
    # single-flight and the "offered load" would be one flight per
    # source, which is no load at all.
    member_sql = [
        f"{sql} WHERE 0 <= {i}" for i in range(max(spike_load, base_load))
    ]

    with _maybe_detect(detector):
        # Clean warm-up polls: the query cache needs a relation per
        # (source, member-sql) so brownout has stale coverage to serve,
        # and the limiters need a latency baseline.  Not measured.
        for _ in range(max(0, warmup_rounds)):
            for msql in member_sql:
                gw.query(urls, msql, mode=QueryMode.REALTIME)
            clock.advance(period)

        spike_start = clock.now() + spike_start_round * period
        # Rounds take `period` plus the batch's own virtual elapsed time,
        # and an overloaded batch runs long — size the fault window
        # generously so it covers the spike rounds in both arms (trailing
        # base-load rounds are far below capacity either way).
        spike_len = 3 * spike_rounds * period
        if slow_host:
            # Every monitored host degrades together (site-wide resource
            # contention, exactly when offered load peaks).  A single slow
            # host would just trip its breaker and be served stale — real
            # overload is the case breakers *cannot* isolate.
            plane = FaultPlane(network, seed=seed)
            for name in site.host_names():
                plane.slow_host(
                    name,
                    factor=slow_factor,
                    service_time=slow_service,
                    start=spike_start - clock.now(),
                    duration=spike_len,
                )

        started = clock.now()
        for rnd in range(rounds):
            in_spike = spike_start_round <= rnd < spike_start_round + spike_rounds
            n = spike_load if in_spike else base_load
            classes = [_overload_class(i) for i in range(n)]
            report.critical_offered += sum(1 for c in classes if c == "critical")
            members = [
                BatchQuery(
                    urls=urls,
                    sql=member_sql[i],
                    mode=QueryMode.REALTIME,
                    query_class=c,
                )
                for i, c in enumerate(classes)
            ]
            outcomes = gw.query_batch(members)
            good = 0
            for i, out in enumerate(outcomes):
                if isinstance(out, Exception):
                    digest.update(
                        repr((rnd, i, type(out).__name__, str(out))).encode()
                    )
                    continue
                digest.update(
                    repr(
                        (
                            rnd,
                            i,
                            out.columns,
                            out.rows,
                            [
                                (
                                    s.url, s.ok, s.rows, s.from_cache,
                                    s.degraded, s.shed, s.error,
                                )
                                for s in out.statuses
                            ],
                        )
                    ).encode()
                )
                if (
                    out.statuses
                    and out.failed_sources == 0
                    and out.elapsed <= deadline
                ):
                    good += 1
            report.goodput.append(good)
            report.offered.append(n)
            report.good_total += good
            report.offered_total += n
            clock.advance(period)
        # Drain scheduled work (fault heal, re-probes) before invariants.
        clock.advance(10 * period)

    if detector is not None:
        report.race_findings = [f.format() for f in detector.report()]
        report.race_accesses = detector.accesses_noted

    snapshot = gw.overload.snapshot()
    report.signature = digest.hexdigest()
    report.elapsed_virtual = clock.now() - started
    report.shed_counts = dict(snapshot["sheds"])
    report.critical_shed = int(snapshot["sheds"].get("critical", 0))
    report.brownout_served = int(snapshot["brownout_served"])
    report.doomed = int(snapshot["doomed"])
    report.pressure_transitions = int(snapshot["transitions"])
    report.final_state = str(snapshot["state"])
    report.requests = dict(gw.request_manager.stats)
    report.breakers = gw.health.summary()
    report.breaker_violations = _breaker_violations(gw.health.scoreboard())
    from repro.obs.invariants import check_tracer

    report.traces_checked = len(gw.tracer.traces())
    report.trace_violations = check_tracer(gw.tracer)
    report.pending_futures = network.pending_futures()
    return report


# ----------------------------------------------------------------------
# Streaming scenario: continuous queries x faults x lease recovery
# ----------------------------------------------------------------------
@dataclass
class StreamReport:
    """One streaming-chaos run's measurements and invariant checks.

    The scenario registers a mix of continuous queries (all three
    producer flavours, a deterministic query-class mix) against a
    gateway hub, wires a :class:`~repro.gma.streams.Republisher` deriving
    windowed per-host aggregates the same consumer subscribes to
    downstream, then drives poll rounds through the standard fault
    scenario plus (optionally) a long consumer partition.  The partition
    outlives the lease *and* the hub's tombstone grace, so recovery must
    go through the consumer's automatic re-registration — ``reregisters``
    measures exactly that path.

    The signature folds every delivered batch (id, columns, rows,
    publish/receive instants, provenance) plus every poll round's rows:
    same seed and knobs => byte-identical delivery, whatever the
    detector or console is doing on the side.
    """

    seed: int
    rounds: int
    subscriptions: int
    partition: bool
    #: Batches / rows the consumer received (replays included).
    delivered_batches: int = 0
    delivered_rows: int = 0
    #: Batches flagged ``replay`` (latest/history attach catch-up).
    replay_batches: int = 0
    #: Hub-side counters (batches pushed, the datagram frames that
    #: carried them, rows replayed on attach, drops, brownout
    #: suppressions, expiries, tombstone resurrections, sheds).
    pushes: int = 0
    frames: int = 0
    replayed: int = 0
    dropped: int = 0
    suppressed: int = 0
    expired: int = 0
    resurrected: int = 0
    shed: int = 0
    #: Consumer-side lease upkeep.
    renewals: int = 0
    renewal_failures: int = 0
    reregisters: int = 0
    #: Republisher-derived windows published / samples folded.
    derived_windows: int = 0
    derived_samples: int = 0
    #: Non-paused subscriptions left holding buffered batches after the
    #: drain (must be empty — a live subscription never buffers).
    stuck_buffers: list[str] = field(default_factory=list)
    #: SHA-256 over every delivered batch and poll round (replay identity).
    signature: str = ""
    hub: dict[str, Any] = field(default_factory=dict)
    faults: dict[str, Any] = field(default_factory=dict)
    trace_violations: list[str] = field(default_factory=list)
    traces_checked: int = 0
    pending_futures: int = 0
    elapsed_virtual: float = 0.0
    race_findings: list[str] = field(default_factory=list)
    race_accesses: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "subscriptions": self.subscriptions,
            "partition": self.partition,
            "delivered_batches": self.delivered_batches,
            "delivered_rows": self.delivered_rows,
            "replay_batches": self.replay_batches,
            "pushes": self.pushes,
            "frames": self.frames,
            "replayed": self.replayed,
            "dropped": self.dropped,
            "suppressed": self.suppressed,
            "expired": self.expired,
            "resurrected": self.resurrected,
            "shed": self.shed,
            "renewals": self.renewals,
            "renewal_failures": self.renewal_failures,
            "reregisters": self.reregisters,
            "derived_windows": self.derived_windows,
            "derived_samples": self.derived_samples,
            "stuck_buffers": list(self.stuck_buffers),
            "signature": self.signature,
            "hub": dict(self.hub),
            "faults": dict(self.faults),
            "trace_violations": list(self.trace_violations),
            "traces_checked": self.traces_checked,
            "pending_futures": self.pending_futures,
            "elapsed_virtual": self.elapsed_virtual,
            "race_findings": list(self.race_findings),
            "race_accesses": self.race_accesses,
        }

    def format(self) -> str:
        """Console rendering of the run."""
        f = self.faults
        lines = [
            f"Stream run: seed={self.seed}, {self.rounds} rounds, "
            f"{self.subscriptions} subscription(s), "
            f"consumer partition {'on' if self.partition else 'off'}",
            f"  delivered: {self.delivered_batches} batches "
            f"({self.delivered_rows} rows), "
            f"{self.replay_batches} replay batches on attach",
            f"  hub: {self.pushes} pushes in {self.frames} frames, "
            f"{self.replayed} rows replayed, "
            f"{self.dropped} dropped, {self.suppressed} suppressed, "
            f"{self.shed} shed",
            f"  leases: {self.renewals} renewals "
            f"({self.renewal_failures} failed), {self.expired} expired, "
            f"{self.resurrected} resurrected, "
            f"{self.reregisters} re-registered after lapse",
            f"  republisher: {self.derived_windows} windows from "
            f"{self.derived_samples} samples",
            f"  faults injected: spikes={f.get('spikes_injected', 0)} "
            f"(+{f.get('spike_seconds', 0.0):.1f}s), "
            f"refusals={f.get('refusals', 0)}, "
            f"corruptions={f.get('corruptions', 0)}, "
            f"flaps={f.get('flaps', 0)}, "
            f"partitions={f.get('partitions', 0)}/"
            f"heals={f.get('heals', 0)}",
            f"  invariants: pending futures={self.pending_futures}, "
            f"stuck buffers={len(self.stuck_buffers)}, "
            f"trace violations={len(self.trace_violations)} "
            f"({self.traces_checked} traces checked)",
        ]
        if self.race_accesses:
            lines.append(
                f"  lane races: {len(self.race_findings)} finding(s) over "
                f"{self.race_accesses} shared-state accesses"
            )
        lines.append(f"  replay signature: {self.signature[:16]}…")
        return "\n".join(lines)


def run_stream(
    *,
    seed: int = 0,
    rounds: int = 12,
    hosts: int = 4,
    agents: Sequence[str] = ("snmp",),
    subscriptions: int = 6,
    period: float = 10.0,
    warmup_rounds: int = 3,
    deadline: float = 10.0,
    partition: bool = True,
    sql: str = "SELECT * FROM Processor",
    race_detect: bool = False,
) -> StreamReport:
    """Continuous queries under the standard fault scenario.

    Warm-up polls run first so ``latest``/``history`` registrations have
    rows to replay on attach; the continuous queries register next (a
    deterministic flavour x class mix, each with a distinct predicate so
    plans do not alias), a republisher derives per-host windowed
    aggregates the same consumer subscribes to downstream, and only then
    do the faults start — including, when ``partition`` is on, a
    consumer partition sized to outlive lease + tombstone grace so
    recovery exercises re-registration with the delivery watermark.
    """
    from repro.gma.streams import FLAVOURS, Republisher, StreamConsumer

    lease = 2.0 * period
    policy = GatewayPolicy(
        fanout_enabled=True,
        hedge_enabled=False,
        retry_attempts=2,
        default_deadline=deadline,
        streaming_enabled=True,
        stream_sweep_period=period,
        stream_default_lease=lease,
    )
    network, (site,) = build_testbed(
        n_hosts=hosts, agents=tuple(agents), seed=seed, policy=policy
    )
    gw = site.gateway
    clock = network.clock
    clock.advance(60.0)
    urls = list(site.source_urls)
    assert gw.streams is not None  # streaming_enabled above

    detector = None
    if race_detect:
        from repro.analysis import races

        detector = races.RaceDetector.standard(clock)
        gw.race_detector = detector

    report = StreamReport(
        seed=seed, rounds=rounds, subscriptions=subscriptions, partition=partition
    )
    digest = hashlib.sha256()

    with _maybe_detect(detector):
        # Clean warm-up polls: populate the hub's latest-rows map and the
        # gateway history so latest/history registrations replay rows.
        for _ in range(max(0, warmup_rounds)):
            gw.query(urls, sql, mode=QueryMode.REALTIME)
            clock.advance(period)

        consumer = StreamConsumer(network, "stream-client")
        hub_addr = gw.streams.address
        # Deterministic flavour x class mix; distinct predicates so the
        # per-subscription plans (and their pushes) do not alias.
        for i in range(subscriptions):
            consumer.register(
                hub_addr,
                f"SELECT HostName, LoadAverage1Min FROM Processor "
                f"WHERE 0 <= {i}",
                flavour=FLAVOURS[i % len(FLAVOURS)],
                lease=lease,
                query_class=_overload_class(i),
            )
        # The republisher folds per-host CPU into windowed aggregates and
        # publishes them through its own hub; the same consumer
        # subscribes downstream, closing the derived-stream loop.
        rep = Republisher(network, "stream-rep", policy=policy)
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

        plane = FaultPlane(network, seed=seed)
        install_standard_faults(plane, site, period=period, rounds=rounds)
        span = rounds * period
        if partition:
            # Outlives lease (2p) + sweep-to-tombstone + tombstone drop
            # (2 sweeps, 2p): the hub forgets the consumer's
            # subscriptions entirely, so healing must re-register.
            plane.partition_between(
                [gw.host], ["stream-client"],
                start=0.25 * span,
                duration=lease + 3.0 * period,
            )

        started = clock.now()
        for i in range(rounds):
            result = gw.query(urls, sql, mode=QueryMode.REALTIME)
            digest.update(
                repr(
                    (
                        i,
                        result.columns,
                        result.rows,
                        [(s.url, s.ok, s.rows, s.error) for s in result.statuses],
                    )
                ).encode()
            )
            clock.advance(period)
        # Drain fault heals, sweeps, renew timers, pending window rolls.
        clock.advance(10 * period)

        # Fold every delivered batch, arrival order: the push plane's
        # half of the replay identity.
        for batch in consumer.batches:
            digest.update(
                repr(
                    (
                        batch["cq"],
                        batch["columns"],
                        batch["rows"],
                        batch["published_at"],
                        batch["received_at"],
                        batch["source_url"],
                        batch["replay"],
                    )
                ).encode()
            )

        report.delivered_batches = len(consumer.batches)
        report.delivered_rows = sum(len(b["rows"]) for b in consumer.batches)
        report.replay_batches = sum(1 for b in consumer.batches if b["replay"])
        report.renewals = consumer.stats["renewals"]
        report.renewal_failures = consumer.stats["renewal_failures"]
        report.reregisters = consumer.stats["reregisters"]
        report.derived_windows = derivation.windows_published
        report.derived_samples = rep.stats["samples"]
        for hub in (gw.streams, rep.hub):
            for cq_id, b in hub.buffer_stats().items():
                if b["buffered"] and not b["paused"]:
                    report.stuck_buffers.append(
                        f"{hub.address.host}: cq{cq_id} live with "
                        f"{b['buffered']} buffered batch(es)"
                    )
        report.hub = gw.streams.snapshot()
        for key in (
            "pushes", "frames", "replayed", "dropped", "suppressed",
            "expired", "resurrected", "shed",
        ):
            setattr(report, key, int(report.hub[key]))

        # Clean teardown over a healed network, then settle.
        consumer.stop()
        rep.stop()
        clock.advance(period)

    if detector is not None:
        report.race_findings = [f.format() for f in detector.report()]
        report.race_accesses = detector.accesses_noted

    report.signature = digest.hexdigest()
    report.elapsed_virtual = clock.now() - started
    report.faults = plane.stats.as_dict()
    from repro.obs.invariants import check_tracer

    report.traces_checked = len(gw.tracer.traces())
    report.trace_violations = check_tracer(gw.tracer)
    report.pending_futures = network.pending_futures()
    return report
