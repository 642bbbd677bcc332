"""The scenario runner: one lifecycle for every seeded soak.

``python -m repro chaos|overload|stream|crashtest|racecheck`` (or
:func:`run` from a test) drives one gateway through a seeded fault
schedule and holds it to executable checkers.  The five scenarios are
declarations in :mod:`repro.scenarios`; the lifecycle is written once,
here, in :func:`_run_once`:

    build site (on a :class:`SimDisk`) -> settle 60 s -> log the client
    in -> attach the race detector -> warm-up rounds
    -> install faults -> measured steps, each step's payload folded into
    the digest -> drain -> collect evidence -> run checkers -> sign

and a :class:`Scenario` declares only what differs: its overrides on
:func:`~repro.core.policy.production` (the one configuration every
scenario runs in), its knobs with their defaults, its fault schedule, its
``step(ctx, i)`` returning the payloads to sign, its measurements and its
checkers.

Everything is seeded and on the virtual clock: re-running with the same
seed and knobs replays the same fault schedule, the same per-request
fault draws and therefore byte-identical results — the
:class:`ScenarioReport` carries a SHA-256 signature over every step to
make replay identity checkable.  (Different knobs legitimately produce
different signatures: hedges and retries consume extra fault draws, and
fan-out shifts request instants.)

``race_detect`` means one thing on every scenario — the **dual run**:
the scenario runs under the virtual-lane race detector
(:mod:`repro.analysis.races`), then again without it, and
:func:`compare` holds the two runs' evidence streams equal — per-step
result digests (the client-visible surface), trace renders (the
observability surface) and WAL frame digests (the storage surface).
Matching streams prove both that the scenario is a pure function of its
seed and that the detector's hooks are pure observers; on mismatch the
comparator names the first diverging step, trace line or WAL frame — the
instant replay identity broke, not just the fact that it did.  All timings are *virtual* seconds;
wall-clock measurement lives in the benchmark suite, not here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import string
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.analysis import races
from repro.core.gateway import Gateway
from repro.core.health import BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode, QueryResult
from repro.core.security import Principal
from repro.gma.streams import StreamHub
from repro.obs.invariants import check_tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.faults import FaultPlane
from repro.simnet.network import Network
from repro.storage.simdisk import SimDisk
from repro.storage.wal import read_frames
from repro.testbed import AGENT_KINDS, Site, build_site

SQL = "SELECT * FROM Processor"
#: Who every scenario query runs as: one logged-in principal, so the
#: CGSL / FGSL checks are on the path the checkers judge.
CLIENT = Principal.with_roles("scenario", "operator")

Knobs = Mapping[str, Any]


class ScenarioError(ValueError):
    """A knob the runner refuses (the CLI turns it into exit status 2)."""


# ----------------------------------------------------------------------
# What a running scenario's hooks see
# ----------------------------------------------------------------------
@dataclass
class Ctx:
    """One run's live objects, handed to every hook of the declaration."""

    seed: int
    k: Knobs
    network: Network
    site: Site
    gw: Gateway
    disk: SimDisk
    #: Driver-spec persistence shared by every gateway built on the site.
    store: dict[str, str]
    detector: races.RaceDetector | None
    #: Built after warm-up (so warm-up is fault-free by construction).
    plane: FaultPlane = field(init=False)
    principal: Principal = field(init=False)
    #: Accumulated by steps, completed by ``measure``; becomes
    #: ``report.measurements``.
    measurements: dict[str, Any] = field(default_factory=dict)
    #: The scenario's own live objects (consumers, RNGs).
    fixtures: dict[str, Any] = field(default_factory=dict)
    #: Violations a hook saw mid-run, keyed by the checker that reports
    #: them — the state they concern (a crashed gateway, a consumer about
    #: to be torn down) is gone by the time checkers run.
    found: defaultdict[str, list[str]] = field(
        default_factory=lambda: defaultdict(list)
    )

    @property
    def clock(self) -> VirtualClock:
        return self.network.clock

    @property
    def urls(self) -> list[str]:
        return list(self.site.source_urls)

    def poll(self, sql: str = SQL) -> QueryResult:
        """One REALTIME query over every source of the site."""
        return self.gw.query(
            self.urls, sql, mode=QueryMode.REALTIME, principal=self.principal
        )

    def replace_gateway(self, gw: Gateway) -> None:
        """Swap in a successor gateway: the client logs in again (sessions
        die with a gateway) and the race detector carries over."""
        self.gw = gw
        self.principal = gw.login(CLIENT).principal
        if self.detector is not None:
            gw.race_detector = self.detector


Checker = Callable[[Ctx], list[str]]


def _nothing(ctx: Ctx) -> None:
    """The hook a declaration leaves out."""


def _poll_once(ctx: Ctx) -> None:
    ctx.poll()


@dataclass(frozen=True)
class Scenario:
    """What one scenario declares; everything else is :func:`_run_once`."""

    name: str
    help: str
    #: Every knob ``run`` accepts, with its default.
    knobs: Knobs
    policy: Callable[[Knobs], GatewayPolicy]
    #: One measured step; returns the payloads the signature folds.
    step: Callable[[Ctx, int], list[Any]]
    checkers: tuple[Checker, ...]
    #: ``format()`` lines: the rest of the ``Name: seed=N, `` headline,
    #: then one line each (str.format over knobs + measurements;
    #: ``{flag:onoff}`` and ``{seq:join}`` are understood on top).
    template: tuple[str, ...]
    #: The scenario's own CLI flags: knob -> (flag, help).  Boolean knobs
    #: default on, so their flag switches them off.
    flags: Mapping[str, tuple[str, str]] = field(default_factory=dict)
    #: Runs after warm-up: schedule fault windows on ``ctx.plane`` (and
    #: set up whatever must exist before the first fault fires).
    faults: Callable[[Ctx], None] = _nothing
    #: One warm-up round's work (warm-up is unmeasured and fault-free).
    warm: Callable[[Ctx], None] = _poll_once
    #: After the drain, still under the detector: tail payloads to sign.
    finish: Callable[[Ctx], list[Any]] = lambda ctx: []
    #: After the run: complete ``ctx.measurements`` from the end state.
    measure: Callable[[Ctx], None] = _nothing
    #: The knob that counts measured steps.
    steps: str = "rounds"
    #: Advance one period after each step (crashtest paces the rounds
    #: inside its cycles itself).
    paced: bool = True
    #: Periods advanced after the last step so fault heals, breaker
    #: re-probes, sweeps and renew timers settle before the checkers look.
    drain_periods: int = 10
    site_name: str = "site-a"
    #: Every run is the dual run, asked for or not.
    race_detect: bool = False


# ----------------------------------------------------------------------
# The one report
# ----------------------------------------------------------------------
class _Lines(string.Formatter):
    """``str.format`` plus ``{flag:onoff}`` and ``{seq:join}``."""

    def format_field(self, value: Any, format_spec: str) -> Any:
        if format_spec == "onoff":
            return "on" if value else "off"
        if format_spec == "join":
            return " ".join(str(v) for v in value)
        return super().format_field(value, format_spec)


@dataclass
class ScenarioReport:
    """One scenario run's measurements and invariant checks."""

    scenario: str
    seed: int
    knobs: dict[str, Any]
    #: SHA-256 over every step's payloads — the replay identity: same
    #: seed and knobs => same signature.
    signature: str = ""
    elapsed_virtual: float = 0.0
    measurements: dict[str, Any] = field(default_factory=dict)
    #: Per checker, the violations it found (all must be empty).  A dual
    #: run adds ``replay_identity``: the bisected divergences.
    violations: dict[str, list[str]] = field(default_factory=dict)
    #: GRM55x lane-race findings (dual runs only; must be empty — an
    #: entry means two unordered branches shared state).
    race_findings: list[str] = field(default_factory=list)
    #: State accesses the race detector inspected (0 = detection off).
    race_accesses: int = 0
    #: Dual runs only: evidence-stream lengths held equal
    #: (``steps`` / ``traces`` / ``wal_frames``).
    compared: dict[str, int] = field(default_factory=dict)
    template: tuple[str, ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        return not self.race_findings and not any(self.violations.values())

    def as_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        del out["template"]
        out["ok"] = self.ok
        return out

    def format(self) -> str:
        """Console rendering: the scenario's lines, then the shared tail."""
        values = {**self.knobs, **self.measurements}
        render = _Lines()
        head, *body = self.template
        lines = [
            f"{self.scenario.capitalize()}: seed={self.seed}, "
            + render.vformat(head, (), values)
        ]
        lines += ["  " + render.vformat(line, (), values) for line in body]
        if self.race_accesses:
            lines.append(
                f"  lane races: {len(self.race_findings)} finding(s) over "
                f"{self.race_accesses} shared-state accesses"
            )
            lines += [f"    {finding}" for finding in self.race_findings]
        if self.compared:
            c = self.compared
            verdict = "DIVERGENCE" if self.violations["replay_identity"] else "OK"
            lines.append(
                f"  dual run: {c['steps']} steps, {c['traces']} traces, "
                f"{c['wal_frames']} WAL frames compared — "
                f"replay identity: {verdict}"
            )
        broken = [(name, v) for name, vs in self.violations.items() for v in vs]
        if broken:
            lines.append(f"  VIOLATIONS ({len(broken)}):")
            lines += [f"    - {name}: {v}" for name, v in broken]
        else:
            lines.append(
                f"  invariants: OK ({', '.join(self.violations)}; "
                f"{self.measurements.get('traces_checked', 0)} traces checked)"
            )
        lines += [
            f"  elapsed (virtual): {self.elapsed_virtual:.3f}s",
            f"  replay signature: {self.signature[:16]}…",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The one lifecycle
# ----------------------------------------------------------------------
@dataclass
class Evidence:
    """What one run leaves behind for the dual-run comparison."""

    step_digests: list[str] = field(default_factory=list)
    trace_renders: list[str] = field(default_factory=list)
    wal_frames: list[str] = field(default_factory=list)
    wal_tail: str = ""


def _validated(scenario: Scenario, overrides: Knobs) -> dict[str, Any]:
    """The scenario's knobs with ``overrides`` applied, or ScenarioError."""
    unknown = sorted(set(overrides) - set(scenario.knobs))
    if unknown:
        raise ScenarioError(f"{scenario.name}: unknown knob(s): {unknown}")
    k = {**scenario.knobs, **overrides}
    k["agents"] = tuple(k["agents"])
    for name in ("rounds", "cycles", "hosts", "subscriptions", "spike_load"):
        if name in k and k[name] < 1:
            raise ScenarioError(f"{name} must be >= 1: {k[name]!r}")
    if k["period"] <= 0:
        raise ScenarioError(f"period must be > 0: {k['period']!r}")
    bogus = sorted(set(k["agents"]) - set(AGENT_KINDS))
    if bogus or not k["agents"]:
        raise ScenarioError(
            f"agents must name kinds from {', '.join(AGENT_KINDS)}; "
            f"unknown agent kind(s): {bogus}"
        )
    return k


def _run_once(
    scenario: Scenario, seed: int, k: Knobs, *, detect: bool
) -> tuple[ScenarioReport, Evidence]:
    """The lifecycle: every scenario, every run, goes through here."""
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    disk = SimDisk(
        clock=clock, write_latency=0.0002, fsync_latency=0.002, read_latency=0.0005
    )
    store: dict[str, str] = {}
    site = build_site(
        network,
        name=scenario.site_name,
        n_hosts=k["hosts"],
        agents=k["agents"],
        seed=seed,
        policy=scenario.policy(k),
        disk=disk,
        persistent_store=store,
    )
    clock.advance(60.0)
    detector = races.RaceDetector.standard(clock) if detect else None
    ctx = Ctx(seed, k, network, site, site.gateway, disk, store, detector)
    ctx.replace_gateway(site.gateway)

    period = k["period"]
    digest = hashlib.sha256()
    evidence = Evidence()

    def fold(payloads: list[Any]) -> None:
        blob = b"".join(repr(p).encode() for p in payloads)
        digest.update(blob)
        evidence.step_digests.append(hashlib.sha256(blob).hexdigest()[:16])

    with races.activate(detector) if detector is not None else nullcontext():
        # Clean polls first (hedger latency window, cache coverage, replay
        # fodder); faults start only after, so two runs differing only in
        # knobs see the identical schedule.
        for _ in range(k.get("warmup_rounds", 0)):
            scenario.warm(ctx)
            clock.advance(period)
        ctx.plane = FaultPlane(network, seed=seed)
        scenario.faults(ctx)

        started = clock.now()
        for i in range(k[scenario.steps]):
            fold(scenario.step(ctx, i))
            if scenario.paced:
                clock.advance(period)
        clock.advance(scenario.drain_periods * period)
        tail = scenario.finish(ctx)
        if tail:
            fold(tail)

    report = ScenarioReport(
        scenario.name, seed, dict(k), template=scenario.template
    )
    if detector is not None:
        report.race_findings = [f.format() for f in detector.report()]
        report.race_accesses = detector.accesses_noted
    report.signature = digest.hexdigest()
    report.elapsed_virtual = clock.now() - started

    gw = ctx.gw
    evidence.trace_renders = [t.render() for t in gw.tracer.traces()]
    engine = gw.history_engine
    if engine is not None:
        engine.sync()
        frames, evidence.wal_tail, _ = read_frames(disk.read(engine.wal.path))
        evidence.wal_frames = [hashlib.sha256(f).hexdigest()[:16] for f in frames]

    ctx.measurements["faults"] = ctx.plane.stats.as_dict()
    ctx.measurements["traces_checked"] = len(evidence.trace_renders)
    scenario.measure(ctx)
    report.measurements = ctx.measurements
    report.violations = {c.__name__: c(ctx) for c in scenario.checkers}
    return report, evidence


def _first_diff_line(a: str, b: str) -> tuple[int, str, str]:
    """(1-based line number, line from a, line from b) of the first
    differing line between two renders."""
    lines_a = a.splitlines()
    lines_b = b.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return i + 1, la, lb
    n = min(len(lines_a), len(lines_b))
    return (
        n + 1,
        lines_a[n] if n < len(lines_a) else "<absent>",
        lines_b[n] if n < len(lines_b) else "<absent>",
    )


def compare(run1: Evidence, run2: Evidence) -> tuple[dict[str, int], list[str]]:
    """Hold two runs' evidence streams equal.

    Returns the stream lengths compared and, per stream, the first
    divergence (empty = the runs were byte-identical).
    """
    divergence: list[str] = []
    streams = (
        ("step", run1.step_digests, run2.step_digests),
        ("trace", run1.trace_renders, run2.trace_renders),
        ("WAL frame", run1.wal_frames, run2.wal_frames),
    )
    for what, s1, s2 in streams:
        if len(s1) != len(s2):
            divergence.append(f"{what} count differs: {len(s1)} != {len(s2)}")
        for i, (e1, e2) in enumerate(zip(s1, s2)):
            if e1 == e2:
                continue
            if what == "trace":
                line, la, lb = _first_diff_line(e1, e2)
                divergence.append(
                    f"trace {i} line {line}: first diverging span line: "
                    f"{la!r} != {lb!r}"
                )
            else:
                divergence.append(
                    f"{what} {i}: digest {e1} != {e2} — first diverging {what}"
                )
            break
    if run1.wal_tail != run2.wal_tail:
        divergence.append(
            f"WAL tail classification differs: {run1.wal_tail!r} != "
            f"{run2.wal_tail!r}"
        )
    compared = {
        "steps": min(len(run1.step_digests), len(run2.step_digests)),
        "traces": min(len(run1.trace_renders), len(run2.trace_renders)),
        "wal_frames": min(len(run1.wal_frames), len(run2.wal_frames)),
    }
    return compared, divergence


def run(
    scenario: Scenario,
    *,
    seed: int = 0,
    race_detect: bool = False,
    **knobs: Any,
) -> ScenarioReport:
    """Run ``scenario`` once — or, with ``race_detect``, twice.

    The dual run executes under the race detector, then without it, and
    reports the watched run with the two runs' evidence compared:
    ``report.ok`` then also requires zero lane-race findings and an
    empty ``violations["replay_identity"]``.  Violations are collected,
    never raised — the caller (CLI, CI) decides what a red report means;
    only knobs the runner refuses raise (:class:`ScenarioError`).
    """
    k = _validated(scenario, knobs)
    if not (race_detect or scenario.race_detect):
        return _run_once(scenario, seed, k, detect=False)[0]
    report, watched = _run_once(scenario, seed, k, detect=True)
    _, plain = _run_once(scenario, seed, k, detect=False)
    report.compared, report.violations["replay_identity"] = compare(watched, plain)
    return report


# ----------------------------------------------------------------------
# Stock checkers
# ----------------------------------------------------------------------
def breaker_invariants(ctx: Ctx) -> list[str]:
    """Structural invariants every breaker entry must satisfy."""
    valid = {s.value for s in BreakerState}
    out = []
    for key, e in ctx.gw.health.scoreboard().items():
        if e["state"] not in valid:
            out.append(f"{key}: unknown state {e['state']!r}")
        if e["consecutive_failures"] > e["total_failures"]:
            out.append(f"{key}: consecutive_failures > total_failures")
        if e["state"] == BreakerState.OPEN.value and e["open_until"] <= 0:
            out.append(f"{key}: OPEN with no open_until instant")
        if e["trips"] > 0 and e["total_failures"] == 0:
            out.append(f"{key}: tripped without any recorded failure")
    return out


def trace_invariants(ctx: Ctx) -> list[str]:
    """Span-tree invariants across every retained query trace (closure,
    containment, hedge accounting)."""
    return check_tracer(ctx.gw.tracer)


def stuck_buffers(hub: StreamHub | None) -> list[str]:
    """Live (non-paused) subscriptions of ``hub`` holding buffered batches."""
    if hub is None:
        return []
    return [
        f"{hub.address.host}: cq{cq_id} live with {b['buffered']} buffered batch(es)"
        for cq_id, b in hub.buffer_stats().items()
        if b["buffered"] and not b["paused"]
    ]


def no_stuck_buffers(ctx: Ctx) -> list[str]:
    """A live subscription never buffers (what a hook saw before tearing
    its consumer down, plus the gateway hub's end state)."""
    return ctx.found["no_stuck_buffers"] + stuck_buffers(ctx.gw.streams)
