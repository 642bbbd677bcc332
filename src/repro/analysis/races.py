"""Virtual-lane race detector: the GRM55x dynamic finding family.

The simulator is single-threaded, so nothing here is about data races in
the pthread sense.  The hazard is *model-level*: two branches of a
:class:`~repro.simnet.clock.ConcurrentScope` are virtually simultaneous
(neither happens-before the other until the scope joins), yet they
execute sequentially in whatever order the code launched them — so when
two unordered branches touch the same mutable state, the outcome encodes
the launch order.  That is exactly the class of bug that silently breaks
replay identity when someone reorders a loop, and it is invisible to the
static GRM50x rules because the sharing happens through perfectly
deterministic-looking attribute access.

**Happens-before over lanes.**  Every executing branch has a *lane
vector* — ``clock.lane`` — one ``(scope_id, branch_index)`` frame per
level of scope nesting, outermost first (empty tuple = sequential
context).  Two accesses are **unordered** iff at the first frame where
their lanes differ the scope ids are equal but the branch indices are
not: sibling branches of one scope.  Every other relation (equal lanes,
prefix lanes, different scopes at the first difference) is program
order, because scope ids are allocated globally and a scope must join
before sequential execution resumes.

**Disciplines.**  Not all sharing is a bug — the fan-out layer's
single-flight coalescing, for example, is *deliberate* cross-branch
communication and is not instrumented at all.  Registered state carries
an access discipline:

* ``EXCLUSIVE`` — any unordered pair involving a write is a finding
  (write/write → **GRM551**, read/write → **GRM552**);
* ``COMMUTATIVE`` — unordered writes are fine (counter adds, histogram
  records, history appends commute), but an unordered read still
  observes a launch-order-dependent partial state → **GRM552**;
* ``VALUE`` — unordered writes are fine when they write the same value
  (idempotent puts, compared by caller-provided digest), a differing
  digest → **GRM551**; reads are never flagged.

Hooks are a single ambient check — ``if races.ACTIVE is not None`` — so
the instrumented hot paths (every counter add) pay one attribute load
when detection is off.  Activate with::

    detector = RaceDetector.standard(clock)
    with races.activate(detector):
        ...  # run the scenario
    findings = detector.report()

The static half of the sanitizer lives in
:mod:`repro.analysis.determinism`; the lockstep dual-run divergence check
that complements this detector is :func:`repro.scenario.run` with
``race_detect=True`` (what ``--race-detect`` means on every scenario
command, and what ``python -m repro racecheck`` always does).
"""

from __future__ import annotations

import enum
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.findings import AnalysisReport, Finding, Severity

if TYPE_CHECKING:
    from repro.simnet.clock import VirtualClock

#: A lane vector: one (scope_id, branch_index) frame per nesting level.
Lane = tuple[tuple[int, int], ...]

#: Dynamic finding ids reported by this module, with one-line docs —
#: kept alongside the static registry by the rule-coverage tests.
RACE_RULE_DOCS = {
    "GRM551": "unordered-branch write/write on shared state",
    "GRM552": "unordered-branch read/write on shared state",
}

RACE_RULE_IDS = tuple(sorted(RACE_RULE_DOCS))


class Discipline(enum.Enum):
    """How much cross-branch sharing a piece of state tolerates."""

    EXCLUSIVE = "exclusive"
    COMMUTATIVE = "commutative"
    VALUE = "value"


def unordered(a: Lane, b: Lane) -> bool:
    """True iff the two lane vectors are virtually simultaneous.

    Sibling branches of one scope — equal scope id, different branch
    index at the first differing frame.  Equal lanes are the same
    branch; a strict prefix is an enclosing context; different scope
    ids mean one scope joined before the other opened.  All of those
    are program order.
    """
    for frame_a, frame_b in zip(a, b):
        if frame_a != frame_b:
            return frame_a[0] == frame_b[0] and frame_a[1] != frame_b[1]
    return False


@dataclass
class _Access:
    """One remembered touch of a state cell."""

    lane: Lane
    kind: str  # "r" or "w"
    digest: Optional[str]
    site: str
    at: float


class RaceDetector:
    """Tracks reads/writes to registered shared state across lanes.

    One detector per scenario run.  State groups are registered with a
    :class:`Discipline`; accesses arrive through :meth:`note` (usually
    via the module-level ambient hook).  Per ``(state, key)`` cell the
    detector keeps a bounded window of accesses since the last
    sequential touch — a sequential access happens-after everything
    recorded before it, so it resets the cell.
    """

    def __init__(self, clock: "VirtualClock", *, max_cell_history: int = 64) -> None:
        self._clock = clock
        self._disciplines: dict[str, Discipline] = {}
        self._cells: dict[tuple[str, str], deque[_Access]] = {}
        self._findings: list[Finding] = []
        self._seen: set[str] = set()
        self._max_cell_history = max_cell_history
        self.accesses_noted = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, state: str, discipline: Discipline) -> None:
        """Declare a shared-state group and its access discipline."""
        self._disciplines[state] = discipline

    @classmethod
    def standard(cls, clock: "VirtualClock") -> "RaceDetector":
        """A detector preloaded with the gateway's shared-state map.

        The discipline assignments document the system's concurrency
        contract: counters/histograms/history appends commute, cache
        puts are idempotent by value, gauges and health transitions are
        last-write-wins and must not race.
        """
        det = cls(clock)
        det.register("metrics.counter", Discipline.COMMUTATIVE)
        det.register("metrics.histogram", Discipline.COMMUTATIVE)
        det.register("metrics.gauge", Discipline.EXCLUSIVE)
        det.register("metrics.gauge.delta", Discipline.COMMUTATIVE)
        det.register("cache", Discipline.VALUE)
        # Plan-cache puts are idempotent by construction: one normalised
        # SQL key always compiles to the same plan.
        det.register("plans", Discipline.VALUE)
        det.register("history", Discipline.COMMUTATIVE)
        det.register("health", Discipline.EXCLUSIVE)
        # Adaptive-concurrency limiters: epoch folds (count/sum/min)
        # commute; the recomputed limit is value-disciplined — two
        # unordered rolls only conflict when they land on different
        # limits (a genuine order dependence).
        det.register("limiter.window", Discipline.COMMUTATIVE)
        det.register("limiter", Discipline.VALUE)
        # Streaming plane: subscription lifecycle (register / renew /
        # pause / resume / sweep) is control-plane state and must never
        # be touched from unordered branches; per-subscription pushes
        # from sibling fan-out branches commute (each batch carries its
        # own source_url + published_at provenance).
        det.register("stream.subs", Discipline.EXCLUSIVE)
        det.register("stream.push", Discipline.COMMUTATIVE)
        return det

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def note(
        self,
        state: str,
        key: str,
        kind: str,
        *,
        digest: Optional[str] = None,
        site: str = "",
    ) -> None:
        """Record one access to ``state[key]`` (kind ``"r"`` or ``"w"``)."""
        self.accesses_noted += 1
        lane = self._clock.lane
        cell_key = (state, key)
        cell = self._cells.get(cell_key)
        if lane == ():
            # Sequential context: happens-after every prior access (any
            # enclosing scope has joined), so the history resets.  Note
            # the approximation: code running *between* two branches of
            # a still-open scope is also lane-empty and resets the cell;
            # such interstitial bookkeeping is rare and scope-local.
            if cell is not None:
                cell.clear()
            return
        if cell is None:
            cell = self._cells[cell_key] = deque(maxlen=self._max_cell_history)
        access = _Access(
            lane=lane, kind=kind, digest=digest, site=site, at=self._clock.now()
        )
        discipline = self._disciplines.get(state, Discipline.EXCLUSIVE)
        for prior in cell:
            if prior.kind == "r" and kind == "r":
                continue
            if not unordered(prior.lane, lane):
                continue
            self._judge(discipline, state, key, prior, access)
        cell.append(access)

    def _judge(
        self,
        discipline: Discipline,
        state: str,
        key: str,
        prior: _Access,
        access: _Access,
    ) -> None:
        both_writes = prior.kind == "w" and access.kind == "w"
        if discipline is Discipline.COMMUTATIVE and both_writes:
            return
        if discipline is Discipline.VALUE:
            if not both_writes:
                return
            if prior.digest == access.digest:
                return
        if both_writes:
            rule_id, label = "GRM551", "write/write"
        else:
            rule_id, label = "GRM552", "read/write"
        fingerprint = f"{rule_id}:{state}:{key}"
        if fingerprint in self._seen:
            return
        self._seen.add(fingerprint)
        sites = " vs ".join(s for s in (prior.site, access.site) if s) or key
        self._findings.append(
            Finding(
                rule_id=rule_id,
                severity=Severity.ERROR,
                message=(
                    f"{label} from unordered branches on {state}[{key}] "
                    f"(lanes {_fmt_lane(prior.lane)} vs {_fmt_lane(access.lane)}"
                    f" at t={access.at:g}): outcome depends on branch launch "
                    f"order [{sites}]"
                ),
                path=f"state://{state}",
                line=0,
                symbol=key,
            )
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)

    def report(self) -> AnalysisReport:
        """The races seen so far as a standard analysis report."""
        report = AnalysisReport()
        report.extend(self._findings)
        report.findings = report.sorted()
        return report

    def reset_window(self) -> None:
        """Forget access history (keep findings) — e.g. between rounds."""
        self._cells.clear()


def _fmt_lane(lane: Lane) -> str:
    return "/".join(f"s{sid}b{idx}" for sid, idx in lane) or "seq"


# ----------------------------------------------------------------------
# Ambient hook
# ----------------------------------------------------------------------
#: The active detector, or None.  Instrumented hot paths guard on this
#: being non-None before calling :func:`note`, so disabled detection
#: costs one attribute load per access.
ACTIVE: Optional[RaceDetector] = None


@contextmanager
def activate(detector: RaceDetector) -> Iterator[RaceDetector]:
    """Install ``detector`` as the ambient detector for the block."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = detector
    try:
        yield detector
    finally:
        ACTIVE = prev


def note(
    state: str,
    key: str,
    kind: str,
    *,
    digest: Optional[str] = None,
    site: str = "",
) -> None:
    """Forward one access to the ambient detector, if any."""
    det = ACTIVE
    if det is not None:
        det.note(state, key, kind, digest=digest, site=site)
