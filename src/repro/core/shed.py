"""Pressure state machine and priority shed policy.

The Zhang/Freschl/Schopf performance study shows the classic failure
shape of 2003-era monitoring services under concurrent-user sweeps:
throughput peaks, then *goodput* collapses as queues fill with requests
that will miss their deadlines anyway.  The cure is graceful
degradation: a gateway-level pressure signal (queue depth + limiter
headroom) drives a three-state machine, and each query class has a
per-state fate — shed the batch tier first, serve the interactive tier
stale, never refuse the critical tier.

States (escalation is immediate, de-escalation waits out a dwell so the
gateway does not flap between serving modes):

* ``NORMAL`` — every class dispatches; only the bounded admission queue
  applies.
* ``BROWNOUT`` — the gateway is saturated: BATCH and INTERACTIVE
  queries are answered from stale cache with a degraded marker instead
  of dispatching (PR 1's stale-serving machinery); BATCH with no stale
  coverage is shed, INTERACTIVE without coverage still dispatches.
* ``SHED`` — the queue is nearly full: BATCH is shed outright,
  INTERACTIVE is served stale or shed, CRITICAL still dispatches.

Everything here rides the virtual clock and is deterministic under
replay; the per-class shed counters are plain registry counters
(commutative under the PR 7 race discipline).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry, StatsView
from repro.simnet.clock import VirtualClock


class PressureState(enum.Enum):
    """The gateway-level overload state (ordered by severity)."""

    NORMAL = "normal"
    BROWNOUT = "brownout"
    SHED = "shed"


#: Queue fill fractions at which the raw pressure signal reads BROWNOUT
#: and SHED.
BROWNOUT_ENTER = 0.25
SHED_ENTER = 0.75

#: Severity rank used for the hysteresis comparison.
_RANK = {PressureState.NORMAL: 0, PressureState.BROWNOUT: 1, PressureState.SHED: 2}


class ShedAction(enum.Enum):
    """What the admission layer does with one query, per state x class."""

    DISPATCH = "dispatch"
    STALE_THEN_DISPATCH = "stale_then_dispatch"
    STALE_THEN_SHED = "stale_then_shed"
    SHED = "shed"


def shed_action(state: PressureState, query_class: "QueryClassLike") -> ShedAction:
    """The per-class fate table (see module docstring).

    ``query_class`` is anything with a ``value`` of "critical" /
    "interactive" / "batch" (kept duck-typed so this module does not
    import :mod:`repro.core.admission`, which imports it).
    """
    cls = getattr(query_class, "value", str(query_class))
    if state is PressureState.NORMAL or cls == "critical":
        return ShedAction.DISPATCH
    if state is PressureState.BROWNOUT:
        if cls == "batch":
            return ShedAction.STALE_THEN_SHED
        return ShedAction.STALE_THEN_DISPATCH
    # SHED
    if cls == "batch":
        return ShedAction.SHED
    return ShedAction.STALE_THEN_SHED


# Forward-reference alias for the docstring above (no runtime import of
# repro.core.admission here — it imports this module).
QueryClassLike = object


class PressureMonitor:
    """NORMAL / BROWNOUT / SHED, driven by queue depth + limiter headroom.

    The pressure signal is the admission queue's fill fraction; running
    with zero limiter headroom while anything queues also counts as
    pressure (a saturated gateway with a short queue should brown out
    before the queue is deep).  Escalation is immediate; stepping down
    requires the raw signal to relax *and* ``min_dwell`` virtual seconds
    in the current state, so one fast round cannot flap the gateway
    between serving modes.
    """

    def __init__(
        self,
        clock: VirtualClock,
        *,
        queue_capacity: int,
        min_dwell: float,
        registry: Optional[MetricsRegistry] = None,
        on_transition: Optional[
            Callable[[PressureState, PressureState], None]
        ] = None,
    ) -> None:
        self._clock = clock
        self.queue_capacity = max(1, queue_capacity)
        self.min_dwell = min_dwell
        registry = registry if registry is not None else MetricsRegistry()
        self._transitions = registry.counter("admission.transitions")
        self.on_transition = on_transition
        self.state = PressureState.NORMAL
        self.since = clock.now()
        self.transitions = 0

    # ------------------------------------------------------------------
    def observe(self, queue_depth: int, headroom: int) -> PressureState:
        """Fold one observation in; returns the (possibly new) state."""
        pressure = queue_depth / self.queue_capacity
        if pressure >= SHED_ENTER:
            raw = PressureState.SHED
        elif pressure >= BROWNOUT_ENTER or (headroom <= 0 and queue_depth > 0):
            raw = PressureState.BROWNOUT
        else:
            raw = PressureState.NORMAL
        if raw is self.state:
            return self.state
        now = self._clock.now()
        if _RANK[raw] < _RANK[self.state] and now - self.since < self.min_dwell:
            # De-escalation waits out the dwell (hysteresis).
            return self.state
        old, self.state, self.since = self.state, raw, now
        self.transitions += 1
        self._transitions.add(1)
        if self.on_transition is not None:
            self.on_transition(old, raw)
        return self.state

    def retry_after(self) -> float:
        """Hint carried on :class:`~repro.core.errors.OverloadError`:
        the earliest instant (relative, virtual seconds) at which the
        current state could step down."""
        if self.state is PressureState.NORMAL:
            return 0.0
        remaining = (self.since + self.min_dwell) - self._clock.now()
        return max(0.1, remaining)


class ShedLedger:
    """Per-class shed counters (registry-backed, commutative)."""

    CLASSES = ("critical", "interactive", "batch")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._counts = StatsView(
            registry if registry is not None else MetricsRegistry(),
            "shed",
            (*self.CLASSES, "total"),
        )

    def record(self, query_class: "QueryClassLike") -> None:
        cls = getattr(query_class, "value", str(query_class))
        self._counts.inc("total")
        if cls in self.CLASSES:
            self._counts.inc(cls)

    def counts(self) -> dict[str, float]:
        return self._counts.as_dict()
