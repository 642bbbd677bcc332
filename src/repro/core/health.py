"""Per-source health tracking: circuit breakers with exponential backoff.

The paper's failure policies (§3.1.3, §4: report / retry / try-another /
dynamic reselection) decide what happens *within one query* when a driver
cannot reach its data source.  They are stateless across queries, so a
dead SNMP agent costs the full retry budget plus a dynamic scan — each a
multi-second native timeout — on *every* query, and a partitioned remote
gateway stalls every Global-layer request that touches it.  That is
precisely the intrusiveness/scalability failure mode the MDS2/R-GMA
performance study identifies, and that R-GMA mitigates with
registry-level liveness.

:class:`HealthTracker` gives the gateway a memory of source health: one
three-state circuit breaker per source key (the full JDBC URL text for
local sources, ``gma://<site>`` for remote gateways).

State machine::

                 success                failure (consecutive >= threshold)
    +--------+ <--------- +-----------+ <--------------------- +--------+
    | CLOSED |            | HALF_OPEN |                        |  OPEN  |
    +--------+ ---------> +-----------+ ---------------------> +--------+
       |   failure x N        |  ^  failure (backoff doubles)      |
       +--------------------->+  +---------------------------------+
                                        backoff elapsed (probe window)

* ``CLOSED`` — normal operation; failures are counted.
* ``OPEN`` — requests are short-circuited without touching the source;
  an exponential, jittered backoff (computed on the
  :class:`~repro.simnet.clock.VirtualClock`) decides when to probe.
* ``HALF_OPEN`` — the backoff elapsed; trial requests are allowed.  One
  failure re-opens with a doubled backoff; the first success closes the
  breaker.

The tracker is deliberately passive: callers ask :meth:`allow_request`
before paying connect/retry cost and report outcomes with
:meth:`record_success` / :meth:`record_failure`.  Every state transition
is surfaced through the ``on_transition`` callback, which the Gateway
wires to the EventManager (history + listeners) and to connection-pool
quarantine.
"""

from __future__ import annotations

import enum
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.analysis import races
from repro.core.policy import GatewayPolicy
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.simnet.clock import VirtualClock

#: Upper bound of the multiplicative jitter applied to each backoff: the
#: wait is uniform in ``[backoff, backoff * (1 + BACKOFF_JITTER)]``, then
#: capped at ``breaker_max_backoff`` — so recovery is always due within
#: the configured maximum, while a fleet of breakers tripped by one
#: outage does not probe in lock-step when it heals.
BACKOFF_JITTER = 0.25

#: Seed of the tracker's jitter stream: breaker waits replay exactly.
JITTER_SEED = 0

#: Consecutive failure observations that trip a CLOSED breaker OPEN.
FAILURE_THRESHOLD = 3


def jittered_backoff(raw: float, cap: float, rng: random.Random) -> float:
    """One jittered wait: uniform in ``[raw, raw * (1 + jitter)]``, capped.

    Shared by the circuit breakers (OPEN duration per trip) and the
    query retry layer (:mod:`repro.core.retry`), so every backoff in the
    gateway desynchronises the same way.
    """
    return min(cap, raw * (1 + rng.uniform(0.0, BACKOFF_JITTER)))


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class SourceHealth:
    """Everything the tracker knows about one source."""

    key: str
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    trips: int = 0
    short_circuits: int = 0
    opened_at: float = 0.0
    open_until: float = 0.0
    #: The unjittered backoff of the current open streak (doubles per
    #: consecutive trip, reset when the breaker closes).
    current_backoff: float = 0.0
    last_error: str = ""
    last_change: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "total_successes": self.total_successes,
            "trips": self.trips,
            "short_circuits": self.short_circuits,
            "open_until": self.open_until,
            "backoff": self.current_backoff,
            "last_error": self.last_error,
        }


#: ``on_transition(key, old_state, new_state, health)``.
TransitionListener = Callable[[str, BreakerState, BreakerState, SourceHealth], None]


class HealthTracker:
    """Per-source circuit breakers over the virtual clock.

    The request manager records one success per answered fetch and one
    failure per failed attempt (a failed connect, a transport error, a
    bad reply); the Global layer does the same per remote-gateway round
    trip.  ``total_successes``/``total_failures`` therefore count fetches
    and attempts, not queries, and ``consecutive_failures`` resets on any
    success.
    """

    def __init__(
        self,
        clock: VirtualClock,
        policy: GatewayPolicy,
        *,
        on_transition: TransitionListener | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.clock = clock
        self.policy = policy
        self.on_transition = on_transition
        self._rng = random.Random(JITTER_SEED)
        self._sources: dict[str, SourceHealth] = {}
        # Admission decisions pinned for the duration of one dispatched
        # operation (see :meth:`pin`): key -> stack of frozen decisions,
        # and the outcomes recorded meanwhile, held until the outermost
        # pin exits.
        self._pins: dict[str, list[bool]] = {}
        self._deferred: dict[str, list[tuple[str, str]]] = {}
        self.stats = StatsView(
            registry if registry is not None else MetricsRegistry(),
            "health",
            ("trips", "recoveries", "short_circuits"),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _entry(self, key: str) -> SourceHealth:
        entry = self._sources.get(key)
        if entry is None:
            entry = self._sources[key] = SourceHealth(key=key)
        return entry

    def health(self, key: str) -> SourceHealth:
        """The health record for ``key`` (a fresh CLOSED one if unseen)."""
        return self._entry(key)

    def state(self, key: str) -> BreakerState:
        entry = self._sources.get(key)
        return entry.state if entry is not None else BreakerState.CLOSED

    def allow_request(self, key: str) -> bool:
        """Consult the breaker before paying connect/retry cost.

        CLOSED and HALF_OPEN allow the request.  OPEN short-circuits it
        unless the backoff has elapsed, in which case the breaker moves
        to HALF_OPEN and the request becomes the probe.
        """
        if not self.policy.breaker_enabled:
            return True
        pinned = self._pins.get(key)
        if pinned:
            # Admission for the enclosing operation was decided before
            # its concurrent scope opened; re-checks inside the scope
            # (retry attempts, hedge siblings) read that frozen decision
            # rather than breaker state a sibling branch may be mutating
            # — a pinned read is not a shared-state access, so no race
            # note either.
            return pinned[-1]
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "health", key, "r", site="HealthTracker.allow_request"
            )
        entry = self._sources.get(key)
        if entry is None or entry.state is BreakerState.CLOSED:
            return True
        if entry.state is BreakerState.OPEN:
            if self.clock.now() >= entry.open_until:
                self._transition(entry, BreakerState.HALF_OPEN)
                return True
            entry.short_circuits += 1
            self.stats.inc("short_circuits")
            return False
        return True  # HALF_OPEN: probes flow

    @contextmanager
    def pin(self, key: str, decision: bool) -> "Iterator[None]":
        """Freeze ``allow_request(key)`` to ``decision`` for the block.

        The request manager decides admission once, sequentially, before
        handing the fetch to the (possibly hedged, possibly retried)
        dispatch path, and ``Gateway.query_batch`` decides it once per
        source for all its members; every breaker consult inside the
        block then sees the decision as it stood at launch.  Without
        this, a batch member's ``allow_request`` would read breaker state
        its virtually-simultaneous sibling just wrote — admission would
        depend on branch launch order (a GRM552 lane race).

        Outcomes recorded while pinned (the failed attempts of hedge
        siblings and retries, a batch member's answer) are *deferred*:
        buffered, then applied when the outermost pin exits, failures
        before successes.  Two virtually-simultaneous attempts therefore
        contribute the same end state whatever order the dispatcher
        happened to launch them in — the write side of the same
        lane-race hazard.  Pins nest; the innermost decision wins.
        """
        stack = self._pins.setdefault(key, [])
        stack.append(decision)
        try:
            yield
        finally:
            stack.pop()
            if not stack:
                del self._pins[key]
                for kind, error in sorted(
                    self._deferred.pop(key, ()), key=lambda o: o[0] == "s"
                ):
                    if kind == "s":
                        self.record_success(key)
                    else:
                        self.record_failure(key, error)

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------
    def record_success(self, key: str) -> None:
        if key in self._pins:
            self._deferred.setdefault(key, []).append(("s", ""))
            return
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "health", key, "w", site="HealthTracker.record_success"
            )
        entry = self._entry(key)
        entry.total_successes += 1
        entry.consecutive_failures = 0
        entry.last_error = ""
        if not self.policy.breaker_enabled:
            return
        if entry.state is not BreakerState.CLOSED:
            entry.current_backoff = 0.0
            self.stats.inc("recoveries")
            self._transition(entry, BreakerState.CLOSED)

    def record_failure(self, key: str, error: str = "") -> None:
        if key in self._pins:
            self._deferred.setdefault(key, []).append(("f", error))
            return
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "health", key, "w", site="HealthTracker.record_failure"
            )
        entry = self._entry(key)
        entry.total_failures += 1
        entry.consecutive_failures += 1
        entry.last_error = error
        if not self.policy.breaker_enabled:
            return
        if entry.state is BreakerState.HALF_OPEN:
            self._trip(entry)  # the probe failed: re-open, backoff doubles
        elif (
            entry.state is BreakerState.CLOSED
            and entry.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._trip(entry)

    # ------------------------------------------------------------------
    def _trip(self, entry: SourceHealth) -> None:
        now = self.clock.now()
        cap = self.policy.breaker_max_backoff
        if entry.current_backoff <= 0:
            raw = self.policy.breaker_base_backoff
        else:
            raw = min(cap, entry.current_backoff * 2)
        wait = jittered_backoff(raw, cap, self._rng)
        entry.current_backoff = raw
        entry.trips += 1
        entry.opened_at = now
        entry.open_until = now + wait
        self.stats.inc("trips")
        self._transition(entry, BreakerState.OPEN)

    def _transition(self, entry: SourceHealth, new: BreakerState) -> None:
        old = entry.state
        if old is new:
            return
        entry.state = new
        entry.last_change = self.clock.now()
        if self.on_transition is not None:
            self.on_transition(entry.key, old, new, entry)

    # ------------------------------------------------------------------
    # Administration / observability
    # ------------------------------------------------------------------
    def reset(self, key: str | None = None) -> None:
        """Forget health state (all sources, or one) — e.g. after an
        operator fixed the source and wants traffic back immediately."""
        if key is None:
            self._sources.clear()
            return
        self._sources.pop(key, None)

    def scoreboard(self) -> dict[str, dict[str, Any]]:
        """Per-source health snapshot for ``Gateway.stats()``/consoles."""
        return {key: e.as_dict() for key, e in sorted(self._sources.items())}

    def summary(self) -> dict[str, Any]:
        """Aggregate counts for one-line dashboards."""
        by_state = {s: 0 for s in BreakerState}
        for entry in self._sources.values():
            by_state[entry.state] += 1
        return {
            "sources": len(self._sources),
            "closed": by_state[BreakerState.CLOSED],
            "open": by_state[BreakerState.OPEN],
            "half_open": by_state[BreakerState.HALF_OPEN],
            **self.stats,
        }
