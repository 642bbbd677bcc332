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

Branch isolation: an outcome recorded inside a concurrent branch (a
fan-out source, a batch or ACIL burst member, a join group, a hedge
sibling, a remote share) is held until the outermost
:class:`~repro.simnet.clock.ConcurrentScope` joins, then applied with the
scope's other outcomes in one canonical order — by key, failures before
successes.  Virtually-simultaneous branches therefore read the breakers
as they stood when the scope opened and leave the same end state
whatever order they were launched in; outside any scope an outcome
applies at once.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any, Callable

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
    bad reply), a remote site's round trip under ``gma://<site>``
    included.  ``total_successes``/``total_failures`` therefore count
    fetches and attempts, not queries, and ``consecutive_failures``
    resets on any success.
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
        # Outcomes recorded inside concurrent branches, as (key, error;
        # None for a success), until the outermost scope joins.
        self._unsettled: list[tuple[str, str | None]] = []
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

        CLOSED allows the request.  OPEN and HALF_OPEN short-circuit it
        until the backoff has elapsed; from then on the breaker is
        HALF_OPEN and requests are probes.  The decision reads only the
        state and the caller's instant, so sibling branches consulting
        one breaker agree whichever runs first.
        """
        if not self.policy.breaker_enabled:
            return True
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "health", key, "r", site="HealthTracker.allow_request"
            )
        entry = self._sources.get(key)
        if entry is None or entry.state is BreakerState.CLOSED:
            return True
        if self.clock.now() < entry.open_until:
            entry.short_circuits += 1
            self.stats.inc("short_circuits")
            return False
        self._transition(entry, BreakerState.HALF_OPEN)
        return True

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------
    def record_success(self, key: str) -> None:
        if self._held(key, None):
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
        if self._held(key, error):
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

    def _held(self, key: str, error: str | None) -> bool:
        """Hold an outcome recorded inside a concurrent branch until the
        outermost scope joins; False outside any scope (apply it now)."""
        if not self.clock.in_concurrent_branch:
            return False
        if not self._unsettled:
            self.clock.at_outermost_join(self._settle)
        self._unsettled.append((key, error))
        return True

    def _settle(self) -> None:
        """Apply the joined scope's outcomes in an order no launch order
        can change: by key, failures (by text) before successes."""
        outcomes, self._unsettled = self._unsettled, []
        for key, error in sorted(outcomes, key=lambda o: (o[0], o[1] is None, o[1] or "")):
            if error is None:
                self.record_success(key)
            else:
                self.record_failure(key, error)

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
