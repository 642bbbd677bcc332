"""Concurrent fan-out query scheduler.

The paper promises that one gateway gives "a view of the recent status of
a site while limiting resource intrusion" (§4); the serial reproduction
made a query over N sources cost the *sum* of N round-trips in virtual
time.  :class:`FanoutDispatcher` is the gateway's dispatch layer over
:meth:`VirtualClock.concurrent`: it fans branches of work out so total
elapsed time is the *max* of branch delays, and adds two controls on top:

* **single-flight coalescing** — identical in-flight ``(source url,
  normalised SQL)`` requests (e.g. the join path fetching ``SELECT *
  FROM Processor`` while a tree-view poll asks the same source the same
  question) share one agent round-trip.  Joiners wait until the shared
  flight completes, then reuse its rows (or its failure) without any
  agent traffic of their own.
* **per-source concurrency caps** — at most
  :data:`MAX_CONCURRENT_PER_SOURCE` requests may be in flight to one data
  source (or remote gateway) at once; excess branches queue in virtual
  time, so a gateway fan-out cannot stampede an agent.
* **hedged requests** ("The Tail at Scale") — when a source's answer has
  not arrived within a high percentile of its recently observed
  latencies, a second identical request is fired at the same source and
  whichever response lands first wins; the loser is abandoned and
  counted.  Because tail slowness is usually transient (a latency spike,
  a queue blip), the hedge re-draws and converts a p99 straggler into a
  near-median response at the cost of a few percent extra load.

One dispatcher is shared per gateway (RequestManager fan-out, multi-group
join decomposition, Global-layer scatter-gather and client batches all go
through it), which is what makes flights visible across concurrent
clients of the same gateway.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.admission import GradientLimiter
from repro.core.cache import normalise_sql
from repro.core.deadline import Deadline
from repro.core.errors import GridRmError
from repro.core.policy import GatewayPolicy
from repro.dbapi.exceptions import SQLException
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import NetworkError
from repro.sql.errors import SqlError

#: Soft bound on remembered flights; completed entries past it are swept.
_FLIGHT_SWEEP_THRESHOLD = 512

#: Sliding window of observed per-source latencies feeding the hedge
#: timer (successful attempts only; failures would inflate the
#: percentile toward the timeout and disarm hedging when it matters).
_LATENCY_WINDOW = 64

#: In-flight requests allowed per source (the static cap, and the seed
#: of each source's adaptive limiter).
MAX_CONCURRENT_PER_SOURCE = 4

#: Latency percentile that arms the hedge timer (95 = slowest 5%).
HEDGE_PERCENTILE = 95.0

#: Successful samples a source needs before it is hedged at all.
HEDGE_MIN_SAMPLES = 8

#: Floor on the hedge timer (s, virtual): micro-jitter must not double
#: the traffic.
HEDGE_MIN_DELAY = 0.005

#: Failures a branch may legitimately end in; captured per-branch so one
#: failing branch cannot abort its siblings mid-flight.  Programming
#: errors (TypeError, KeyError, ...) propagate immediately instead.
BRANCH_ERRORS = (GridRmError, SQLException, SqlError, NetworkError)


def percentile(values: "Sequence[float] | deque[float]", q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Used for the hedge timer and latency reporting; ``values`` need not
    be sorted.  Raises on an empty sequence.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class BranchOutcome:
    """Result of one concurrently dispatched branch."""

    value: Any = None
    error: Exception | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Flight:
    """One in-flight (or just-completed) coalescable request."""

    key: tuple[str, str]
    value: Any = None
    error: Exception | None = None
    started_at: float = 0.0
    completed_at: float = 0.0


class FanoutDispatcher:
    """Concurrent dispatch + single-flight + per-source caps for one
    gateway."""

    def __init__(
        self,
        clock: VirtualClock,
        policy: GatewayPolicy,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = clock
        self.policy = policy
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._flights: dict[tuple[str, str], Flight] = {}
        #: Completion times of requests dispatched to each source; an
        #: entry with ``end > now`` is still in flight at ``now``.
        self._inflight_ends: dict[str, list[float]] = {}
        #: Recent successful-attempt latencies per source (hedge timer).
        self._latencies: dict[str, deque[float]] = {}
        #: Per-source AIMD limiters (``policy.adaptive_concurrency``);
        #: they replace the static cap as the ``_await_slot`` bound.
        self._limiters: dict[str, GradientLimiter] = {}
        #: Counters surfaced via ``Gateway.stats()`` and the console
        #: (``stats.fanouts``, ``stats.as_dict()``): a read-only view
        #: over the ``dispatch.*`` registry counters, bumped through
        #: ``stats.inc``.
        self.stats = StatsView(
            self.registry,
            "dispatch",
            (
                "fanouts",
                "branches",
                "serial_runs",
                "singleflight_joins",
                "cap_waits",
                "cap_wait_time",
                "flights",
                "hedges_fired",
                "hedges_won",
                "hedges_cancelled",
                "hedge_time_saved",
            ),
        )
        self._attempt_latency = self.registry.histogram("dispatch.attempt_latency")

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def run(self, thunks: Sequence[Callable[[], Any]]) -> list[BranchOutcome]:
        """Run branches concurrently in virtual time; outcomes in order.

        Branch exceptions are captured per-branch (one failing branch
        must not abort its siblings mid-flight); callers decide whether
        to re-raise.  Outcome order always matches ``thunks`` order, so
        consolidation is deterministic regardless of which branch's
        virtual round-trip completes first.  With ``fanout_enabled``
        off — or a single branch — execution is plain serial.  Every
        branch starts at the scope's opening instant, so a branch that
        must respect a deadline checks it first thing (the request
        manager's source branches do).
        """
        thunks = list(thunks)
        if not thunks:
            return []
        if not self.fans_out(len(thunks)):
            self.stats.inc("serial_runs")
            return [self._run_one(thunk) for thunk in thunks]
        self.stats.inc("fanouts")
        self.stats.inc("branches", len(thunks))
        outcomes: list[BranchOutcome] = []
        with self.tracer.span("fanout", branches=len(thunks)):
            with self.clock.concurrent() as scope:
                for thunk in thunks:
                    with scope.branch():
                        outcomes.append(self._run_one(thunk))
        return outcomes

    def fans_out(self, branches: int) -> bool:
        """Whether :meth:`run` fans ``branches`` branches out; it runs
        them serially otherwise."""
        return self.policy.fanout_enabled and branches > 1

    def _run_one(self, thunk: Callable[[], Any]) -> BranchOutcome:
        start = self.clock.now()
        try:
            value = thunk()
        except BRANCH_ERRORS as exc:
            return BranchOutcome(error=exc, elapsed=self.clock.now() - start)
        return BranchOutcome(value=value, elapsed=self.clock.now() - start)

    # ------------------------------------------------------------------
    # Single-flight coalescing
    # ------------------------------------------------------------------
    def flight_key(
        self, source_key: str, sql: str, normalised: str | None = None
    ) -> tuple[str, str]:
        return (source_key, normalised or normalise_sql(sql))

    def join_flight(
        self, source_key: str, sql: str, *, key: str | None = None
    ) -> Flight | None:
        """Join an identical in-flight request, or None to fetch for real.

        A flight is joinable while its completion still lies in the
        caller's future — i.e. the shared round-trip is genuinely in the
        air right now.  Joining waits (advances this branch's timeline)
        until the flight completes, then shares its outcome; the caller
        performs no agent traffic.  ``key`` (here and in
        :meth:`run_flight`) is the already-normalised ``sql`` when the
        caller has it.
        """
        if not (self.policy.singleflight_enabled and self.policy.fanout_enabled):
            return None
        flight_key = self.flight_key(source_key, sql, key)
        flight = self._flights.get(flight_key)
        if flight is None:
            return None
        now = self.clock.now()
        if flight.completed_at <= now:
            # Landed in the past: no longer coalescable (the query cache
            # owns reuse from here on).
            del self._flights[flight_key]
            return None
        self.stats.inc("singleflight_joins")
        self.clock.advance_to(flight.completed_at)
        return flight

    def run_flight(
        self,
        source_key: str,
        sql: str,
        fetch: Callable[[], Any],
        *,
        hedge: bool = True,
        deadline: Deadline | None = None,
        key: str | None = None,
    ) -> Any:
        """Run the real fetch, registered as the coalescing target.

        Applies the per-source concurrency cap first (queueing in virtual
        time when the source is saturated), then records the flight —
        value or failure — so concurrent identical requests can join it.
        Exceptions propagate to the caller unchanged.

        With hedging armed (policy enabled, enough latency history, and
        ``hedge`` true — callers pass false for non-idempotent drivers),
        the fetch runs on the hedged path: if it has not answered within
        the source's :data:`HEDGE_PERCENTILE` latency, a second fetch fires
        and the first usable response wins.
        """
        flight_key = self.flight_key(source_key, sql, key)
        self._await_slot(source_key, deadline=deadline)
        started = self.clock.now()
        delay = self.hedge_delay(source_key) if hedge else None
        if delay is None:
            try:
                value = fetch()
            except BRANCH_ERRORS as exc:
                self._note_congestion(source_key, self.clock.now() - started)
                self._finish_flight(flight_key, started, error=exc)
                raise
            self._note_latency(source_key, self.clock.now() - started)
            self._finish_flight(flight_key, started, value=value)
            return value
        outcome = self._run_hedged(source_key, fetch, delay)
        if outcome.error is not None:
            self._note_congestion(source_key, self.clock.now() - started)
            self._finish_flight(flight_key, started, error=outcome.error)
            raise outcome.error
        self._finish_flight(flight_key, started, value=outcome.value)
        return outcome.value

    def _run_hedged(
        self, source_key: str, fetch: Callable[[], Any], delay: float
    ) -> BranchOutcome:
        """Primary fetch, hedged by an identical fetch after ``delay``.

        Both attempts run as concurrent-scope branches (each measured on
        a private timeline from the same start instant); the scope then
        joins at the *winner's* completion instant.  The loser is
        abandoned: its virtual traffic happened, but nobody waits for it
        (its recorded failure still settles at the join).
        When both fail, the caller learns at the later failure — a
        hedged client keeps waiting for the surviving sibling.
        """
        scope = self.clock.concurrent()
        with scope.branch():
            with self.tracer.span("hedge", index=0) as primary_span:
                primary = self._run_one(fetch)
                if primary.error is not None:
                    primary_span.fail(primary.error)
        if primary.ok:
            self._note_latency(source_key, primary.elapsed)
        if primary.elapsed <= delay:
            # Answered before the hedge timer armed: no hedge traffic —
            # so no race happened, and a span named "hedge" would lie.
            # Rename it to the plain fetch it was.  (A disabled tracer
            # hands out NULL_SPAN, whose name is "null", so the guard
            # also skips the rename when tracing is off.)
            if primary_span.name == "hedge":
                primary_span.name = "fetch"
                primary_span.attrs.pop("index", None)
            scope.join(at=scope.started_at + primary.elapsed)
            return primary
        self.stats.inc("hedges_fired")
        with scope.branch():
            self.clock.advance(delay)
            with self.tracer.span("hedge", index=1, delay=delay) as hedge_span:
                hedge = self._run_one(fetch)
                if hedge.error is not None:
                    hedge_span.fail(hedge.error)
        hedge_end = delay + hedge.elapsed
        if hedge.ok:
            self._note_latency(source_key, hedge.elapsed)
        if primary.ok and hedge.ok:
            winner, end = (
                (hedge, hedge_end) if hedge_end < primary.elapsed
                else (primary, primary.elapsed)
            )
        elif primary.ok:
            winner, end = primary, primary.elapsed
        elif hedge.ok:
            winner, end = hedge, hedge_end
        else:
            winner, end = primary, max(primary.elapsed, hedge_end)
        if winner is hedge and winner.ok:
            self.stats.inc("hedges_won")
            self.stats.inc("hedge_time_saved", max(0.0, primary.elapsed - end))
        self.stats.inc("hedges_cancelled")  # exactly one loser per fired hedge
        # The abandoned attempt's span may outlive its parent — marking
        # it cancelled is what exempts it from the containment invariant.
        (hedge_span if winner is primary else primary_span).cancel()
        scope.join(at=scope.started_at + end)
        return winner

    # ------------------------------------------------------------------
    # Hedge timer (per-source latency percentile)
    # ------------------------------------------------------------------
    def _note_latency(self, source_key: str, elapsed: float) -> None:
        window = self._latencies.get(source_key)
        if window is None:
            window = self._latencies[source_key] = deque(maxlen=_LATENCY_WINDOW)
        window.append(elapsed)
        self._attempt_latency.record(elapsed)
        if self.policy.adaptive_concurrency:
            self._source_limiter(source_key).observe(elapsed)

    def _note_congestion(self, source_key: str, elapsed: float) -> None:
        """A failed attempt is a congestion signal to the source limiter
        (it never feeds the hedge timer — that window stays
        success-only so failures cannot disarm hedging)."""
        if self.policy.adaptive_concurrency:
            self._source_limiter(source_key).observe(elapsed, congested=True)

    def hedge_delay(self, source_key: str) -> float | None:
        """The hedge timer to arm for a source, or None when hedging must
        not fire (also the console's view of it)."""
        if not (self.policy.hedge_enabled and self.policy.fanout_enabled):
            return None
        window = self._latencies.get(source_key)
        if window is None or len(window) < HEDGE_MIN_SAMPLES:
            return None
        return max(percentile(window, HEDGE_PERCENTILE), HEDGE_MIN_DELAY)

    def _finish_flight(
        self,
        key: tuple[str, str],
        started: float,
        *,
        value: Any = None,
        error: Exception | None = None,
    ) -> None:
        end = self.clock.now()
        self._flights[key] = Flight(
            key=key, value=value, error=error, started_at=started, completed_at=end
        )
        self._inflight_ends.setdefault(key[0], []).append(end)
        self.stats.inc("flights")
        if len(self._flights) > _FLIGHT_SWEEP_THRESHOLD:
            self._sweep_flights(end)

    def _sweep_flights(self, now: float) -> None:
        done = [k for k, f in self._flights.items() if f.completed_at <= now]
        for k in done:
            del self._flights[k]

    # ------------------------------------------------------------------
    # Per-source concurrency cap (static, or adaptive AIMD limiter)
    # ------------------------------------------------------------------
    def _source_limiter(self, source_key: str) -> GradientLimiter:
        """The per-source AIMD limiter (lazily created).

        Seeded from the static cap so turning ``adaptive_concurrency``
        on starts from the same limit the static policy enforced.
        """
        limiter = self._limiters.get(source_key)
        if limiter is None:
            limiter = self._limiters[source_key] = GradientLimiter(
                self.clock,
                initial=MAX_CONCURRENT_PER_SOURCE,
                registry=self.registry,
                key=source_key,
            )
        return limiter

    def _await_slot(
        self, source_key: str, *, deadline: Deadline | None = None
    ) -> None:
        """Wait (in virtual time) for a dispatch slot to this source.

        The in-flight bookkeeping is launch-order-coupled by design
        (branch k of a fan-out observes branches 0..k-1's completion
        instants) and deterministic under replay, so — like the flight
        table — it is intentionally not race-instrumented.
        """
        ends = self._inflight_ends.get(source_key)
        if not ends:
            return
        now = self.clock.now()
        live = [e for e in ends if e > now]
        if self.policy.adaptive_concurrency:
            cap = self._source_limiter(source_key).limit
        else:
            cap = MAX_CONCURRENT_PER_SOURCE
        if len(live) >= cap:
            waited_from = now
            with self.tracer.span("cap_wait", source=source_key) as wspan:
                while len(live) >= cap:
                    self.clock.advance_to(min(live))
                    now = self.clock.now()
                    live = [e for e in live if e > now]
                wspan["waited"] = now - waited_from
            self.stats.inc("cap_waits")
            self.stats.inc("cap_wait_time", now - waited_from)
            if deadline is not None:
                # The wait spent real budget: fail now rather than
                # dispatch work whose answer nobody is waiting for.
                deadline.check(f"queue_wait for {source_key}")
        self._inflight_ends[source_key] = live

    def limiter_snapshot(self) -> dict[str, dict]:
        """Current adaptive per-source limits (console / stats view)."""
        return {key: lim.snapshot() for key, lim in sorted(self._limiters.items())}

    def inflight(self, source_key: str) -> int:
        """How many requests to ``source_key`` are in flight right now."""
        now = self.clock.now()
        return sum(1 for e in self._inflight_ends.get(source_key, ()) if e > now)
