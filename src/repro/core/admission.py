"""Admission control and adaptive concurrency for one gateway.

The serving plane's overload protection (with :mod:`repro.core.shed`):

* **QueryClass** — every query carries a priority class (CRITICAL /
  INTERACTIVE / BATCH, settable per query through the gateway, the dbapi
  and the GMA consumer APIs); under pressure the gateway sheds BATCH
  first and never refuses CRITICAL.
* **AdmissionController** — a bounded, priority-aware request queue at
  the Gateway entry.  Gateway-wide in-flight work is tracked as
  completion instants (the same virtual-time trick as the dispatcher's
  per-source caps): an entry whose end lies in the caller's future is in
  flight *right now*.  When the adaptive limit is reached, callers queue
  in virtual time under a ``queue_wait`` span; a full queue sheds
  (BATCH hits its share of the queue first), and a dequeued request
  whose remaining deadline budget is below the observed p50 service
  time is dropped as *doomed on dequeue* — never start work whose
  answer nobody will be waiting for.
* **GradientLimiter** — an AIMD concurrency limiter (in the spirit of
  TCP-Vegas-style limiters): probe the limit up by one when an epoch's
  latencies sit near the observed baseline, multiplicatively back off
  when the epoch mean inflates past ``tolerance`` x baseline or any
  attempt ended congested (timeout / failure).  Observations fold into
  commutative epoch aggregates (count / sum / min / congested-count) so
  unordered virtual-lane branches can feed one limiter without
  launch-order races; the folds are annotated for the PR 7 race
  detector ("limiter.window" COMMUTATIVE, the recomputed limit
  "limiter" VALUE-disciplined by its new value).

The raw in-flight / queue-interval lists are deliberately *not* noted to
the race detector: like the dispatcher's per-source cap machinery they
are launch-order-coupled by design (member k of a batch observes members
0..k-1's completion instants), which is deterministic under replay.

Everything is disabled by default (``GatewayPolicy.admission_enabled``)
so seeded replay signatures and golden traces of existing scenarios are
untouched; the overload chaos scenario, benchmark E18 and the console
turn it on.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis import races
from repro.core.deadline import Deadline
from repro.core.errors import (
    DeadlineExceededError,
    GridRmError,
    OverloadError,
    PolicyError,
)
from repro.core.policy import GatewayPolicy
from repro.core.shed import (
    PressureMonitor,
    PressureState,
    ShedAction,
    ShedLedger,
    shed_action,
)
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.clock import VirtualClock

#: Sliding window of post-queue service times feeding the doomed-on-
#: dequeue p50 (matches the dispatcher's hedge-timer window size).
_SERVICE_WINDOW = 64

#: Starting concurrency limit of a gradient limiter nothing else seeds
#: (the gateway-wide one; a per-source one over an unlimited static cap).
INITIAL_LIMIT = 8


class QueryClass(enum.Enum):
    """Priority class of one query (shed order: BATCH first)."""

    CRITICAL = "critical"
    INTERACTIVE = "interactive"
    BATCH = "batch"

    @classmethod
    def parse(cls, value: "QueryClass | str | None") -> "QueryClass":
        """Accept an enum member, its string value, or None (default)."""
        if value is None:
            return cls.INTERACTIVE
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise GridRmError(f"unknown query class {value!r}") from None


def _median(values: "deque[float]") -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class GradientLimiter:
    """AIMD concurrency limit over epoch-folded latency observations."""

    def __init__(
        self,
        clock: VirtualClock,
        *,
        initial: int,
        floor: int = 1,
        ceiling: int = 64,
        tolerance: float = 2.0,
        backoff: float = 0.8,
        window: int = 16,
        registry: Optional[MetricsRegistry] = None,
        key: str = "",
    ) -> None:
        if not 1 <= floor <= ceiling:
            raise PolicyError(
                f"limiter needs 1 <= floor <= ceiling: {floor!r}, {ceiling!r}"
            )
        if tolerance <= 1.0 or not 0.0 < backoff < 1.0 or window < 1:
            raise PolicyError(
                "limiter needs tolerance > 1, 0 < backoff < 1, window >= 1: "
                f"{tolerance!r}, {backoff!r}, {window!r}"
            )
        self._clock = clock
        self.key = key
        self.floor = floor
        self.ceiling = ceiling
        self.tolerance = tolerance
        self.backoff = backoff
        self.window = window
        registry = registry if registry is not None else MetricsRegistry()
        self._backoffs = registry.counter("limiter.backoffs")
        self._probes = registry.counter("limiter.probes")
        self._limit = float(min(max(initial, floor), ceiling))
        #: Long-run latency floor the epoch mean is judged against.
        self._baseline: Optional[float] = None
        # Epoch accumulators: every fold is commutative (count, sum,
        # min, congested count), so unordered branches may observe into
        # one limiter without the outcome depending on launch order.
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._congested = 0

    @property
    def limit(self) -> int:
        """The current integer concurrency limit."""
        return max(self.floor, int(self._limit))

    @property
    def baseline(self) -> Optional[float]:
        return self._baseline

    def observe(self, latency: float, *, congested: bool = False) -> None:
        """Fold one attempt's latency into the current epoch."""
        if races.ACTIVE is not None:
            races.note("limiter.window", self.key, "w", site="limiter.observe")
        self._count += 1
        self._sum += latency
        if latency < self._min:
            self._min = latency
        if congested:
            self._congested += 1
        if self._count >= self.window:
            self._roll()

    def _roll(self) -> None:
        """Close the epoch: recompute the limit from its aggregates."""
        mean = self._sum / self._count
        epoch_min = self._min
        congested = self._congested
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._congested = 0
        if self._baseline is None:
            self._baseline = epoch_min
        else:
            # Track the floor, creeping toward the new regime so a
            # permanently slower world stops reading as congestion.
            self._baseline = (
                0.95 * min(self._baseline, epoch_min) + 0.05 * epoch_min
            )
        if congested > 0 or mean > self._baseline * self.tolerance:
            self._limit = max(float(self.floor), self._limit * self.backoff)
            self._backoffs.add(1)
        else:
            self._limit = min(float(self.ceiling), self._limit + 1.0)
            self._probes.add(1)
        if races.ACTIVE is not None:
            # VALUE discipline: two unordered rolls only conflict when
            # they land on *different* limits (a real order dependence).
            races.note(
                "limiter",
                self.key,
                "w",
                digest=f"{self._limit:.3f}",
                site="limiter.roll",
            )

    def snapshot(self) -> dict[str, Any]:
        return {
            "limit": self.limit,
            "baseline": self._baseline,
            "pending_samples": self._count,
        }


@dataclass
class AdmissionTicket:
    """Proof of admission; hand it back via ``release`` when done."""

    query_class: QueryClass
    #: Instant the slot was granted (post-queue) — service time anchor.
    admitted_at: float
    queued_for: float = 0.0


class AdmissionController:
    """Bounded priority admission + gateway-wide adaptive concurrency."""

    def __init__(
        self,
        clock: VirtualClock,
        policy: GatewayPolicy,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        on_transition: Optional[
            Callable[[PressureState, PressureState], None]
        ] = None,
        initial_limit: int = INITIAL_LIMIT,
        batch_queue_share: float = 0.5,
    ) -> None:
        if initial_limit < 1 or not 0.0 < batch_queue_share <= 1.0:
            raise PolicyError(
                "admission needs initial_limit >= 1, 0 < batch_queue_share <= 1: "
                f"{initial_limit!r}, {batch_queue_share!r}"
            )
        self.clock = clock
        self.policy = policy
        #: Fraction of the admission queue BATCH-class queries may occupy
        #: before being shed (the priority bound that sheds batch first).
        self.batch_queue_share = batch_queue_share
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.limiter = GradientLimiter(
            clock,
            initial=initial_limit,
            registry=self.registry,
            key="gateway",
        )
        self.monitor = PressureMonitor(
            clock,
            queue_capacity=policy.admission_queue_limit,
            min_dwell=policy.pressure_min_dwell,
            registry=self.registry,
            on_transition=on_transition,
        )
        self.sheds = ShedLedger(self.registry)
        #: Completion instants of admitted requests; an entry with
        #: ``end > now`` is in flight at ``now`` (dispatcher idiom).
        self._ends: list[float] = []
        #: ``(entered, slot_granted)`` intervals of queue waits; a
        #: request is queued at ``now`` while ``entered <= now < granted``.
        self._queue_spans: list[tuple[float, float]] = []
        #: Post-queue service times (doomed-on-dequeue p50 source).
        self._service: deque[float] = deque(maxlen=_SERVICE_WINDOW)
        self._counts = StatsView(
            self.registry,
            "admission",
            ("admitted", "queued", "doomed", "brownout_served"),
        )
        self._queue_wait_time = self.registry.histogram("admission.queue_wait_time")
        self._service_time = self.registry.histogram("admission.service_time")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.policy.admission_enabled

    @property
    def state(self) -> PressureState:
        return self.monitor.state

    def inflight(self, now: Optional[float] = None) -> int:
        now = self.clock.now() if now is None else now
        return sum(1 for e in self._ends if e > now)

    def queue_depth(self, now: Optional[float] = None) -> int:
        now = self.clock.now() if now is None else now
        self._queue_spans = [s for s in self._queue_spans if s[1] > now]
        return sum(1 for enter, _ in self._queue_spans if enter <= now)

    def headroom(self, now: Optional[float] = None) -> int:
        return self.limiter.limit - self.inflight(now)

    # ------------------------------------------------------------------
    def decide(self, query_class: QueryClass) -> ShedAction:
        """Observe pressure and return this query's per-class fate."""
        now = self.clock.now()
        state = self.monitor.observe(self.queue_depth(now), self.headroom(now))
        return shed_action(state, query_class)

    def shed(self, query_class: QueryClass, reason: str) -> None:
        """Record the shed and raise the typed refusal."""
        self.sheds.record(query_class)
        retry_after = self.monitor.retry_after()
        with self.tracer.span(
            "shed", query_class=query_class.value, state=self.monitor.state.value
        ) as span:
            span["reason"] = reason
        raise OverloadError(
            f"query shed ({reason}; state={self.monitor.state.value}, "
            f"class={query_class.value}, retry after {retry_after:.1f}s)",
            retry_after=retry_after,
            query_class=query_class.value,
        )

    def admit(
        self, query_class: QueryClass, deadline: Optional[Deadline] = None
    ) -> AdmissionTicket:
        """Wait for (or be refused) a gateway-wide dispatch slot.

        Raises :class:`OverloadError` when the bounded queue is full for
        this class (CRITICAL always waits), and
        :class:`DeadlineExceededError` for requests doomed on dequeue —
        the queue wait left less budget than the observed p50 service
        time, so starting the work would only waste capacity.
        """
        now = self.clock.now()
        entered = now
        limit = self.limiter.limit
        live = [e for e in self._ends if e > now]
        queued_for = 0.0
        with self.tracer.span(
            "admit", query_class=query_class.value, state=self.monitor.state.value
        ):
            if len(live) >= limit:
                depth = self.queue_depth(now)
                cap = self.policy.admission_queue_limit
                bound = cap
                if query_class is QueryClass.BATCH:
                    bound = int(cap * self.batch_queue_share)
                if query_class is not QueryClass.CRITICAL and depth >= bound:
                    self.shed(
                        query_class, f"admission queue full ({depth}/{cap})"
                    )
                with self.tracer.span("queue_wait", depth=depth) as wspan:
                    while len(live) >= limit:
                        self.clock.advance_to(min(live))
                        now = self.clock.now()
                        live = [e for e in live if e > now]
                    queued_for = now - entered
                    wspan["waited"] = queued_for
                self._queue_spans.append((entered, now))
                self._counts.inc("queued")
                self._queue_wait_time.record(queued_for)
                if deadline is not None and self._service:
                    p50 = _median(self._service)
                    if deadline.remaining() <= p50:
                        self._counts.inc("doomed")
                        raise DeadlineExceededError(
                            "doomed on dequeue: remaining budget "
                            f"{deadline.remaining():.3f}s is below the observed "
                            f"p50 service time {p50:.3f}s "
                            "(budget spent in queue_wait)"
                        )
        self._ends = live
        self._counts.inc("admitted")
        return AdmissionTicket(
            query_class=query_class, admitted_at=now, queued_for=queued_for
        )

    def release(self, ticket: AdmissionTicket, *, congested: bool = False) -> None:
        """The admitted request finished: record its completion instant
        and feed the gateway limiter its post-queue service time."""
        now = self.clock.now()
        self._ends.append(now)
        service = now - ticket.admitted_at
        self._service.append(service)
        self.limiter.observe(service, congested=congested)
        self._service_time.record(service)

    def note_brownout_serve(self) -> None:
        self._counts.inc("brownout_served")

    # ------------------------------------------------------------------
    # Retry / hedge interplay (satellite: don't fight our own limiter)
    # ------------------------------------------------------------------
    def allow_retry(self, query_class: QueryClass) -> bool:
        """May a failed attempt be retried right now?

        Under BROWNOUT/SHED a retry is extra offered load fighting the
        limiter; only CRITICAL keeps its retries.  Always true when
        admission is disabled.
        """
        if not self.enabled:
            return True
        return (
            self.monitor.state is PressureState.NORMAL
            or query_class is QueryClass.CRITICAL
        )

    def suppress_hedges(self) -> bool:
        """Hedges double a source's load — never fire one under pressure."""
        return self.enabled and self.monitor.state is not PressureState.NORMAL

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        now = self.clock.now()
        return {
            "enabled": self.enabled,
            "state": self.monitor.state.value,
            "since": self.monitor.since,
            "transitions": self.monitor.transitions,
            "queue_depth": self.queue_depth(now),
            "queue_capacity": self.policy.admission_queue_limit,
            "inflight": self.inflight(now),
            "limit": self.limiter.limit,
            "headroom": self.headroom(now),
            "limiter": self.limiter.snapshot(),
            "sheds": self.sheds.counts(),
            **self._counts,
        }
