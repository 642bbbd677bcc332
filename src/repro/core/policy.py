"""Gateway policy.

The paper's Figure 2 shows a "Gateway Policy and Schemas" module feeding
the Local layer; §3.1.3 and §4 enumerate the configurable behaviours:
what to do when a cached driver reference is no longer valid or a
preferred driver fails (retry / try another / report the error), cache
lifetimes, and connection pooling.  :class:`GatewayPolicy` gathers them
in one validated value object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import PolicyError


class FailureAction(enum.Enum):
    """What the driver manager does when the selected driver(s) fail
    (paper §4: notify / retry n iterations / dynamically select anew)."""

    REPORT = "report"
    RETRY = "retry"
    TRY_NEXT = "try_next"
    DYNAMIC = "dynamic"


@dataclass
class GatewayPolicy:
    """All tunables of one gateway.

    Attributes:
        query_cache_ttl: lifetime of gateway-level query results backing
            the tree view and remote-gateway answers (s, virtual).
        history_enabled: record every real-time result into the internal
            database for historical queries.
        history_max_rows_per_group: ring-buffer bound per history table.
        pool_max_per_source: connection-pool capacity per data source.
        pool_idle_ttl: pooled connections idle longer than this are
            revalidated before reuse (s, virtual).
        pool_enabled: disable to measure unpooled behaviour (E1).
        failure_action: driver failure policy (paper §4).
        failure_retries: retry budget when ``failure_action`` is RETRY.
        driver_cache_enabled: remember the last driver that worked for a
            source (paper §3.1.3) — disable for the E2 ablation.
        security_enabled: enforce CGSL/FGSL checks.
        event_fast_buffer_size: capacity of the EventManager's in-memory
            fast buffer ("ensures events are not lost in a busy system").
        event_disk_buffer_size: capacity of the spill buffer behind it.
        breaker_enabled: per-source circuit breakers — remember failures
            across queries and short-circuit requests to sources that
            keep failing (see :mod:`repro.core.health`).
        breaker_failure_threshold: consecutive failure observations that
            trip a CLOSED breaker OPEN.
        breaker_base_backoff: OPEN duration after the first trip
            (s, virtual); doubles per consecutive trip, with jitter.
        breaker_max_backoff: ceiling on the (jittered) backoff — a
            tripped source is always re-probed within this bound.
        breaker_half_open_probes: consecutive successes required in
            HALF_OPEN to close the breaker again.
        serve_stale_on_open: when a breaker is OPEN, answer from the
            query cache even past its TTL, flagging the result
            ``degraded`` — a stale view beats an error (paper §4's
            "limit resource intrusion" cache, stretched to faults).
        query_cache_max_entries: LRU bound on the gateway query cache —
            inserting past it evicts the least recently used entry, so a
            long-running gateway's cache cannot grow without limit
            (0 = unbounded).
        fanout_enabled: dispatch multi-source / multi-group / multi-site
            sub-queries concurrently in virtual time (elapsed = max of
            branch delays).  Disable for the serial-baseline ablation.
        max_concurrent_per_source: cap on simultaneously in-flight
            requests to one data source (or remote gateway), so a
            gateway fan-out cannot stampede an agent (0 = unlimited).
        singleflight_enabled: coalesce identical concurrently in-flight
            ``(source url, normalised SQL)`` requests into one agent
            round-trip shared by every waiter.
        default_deadline: end-to-end budget stamped on queries that
            arrive without one (s, virtual); 0 disables implicit
            deadlines.  See :mod:`repro.core.deadline`.
        retry_attempts: max attempts per source per query, including the
            first (1 = no query-level retries).  Only transient failures
            against idempotent drivers are retried.
        retry_budget: retry tokens shared by all sources of one query —
            the anti-amplification cap (see :mod:`repro.core.retry`).
        retry_base_backoff: jittered-exponential backoff base between
            attempts (s, virtual).
        retry_max_backoff: ceiling on the per-attempt backoff.
        hedge_enabled: after a configurable latency percentile elapses
            with no answer, fire a second request to the same source and
            take whichever responds first ("The Tail at Scale" hedging).
            Only idempotent drivers are hedged.
        hedge_percentile: percentile of the source's observed latencies
            that arms the hedge timer (95 = hedge the slowest 5%).
        hedge_min_samples: observed latencies required per source before
            hedging activates (cold sources are never hedged).
        hedge_min_delay: floor on the hedge timer, so very fast sources
            do not double their traffic on micro-jitter.
        tracing_enabled: record one span per hop of every query into the
            gateway's :class:`~repro.obs.trace.Tracer` (console
            ``trace_panel``, ``GET /trace/<qid>``, ``repro trace``).
        trace_max_traces: finished traces retained in the tracer's ring
            buffer before the oldest are dropped.
        history_durable: persist history through a write-ahead log and
            checkpointed segments (:mod:`repro.storage`) so recorded
            rows survive a gateway crash.  Requires a disk to be passed
            to the gateway; off by default (the original in-memory
            ring).
        history_fsync_interval: group-commit interval — WAL appends per
            fsync.  1 fsyncs every record (safest, slowest); larger
            values amortise the fsync at the cost of a longer
            unacknowledged tail lost on crash.
        history_checkpoint_interval: seconds (virtual) between periodic
            checkpoints that seal the memtable into segments and
            truncate the WAL; 0 disables the periodic task (checkpoints
            then happen only at shutdown or on demand).
        admission_enabled: gateway-entry admission control — bounded
            priority queue, doomed-on-dequeue drops, brownout/shed state
            machine (:mod:`repro.core.admission`).  Off by default so
            existing replay signatures and golden traces are untouched.
        admission_queue_limit: capacity of the gateway admission queue;
            a full queue sheds sheddable classes with
            :class:`~repro.core.errors.OverloadError`.
        admission_batch_queue_share: fraction of the admission queue
            BATCH-class queries may occupy before being shed (the
            priority bound that sheds batch first).
        admission_initial_limit: starting gateway-wide concurrency limit
            of the admission controller's gradient limiter.
        adaptive_concurrency: replace the static per-source caps in the
            fan-out dispatcher with AIMD gradient limiters (probe up
            under low latency, multiplicative backoff when latency
            inflates or attempts fail).
        pressure_min_dwell: minimum virtual seconds in a pressure state
            before de-escalating (hysteresis against flapping).
        streaming_enabled: the continuous-SQL streaming plane
            (:mod:`repro.gma.streams`) — register a SELECT once, receive
            matching tuples on every publish.  Off by default so
            existing replay signatures and golden traces are untouched.
        stream_max_subscriptions: cap on live continuous queries per
            hub — the gateway's, and the hub of an
            :class:`~repro.gma.subscription.EventPublisher` on it (event
            subscribers); registrations past it are refused with a
            typed shed.
        stream_default_lease: lease stamped on registrations that arrive
            without one (s, virtual).
        stream_sweep_period: cadence of the hub's lease sweeper; a swept
            registration stays renew-resurrectable for one period
            (tombstone grace).
        stream_replay_limit: newest history rows an attach replay of a
            ``history``-flavour subscription may ship.
    """

    query_cache_ttl: float = 30.0
    query_cache_max_entries: int = 4096
    fanout_enabled: bool = True
    max_concurrent_per_source: int = 4
    singleflight_enabled: bool = True
    history_enabled: bool = True
    history_max_rows_per_group: int = 100_000
    pool_max_per_source: int = 8
    pool_idle_ttl: float = 120.0
    pool_enabled: bool = True
    failure_action: FailureAction = FailureAction.DYNAMIC
    failure_retries: int = 1
    driver_cache_enabled: bool = True
    security_enabled: bool = False
    event_fast_buffer_size: int = 1024
    event_disk_buffer_size: int = 65536
    breaker_enabled: bool = True
    breaker_failure_threshold: int = 3
    breaker_base_backoff: float = 5.0
    breaker_max_backoff: float = 300.0
    breaker_half_open_probes: int = 1
    serve_stale_on_open: bool = True
    default_deadline: float = 0.0
    retry_attempts: int = 1
    retry_budget: int = 3
    retry_base_backoff: float = 0.05
    retry_max_backoff: float = 2.0
    hedge_enabled: bool = False
    hedge_percentile: float = 95.0
    hedge_min_samples: int = 8
    hedge_min_delay: float = 0.005
    tracing_enabled: bool = True
    trace_max_traces: int = 256
    history_durable: bool = False
    history_fsync_interval: int = 8
    history_checkpoint_interval: float = 600.0
    admission_enabled: bool = False
    admission_queue_limit: int = 32
    admission_batch_queue_share: float = 0.5
    admission_initial_limit: int = 8
    adaptive_concurrency: bool = False
    pressure_min_dwell: float = 5.0
    streaming_enabled: bool = False
    stream_max_subscriptions: int = 1024
    stream_default_lease: float = 300.0
    stream_sweep_period: float = 60.0
    stream_replay_limit: int = 256

    def __post_init__(self) -> None:
        if self.query_cache_ttl < 0:
            raise PolicyError(f"query_cache_ttl < 0: {self.query_cache_ttl!r}")
        if self.query_cache_max_entries < 0:
            raise PolicyError(
                f"query_cache_max_entries < 0: {self.query_cache_max_entries!r}"
            )
        if self.max_concurrent_per_source < 0:
            raise PolicyError(
                f"max_concurrent_per_source < 0: {self.max_concurrent_per_source!r}"
            )
        if self.pool_max_per_source < 1:
            raise PolicyError(
                f"pool_max_per_source must be >= 1: {self.pool_max_per_source!r}"
            )
        if self.pool_idle_ttl <= 0:
            raise PolicyError(f"pool_idle_ttl must be > 0: {self.pool_idle_ttl!r}")
        if self.failure_retries < 0:
            raise PolicyError(f"failure_retries < 0: {self.failure_retries!r}")
        if self.event_fast_buffer_size < 1:
            raise PolicyError(
                f"event_fast_buffer_size must be >= 1: {self.event_fast_buffer_size!r}"
            )
        if self.event_disk_buffer_size < 0:
            raise PolicyError(
                f"event_disk_buffer_size < 0: {self.event_disk_buffer_size!r}"
            )
        if self.history_max_rows_per_group < 1:
            raise PolicyError(
                "history_max_rows_per_group must be >= 1: "
                f"{self.history_max_rows_per_group!r}"
            )
        if self.breaker_failure_threshold < 1:
            raise PolicyError(
                "breaker_failure_threshold must be >= 1: "
                f"{self.breaker_failure_threshold!r}"
            )
        if self.breaker_base_backoff <= 0:
            raise PolicyError(
                f"breaker_base_backoff must be > 0: {self.breaker_base_backoff!r}"
            )
        if self.breaker_max_backoff < self.breaker_base_backoff:
            raise PolicyError(
                "breaker_max_backoff must be >= breaker_base_backoff: "
                f"{self.breaker_max_backoff!r} < {self.breaker_base_backoff!r}"
            )
        if self.breaker_half_open_probes < 1:
            raise PolicyError(
                "breaker_half_open_probes must be >= 1: "
                f"{self.breaker_half_open_probes!r}"
            )
        if self.default_deadline < 0:
            raise PolicyError(f"default_deadline < 0: {self.default_deadline!r}")
        if self.retry_attempts < 1:
            raise PolicyError(f"retry_attempts must be >= 1: {self.retry_attempts!r}")
        if self.retry_budget < 0:
            raise PolicyError(f"retry_budget < 0: {self.retry_budget!r}")
        if self.retry_base_backoff <= 0:
            raise PolicyError(
                f"retry_base_backoff must be > 0: {self.retry_base_backoff!r}"
            )
        if self.retry_max_backoff < self.retry_base_backoff:
            raise PolicyError(
                "retry_max_backoff must be >= retry_base_backoff: "
                f"{self.retry_max_backoff!r} < {self.retry_base_backoff!r}"
            )
        if not 0.0 < self.hedge_percentile <= 100.0:
            raise PolicyError(
                f"hedge_percentile must be in (0, 100]: {self.hedge_percentile!r}"
            )
        if self.hedge_min_samples < 1:
            raise PolicyError(
                f"hedge_min_samples must be >= 1: {self.hedge_min_samples!r}"
            )
        if self.hedge_min_delay < 0:
            raise PolicyError(f"hedge_min_delay < 0: {self.hedge_min_delay!r}")
        if self.trace_max_traces < 1:
            raise PolicyError(
                f"trace_max_traces must be >= 1: {self.trace_max_traces!r}"
            )
        if self.history_fsync_interval < 1:
            raise PolicyError(
                f"history_fsync_interval must be >= 1: {self.history_fsync_interval!r}"
            )
        if self.history_checkpoint_interval < 0:
            raise PolicyError(
                "history_checkpoint_interval < 0: "
                f"{self.history_checkpoint_interval!r}"
            )
        if self.admission_queue_limit < 1:
            raise PolicyError(
                f"admission_queue_limit must be >= 1: {self.admission_queue_limit!r}"
            )
        if not 0.0 < self.admission_batch_queue_share <= 1.0:
            raise PolicyError(
                "admission_batch_queue_share must be in (0, 1]: "
                f"{self.admission_batch_queue_share!r}"
            )
        if self.admission_initial_limit < 1:
            raise PolicyError(
                "admission_initial_limit must be >= 1: "
                f"{self.admission_initial_limit!r}"
            )
        if self.pressure_min_dwell < 0:
            raise PolicyError(
                f"pressure_min_dwell < 0: {self.pressure_min_dwell!r}"
            )
        if self.stream_max_subscriptions < 1:
            raise PolicyError(
                "stream_max_subscriptions must be >= 1: "
                f"{self.stream_max_subscriptions!r}"
            )
        if self.stream_default_lease <= 0:
            raise PolicyError(
                f"stream_default_lease must be > 0: {self.stream_default_lease!r}"
            )
        if self.stream_sweep_period <= 0:
            raise PolicyError(
                f"stream_sweep_period must be > 0: {self.stream_sweep_period!r}"
            )
        if self.stream_replay_limit < 1:
            raise PolicyError(
                f"stream_replay_limit must be >= 1: {self.stream_replay_limit!r}"
            )
