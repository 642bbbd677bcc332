"""Gateway policy.

The paper's Figure 2 shows a "Gateway Policy and Schemas" module feeding
the Local layer; §3.1.3 and §4 enumerate the configurable behaviours:
what to do when a cached driver reference is no longer valid or a
preferred driver fails (retry / try another / report the error), cache
lifetimes, and connection pooling.  :class:`GatewayPolicy` gathers them
in one validated value object.

There are two configurations.  ``GatewayPolicy()`` is the paper's 2003
gateway (what experiments E1-E12 run under); :func:`production` is every
later plane switched on together, and is what the five scenarios and the
end-to-end benchmark run — the one configuration everything is tested
in.  A value only one caller ever chose is not a field here: it is a
constant at its one reader.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

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
    """All tunables of one gateway; the defaults are the paper's gateway.

    Attributes:
        query_cache_ttl: lifetime of gateway-level query results backing
            the tree view and remote-gateway answers (s, virtual).
        history_max_rows_per_group: ring-buffer bound per history table.
        pool_max_per_source: connection-pool capacity per data source.
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
        serve_stale_on_open: when a breaker is OPEN, answer from the
            query cache even past its TTL, flagging the result
            ``degraded`` — a stale view beats an error (paper §4's
            "limit resource intrusion" cache, stretched to faults).
        fanout_enabled: dispatch multi-source / multi-group / multi-site
            sub-queries concurrently in virtual time (elapsed = max of
            branch delays).  Disable for the serial-baseline ablation.
        singleflight_enabled: coalesce identical concurrently in-flight
            ``(source url, normalised SQL)`` requests into one agent
            round-trip shared by every waiter.
        default_deadline: end-to-end budget stamped on queries that
            arrive without one (s, virtual); 0 disables implicit
            deadlines.  See :mod:`repro.core.deadline`.
        retry_attempts: max attempts per source per query, including the
            first (1 = no query-level retries).  Only transient failures
            against idempotent drivers are retried.
        hedge_enabled: after the source's p95 latency elapses with no
            answer, fire a second request to the same source and
            take whichever responds first ("The Tail at Scale" hedging).
            Only idempotent drivers are hedged.
        tracing_enabled: record one span per hop of every query into the
            gateway's :class:`~repro.obs.trace.Tracer` (console
            ``trace_panel``, ``GET /trace/<qid>``, ``repro trace``).
        history_durable: persist history through a write-ahead log and
            checkpointed segments (:mod:`repro.storage`) so recorded
            rows survive a gateway crash (on the disk handed to the
            gateway, or a fresh one).  Off, history is the original
            in-memory ring.
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
            machine (:mod:`repro.core.admission`).
        admission_queue_limit: capacity of the gateway admission queue;
            a full queue sheds sheddable classes with
            :class:`~repro.core.errors.OverloadError`.
        adaptive_concurrency: replace the static per-source caps in the
            fan-out dispatcher with AIMD gradient limiters (probe up
            under low latency, multiplicative backoff when latency
            inflates or attempts fail).
        pressure_min_dwell: minimum virtual seconds in a pressure state
            before de-escalating (hysteresis against flapping).
        streaming_enabled: the continuous-SQL streaming plane
            (:mod:`repro.gma.streams`) — register a SELECT once, receive
            matching tuples on every publish.
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
    """

    query_cache_ttl: float = 30.0
    fanout_enabled: bool = True
    singleflight_enabled: bool = True
    history_max_rows_per_group: int = 100_000
    pool_max_per_source: int = 8
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
    serve_stale_on_open: bool = True
    default_deadline: float = 0.0
    retry_attempts: int = 1
    hedge_enabled: bool = False
    tracing_enabled: bool = True
    history_durable: bool = False
    history_fsync_interval: int = 8
    history_checkpoint_interval: float = 600.0
    admission_enabled: bool = False
    admission_queue_limit: int = 32
    adaptive_concurrency: bool = False
    pressure_min_dwell: float = 5.0
    streaming_enabled: bool = False
    stream_max_subscriptions: int = 1024
    stream_default_lease: float = 300.0
    stream_sweep_period: float = 60.0

    def __post_init__(self) -> None:
        if self.query_cache_ttl < 0:
            raise PolicyError(f"query_cache_ttl < 0: {self.query_cache_ttl!r}")
        if self.pool_max_per_source < 1:
            raise PolicyError(
                f"pool_max_per_source must be >= 1: {self.pool_max_per_source!r}"
            )
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
        if self.default_deadline < 0:
            raise PolicyError(f"default_deadline < 0: {self.default_deadline!r}")
        if self.retry_attempts < 1:
            raise PolicyError(f"retry_attempts must be >= 1: {self.retry_attempts!r}")
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


def production(**overrides: Any) -> GatewayPolicy:
    """Every plane on: the configuration the scenarios and the e2e
    benchmark run.  ``overrides`` are what one caller varies or must pin;
    each should carry its reason where it is spelled."""
    planes = dict(
        history_durable=True,
        streaming_enabled=True,
        admission_enabled=True,
        adaptive_concurrency=True,
        hedge_enabled=True,
        security_enabled=True,
    )
    return GatewayPolicy(**(planes | overrides))
