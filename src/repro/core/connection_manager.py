"""ConnectionManager (paper §3.1.2).

"Driver connections typically incur an overhead when a data source is
first connected, especially if drivers are dynamically mapped to the data
source.  Therefore the ConnectionManager provides pooling of driver
connections to reduce the overhead effects."

The pool is per data source (URL key).  Acquire pops an idle connection
when one exists — revalidating it first if it has been idle longer than
``idle_ttl`` — and otherwise asks the
GridRMDriverManager for a new one (which pays driver selection + native
probe + schema fetch).  Release returns the connection for reuse, or
closes it when the pool is at capacity.  Experiment E1 measures the
saving.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.core.deadline import Deadline
from repro.core.driver_manager import GridRmDriverManager
from repro.core.errors import PolicyError
from repro.core.health import BreakerState, HealthTracker
from repro.core.policy import GatewayPolicy
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmConnection
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.clock import VirtualClock


@dataclass
class PooledConnection:
    """A pool entry: the connection plus its idle-since stamp."""

    connection: GridRmConnection
    idle_since: float


def _pool_key(url: JdbcUrl) -> str:
    """Pools are keyed by the FULL url text, protocol included.

    Unlike the driver manager's endpoint key (deliberately
    protocol-agnostic so wildcard URLs can cache their last driver), a
    pooled connection is bound to one concrete driver: handing a Ganglia
    session to a ``jdbc:scms://same-host/...`` query would be wrong even
    though both address the same endpoint key.
    """
    return str(url)


class ConnectionManager:
    """Per-source JDBC connection pool."""

    def __init__(
        self,
        driver_manager: GridRmDriverManager,
        clock: VirtualClock,
        policy: GatewayPolicy,
        *,
        health: HealthTracker | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        idle_ttl: float = 120.0,
    ) -> None:
        if idle_ttl <= 0:
            raise PolicyError(f"idle_ttl must be > 0: {idle_ttl!r}")
        self.driver_manager = driver_manager
        self.clock = clock
        self.policy = policy
        #: Pooled connections idle longer than this are revalidated
        #: before reuse (s, virtual).
        self.idle_ttl = idle_ttl
        #: Shared per-source circuit breakers (injected by the Gateway).
        self.health = health
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._idle: dict[str, list[PooledConnection]] = {}
        self.stats = StatsView(
            registry if registry is not None else MetricsRegistry(),
            "pool",
            (
                "acquires",
                "created",
                "reused",
                "revalidated",
                "evicted_invalid",
                "evicted_capacity",
                "evicted_unhealthy",
                "quarantined",
            ),
        )

    # ------------------------------------------------------------------
    def acquire(
        self,
        url: JdbcUrl | str,
        info: Mapping[str, Any] | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> GridRmConnection:
        """An open connection to ``url`` — pooled when possible.

        ``deadline``: the borrowing query's end-to-end deadline, checked
        before any connect cost is paid and stamped onto the connection
        so the driver's native requests clamp to the remaining budget.
        """
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        with self.tracer.span("conn.acquire", url=str(url)) as span:
            if deadline is not None:
                # The budget this check catches was spent queueing
                # upstream (cap_wait / admission queue): name queue_wait
                # as the spending step rather than blaming the pool.
                deadline.check(f"queue_wait before connection acquire for {url}")
            self.stats.inc("acquires")
            quarantined = self.health is not None and self.health.is_quarantined(
                _pool_key(url)
            )
            if self.policy.pool_enabled and not quarantined:
                key = _pool_key(url)
                idle = self._idle.get(key, [])
                now = self.clock.now()
                while idle:
                    entry = idle.pop()
                    conn = entry.connection
                    if conn.is_closed():
                        self.stats.inc("evicted_invalid")
                        continue
                    if now - entry.idle_since > self.idle_ttl:
                        # Stale: pay one probe to revalidate before reuse,
                        # bounded by the borrowing query's remaining budget.
                        self.stats.inc("revalidated")
                        span["revalidated"] = True
                        probe_timeout = 1.0
                        if deadline is not None:
                            probe_timeout = deadline.clamp(
                                probe_timeout, f"pool revalidation for {url}"
                            )
                        if not conn.is_valid(timeout=probe_timeout):
                            conn.close()
                            self.stats.inc("evicted_invalid")
                            continue
                    self.stats.inc("reused")
                    span["pooled"] = True
                    conn.deadline = deadline
                    conn.tracer = self.tracer
                    return conn
            self.stats.inc("created")
            span["pooled"] = False
            conn = self.driver_manager.open_connection(url, info, deadline=deadline)
            conn.deadline = deadline
            conn.tracer = self.tracer
            return conn

    def release(self, connection: GridRmConnection) -> None:
        """Return a connection to its pool (or close it).

        Connections are validated before pooling: a connection whose
        source just failed — breaker OPEN, or any recent failure on
        record and the live probe now fails — is closed rather than
        handed to the next caller.  Healthy sources skip the probe, so
        the pool's whole point (no per-query native traffic) survives.
        """
        connection.deadline = None  # deadlines are per-query, not per-session
        connection.tracer = None  # spans are per-query too
        if connection.is_closed():
            return
        if not self.policy.pool_enabled:
            connection.close()
            return
        key = _pool_key(connection.url)
        if self.health is not None:
            entry = self.health.health(key)
            if self.health.is_quarantined(key):
                self.stats.inc("quarantined")
                connection.close()
                return
            if entry.state is not BreakerState.CLOSED or entry.consecutive_failures:
                # Source recently misbehaved: pay one probe before pooling.
                if not connection.is_valid():
                    self.stats.inc("evicted_unhealthy")
                    connection.close()
                    return
        idle = self._idle.setdefault(key, [])
        if len(idle) >= self.policy.pool_max_per_source:
            self.stats.inc("evicted_capacity")
            connection.close()
            return
        idle.append(
            PooledConnection(connection=connection, idle_since=self.clock.now())
        )

    def discard(self, connection: GridRmConnection) -> None:
        """Close a connection that misbehaved instead of pooling it."""
        connection.deadline = None
        connection.tracer = None
        connection.close()

    def quarantine(self, url: JdbcUrl | str) -> int:
        """Drop and close every idle connection of one source.

        Called when the source's circuit breaker trips: a pooled session
        to a source known to be failing must never be handed to the next
        caller.  Returns the number of connections quarantined.
        """
        key = str(url) if isinstance(url, str) else _pool_key(url)
        entries = self._idle.pop(key, [])
        n = 0
        for entry in entries:
            if not entry.connection.is_closed():
                entry.connection.close()
                n += 1
        self.stats.inc("quarantined", n)
        return n

    @contextmanager
    def connection(
        self,
        url: JdbcUrl | str,
        info: Mapping[str, Any] | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> Iterator[GridRmConnection]:
        """``with cm.connection(url) as conn:`` acquire/release guard.

        A body that raises discards the connection (it may be mid-protocol
        or pointing at a dead agent) rather than pooling it.
        """
        conn = self.acquire(url, info, deadline=deadline)
        try:
            yield conn
        except BaseException:
            self.discard(conn)
            raise
        self.release(conn)

    # ------------------------------------------------------------------
    def idle_count(self, url: JdbcUrl | str | None = None) -> int:
        if url is None:
            return sum(len(v) for v in self._idle.values())
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        return len(self._idle.get(_pool_key(url), []))

    def close_all(self) -> int:
        """Drain every pool (gateway shutdown); returns connections
        actually closed — entries something else already closed under us
        are drained but not counted."""
        n = 0
        for entries in self._idle.values():
            for entry in entries:
                if not entry.connection.is_closed():
                    entry.connection.close()
                    n += 1
        self._idle.clear()
        return n
