"""RequestManager (paper §3.1.1).

"SQL requests are received from the Abstract Client Interface Layer, the
queries are processed and the results returned to the ACIL.  The
RequestManager coordinates queries across multiple data sources and
consolidates results.  Furthermore, the manager is responsible for
executing queries that span real-time resource requests and historical
(or cached) data.  The RequestManager uses the ConnectionManager to
execute real-time queries, while historical data is retrieved from the
Gateway's internal database."

Modes:

* ``REALTIME`` — always poll the data source(s).
* ``CACHED_OK`` — serve from the gateway query cache when fresh enough,
  else fall through to real time (the tree-view default, §4).
* ``HISTORY`` — run the same SQL against the internal historical store.

Multi-source queries consolidate per-source results into one relation;
sources that fail contribute a status entry rather than failing the whole
request.  Every status carries its :class:`Cause`, from which its flags,
its ``requests.*`` counters and a failed span's status follow (DESIGN §9).
A source passes its stages in order — cache, deadline, breaker, coalesce,
dispatch — and the stage that answers exits through ``_answer``.

Dispatch is concurrent in virtual time (see :mod:`repro.core.dispatch`):
a query over N sources fans one sub-request out per source, so the
consolidated result costs the *slowest* source's round-trip rather than
the sum of all N.  Results are always merged in the caller's URL order —
never completion order — so consolidation stays deterministic.  Identical
concurrent requests to one source coalesce into a single agent
round-trip (single-flight), and per-source concurrency caps stop a wide
fan-out from stampeding one agent.
"""

from __future__ import annotations

import enum
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from repro.core.admission import AdmissionController, QueryClass
from repro.core.cache import CacheController
from repro.core.connection_manager import ConnectionManager
from repro.core.deadline import Deadline
from repro.core.dispatch import FanoutDispatcher
from repro.core.errors import (
    DataSourceError,
    DeadlineExceededError,
    GridRmError,
    NoSuitableDriverError,
    OverloadError,
    QueryValidationError,
    SourceQuarantinedError,
)
from repro.core.health import HealthTracker
from repro.core.retry import RetryBudget, RetryPolicy
from repro.core.history import HistoryStore
from repro.core.plans import PlanCache, PlanEntry
from repro.core.policy import GatewayPolicy
from repro.dbapi.exceptions import (
    SQLConnectionException,
    SQLDataException,
    SQLException,
    SQLTimeoutException,
)
from repro.dbapi.resultset import ListResultSet
from repro.dbapi.url import JdbcUrl
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, NULL_SPAN, Tracer
from repro.sql.errors import SqlError
from repro.sql.plan import CompiledPlan, join_rows


class QueryMode(enum.Enum):
    REALTIME = "realtime"
    CACHED_OK = "cached_ok"
    HISTORY = "history"


class Cause(enum.Enum):
    """Why one source's answer is what it is.  A row is the whole meaning
    of its cause: the flags clients read, whether the GMA wire spells it
    (one it does not crosses as the cause with the same flags) and the
    ``requests.*`` counters it bumps.  A failed span's status is its value.
    """

    #                     ok     cache  degr.  shed   wire   counters
    FRESH = "fresh",      True,  False, False, False, True,  ()
    HISTORY = "history",  True,  False, False, False, False, ("history_served",)
    CACHE = "cache",      True,  True,  False, False, True,  ("cache_served",)
    #: The source's breaker is OPEN; served from the cache past its TTL.
    STALE = "stale",      True,  True,  True,  False, True,  ("stale_served",)
    #: The gateway is under pressure; served from the cache past its TTL.
    BROWNOUT = "brownout", True, True,  True,  False, False, ()
    #: The source's breaker is OPEN and nothing is cached to serve.
    BREAKER = "breaker",  False, False, True,  False, True,  ()
    #: A gateway (this one or a remote one) refused the work to protect
    #: itself — never a source-health signal.
    SHED = "shed",        False, False, False, True,  True,  ("sheds", "source_failures")
    DEADLINE_EXCEEDED = ("deadline_exceeded", False, False, False, False, False,
                         ("deadline_exceeded", "source_failures"))
    ERROR = "error",      False, False, False, False, True,  ("source_failures",)

    def __new__(cls, value, *row):
        cause = object.__new__(cls)
        cause._value_ = value
        return cause

    def __init__(self, _value, ok, from_cache, degraded, shed, wire, counters):
        self.ok, self.from_cache, self.degraded, self.shed = ok, from_cache, degraded, shed
        self.wire, self.counters = wire, counters


@dataclass
class SourceStatus:
    """Outcome of one data source within a consolidated query: ``cause``
    says why, and ``ok``, ``from_cache``, ``degraded`` and ``shed`` are
    read off it.  Each cause is constructed in one place, below."""

    url: str
    cause: Cause
    rows: int = 0
    #: True when this answer shared another request's in-flight
    #: round-trip (single-flight coalescing) instead of issuing its own.
    #: Set by this hop only: a caller that joined a remote flight keeps
    #: the owner's cause.
    coalesced: bool = False
    error: str = ""

    ok = property(attrgetter("cause.ok"))
    from_cache = property(attrgetter("cause.from_cache"))
    #: The source itself was not asked: stale rows or a breaker refusal.
    degraded = property(attrgetter("cause.degraded"))
    shed = property(attrgetter("cause.shed"))

    #: What of an outcome crosses a gateway-to-gateway wire, in order.
    #: ``coalesced`` says how *this* hop got its answer and stays local.
    WIRE_KEYS: ClassVar[tuple[str, ...]] = (
        "url", "ok", "rows", "from_cache", "degraded", "shed", "error"
    )

    @classmethod
    def fresh(cls, url: str, rows: int, *, coalesced: bool = False) -> "SourceStatus":
        return cls(url, Cause.FRESH, rows, coalesced)

    @classmethod
    def history(cls, url: str, rows: int) -> "SourceStatus":
        return cls(url, Cause.HISTORY, rows)

    @classmethod
    def cache(cls, url: str, rows: int = 0) -> "SourceStatus":
        return cls(url, Cause.CACHE, rows)

    @classmethod
    def stale(cls, url: str, rows: int = 0) -> "SourceStatus":
        return cls(url, Cause.STALE, rows)

    @classmethod
    def brownout(cls, url: str, rows: int) -> "SourceStatus":
        return cls(url, Cause.BROWNOUT, rows)

    @classmethod
    def failed(
        cls, url: str, exc: BaseException | str, *, breaker_open: bool = False,
        coalesced: bool = False,
    ) -> "SourceStatus":
        """A failed answer, its cause read off ``exc``: ``shed`` for a
        gateway protecting itself, ``breaker`` for an open circuit,
        ``deadline_exceeded`` for a spent budget, else ``error`` (always,
        for a caller that joined another's failed flight)."""
        error = str(exc)
        if isinstance(exc, OverloadError) and not coalesced:
            return cls(url, Cause.SHED, error=error)
        if breaker_open:
            return cls(url, Cause.BREAKER, error=error)
        if isinstance(exc, DeadlineExceededError) and not coalesced:
            return cls(url, Cause.DEADLINE_EXCEEDED, error=error)
        return cls(url, Cause.ERROR, coalesced=coalesced, error=error)

    def to_wire(self) -> list[Any]:
        return [getattr(self, key) for key in self.WIRE_KEYS]

    def as_dict(self) -> dict[str, Any]:
        """The ACIL's form: the eight keys clients always had, then ``cause``."""
        c = self.cause  # ``c._value_`` is ``c.value`` without a descriptor call
        return {"url": self.url, "ok": c.ok, "rows": self.rows, "from_cache": c.from_cache,
                "degraded": c.degraded, "coalesced": self.coalesced, "shed": c.shed,
                "error": self.error, "cause": c._value_}

    @classmethod
    def from_wire(cls, *values: Any) -> "SourceStatus":
        """The status :meth:`to_wire` spelled, its cause read back from
        the flags; ``ValueError`` for a ragged row, a value that is not
        exactly its key's type, or flags no cause spells."""
        if tuple(map(type, values)) != _WIRE_TYPES:
            raise ValueError(f"bad status row {values!r}")
        url, ok, rows, from_cache, degraded, shed, error = values
        cause = _WIRE_CAUSES.get((ok, from_cache, degraded, shed))
        if cause is None:
            raise ValueError(f"no cause spells ok={ok} from_cache/degraded/shed={values[3:6]}")
        return cls(url, cause, rows, error=error)


_WIRE_TYPES = (str, bool, int, bool, bool, bool, str)
#: (ok, from_cache, degraded, shed) -> the one cause the wire spells so.
_WIRE_CAUSES = {(c.ok, c.from_cache, c.degraded, c.shed): c for c in Cause if c.wire}


@dataclass
class QueryResult:
    """A consolidated query result."""

    columns: list[str]
    rows: list[list[Any]]
    statuses: list[SourceStatus] = field(default_factory=list)
    mode: QueryMode = QueryMode.REALTIME
    started_at: float = 0.0
    elapsed: float = 0.0
    #: Id of the query's trace tree in the gateway's Tracer ("" when the
    #: result was produced without one).
    trace_id: str = ""

    @property
    def ok_sources(self) -> int:
        return sum(1 for s in self.statuses if s.ok)

    @property
    def failed_sources(self) -> int:
        return sum(1 for s in self.statuses if not s.ok)

    @property
    def degraded(self) -> bool:
        """True when any contributing source was served degraded."""
        return any(s.degraded for s in self.statuses)

    def dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, r)) for r in self.rows]

    def result_set(self) -> ListResultSet:
        """The consolidated relation as a standard ResultSet."""
        return ListResultSet(self.columns, self.rows)


def merge_rows(
    dest_columns: list[str],
    dest_rows: list[list[Any]],
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> tuple[list[str], int]:
    """Consolidate one relation into ``(dest_columns, dest_rows)``.

    Appends to ``dest_rows`` in place, aligning heterogeneous
    projections by column name (None-filling gaps — e.g. history results
    carry extra provenance columns).  Returns the destination columns
    (adopted from ``columns`` when the destination was empty) and the
    number of rows appended.  Shared by the RequestManager's per-source
    consolidation and the Gateway's remote-site scatter-gather.
    """
    rows = [list(r) for r in rows]
    if not dest_columns:
        dest_rows.extend(rows)
        return list(columns), len(rows)
    if list(columns) == dest_columns:
        dest_rows.extend(rows)
        return dest_columns, len(rows)
    index = {c: i for i, c in enumerate(columns)}
    for row in rows:
        dest_rows.append(
            [row[index[c]] if c in index else None for c in dest_columns]
        )
    return dest_columns, len(rows)


#: One query round's fetched sources, ``(source_url, columns, rows,
#: published_at)`` in completion order: what ``StreamHub.publish`` takes.
_Published = list[tuple[str, list[str], list[Any], float]]


class RequestManager:
    """Coordinates real-time, cached and historical queries."""

    def __init__(
        self,
        connection_manager: ConnectionManager,
        cache: CacheController,
        history: HistoryStore,
        policy: GatewayPolicy,
        *,
        health: HealthTracker | None = None,
        dispatcher: FanoutDispatcher | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        plans: "PlanCache | None" = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.connection_manager = connection_manager
        self.cache = cache
        self.history = history
        self.policy = policy
        self.retry = RetryPolicy(attempts=policy.retry_attempts)
        #: Shared per-source circuit breakers (injected by the Gateway).
        self.health = health
        #: The gateway's admission controller (injected by the Gateway
        #: when overload protection is on); consulted by the retry and
        #: hedge paths so they cannot fight the limiter.
        self.admission = admission
        #: The gateway's continuous-query hub (injected by the Gateway
        #: when ``policy.streaming_enabled``): every real-time fetch is
        #: published into it so registered continuous SELECTs receive
        #: matching tuples at the moment they are produced.
        self.streams: "Any | None" = None
        self.clock = connection_manager.clock
        #: Shared metrics registry (injected by the Gateway; standalone
        #: construction gets a private one so the stats below behave the
        #: same either way) and per-hop tracer.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NO_TRACER
        #: Concurrent dispatch + single-flight + per-source caps.  The
        #: Gateway injects its shared dispatcher so coalescing works
        #: across every consumer of the same sources.
        self.dispatcher = (
            dispatcher
            if dispatcher is not None
            else FanoutDispatcher(self.clock, policy)
        )
        #: Parse + validate + compile each distinct query exactly once.
        #: The Gateway injects a shared, schema-versioned cache; a
        #: standalone manager gets a private one (no version polling —
        #: its schema object never changes under it).
        self.plans = (
            plans
            if plans is not None
            else PlanCache(
                history.schema, registry=self.registry, tracer=self.tracer
            )
        )
        #: Seeded jitter source for retry backoffs — deterministic under
        #: replay (draws happen in deterministic branch order).
        self._retry_rng = random.Random(0)
        #: Read-only view over the ``requests.*`` registry counters
        #: (``stats["queries"]``, ``dict(stats)``), bumped through
        #: ``stats.inc``; the same numbers surface through
        #: ``SELECT * FROM GatewayMetrics``.
        self.stats = StatsView(
            self.registry,
            "requests",
            (
                "queries",
                "join_queries",
                "fanout_queries",
                "singleflight_joins",
                "realtime_fetches",
                "cache_served",
                "history_served",
                "source_failures",
                "breaker_short_circuits",
                "stale_served",
                "validation_rejects",
                "retries",
                "retry_giveups",
                "deadline_exceeded",
                "sheds",
            ),
        )
        self._source_latency = self.registry.histogram("requests.source_latency")
        self._history_queries = self.registry.counter("history.queries")
        self._history_rows_scanned = self.registry.counter("history.rows_scanned")

    # ------------------------------------------------------------------
    def execute(
        self,
        urls: str | JdbcUrl | Sequence[str | JdbcUrl],
        sql: str,
        *,
        mode: QueryMode = QueryMode.REALTIME,
        max_age: float | None = None,
        info: Mapping[str, Any] | None = None,
        deadline: Deadline | None = None,
        retry_budget: RetryBudget | None = None,
        entry: PlanEntry | None = None,
    ) -> QueryResult:
        """Run ``sql`` against one or many data sources and consolidate.

        ``deadline``: end-to-end budget shared by every sub-request (see
        :mod:`repro.core.deadline`); an expired deadline turns remaining
        sources into fast-failed statuses rather than agent traffic.
        ``retry_budget``: internal — the join decomposition passes the
        top-level query's budget down so sub-queries cannot multiply it.
        ``entry``: the plan entry of ``sql`` when the caller already
        resolved it (the Gateway authorises from it); direct callers and
        join sub-queries leave it out and it is resolved here.
        """
        self.stats.inc("queries")
        if (
            retry_budget is None
            and self.retry.attempts > 1
            and self.retry.budget > 0
        ):
            retry_budget = RetryBudget(self.retry.budget)
        if isinstance(urls, (str, JdbcUrl)):
            urls = [urls]
        parsed = [JdbcUrl.parse(u) if isinstance(u, str) else u for u in urls]
        if not parsed:
            raise GridRmError("query requires at least one data source URL")
        # Parse + compile-time GLUE validation + plan compilation happen
        # exactly once per distinct query via the plan cache: a syntax
        # error is reported to the client (not charged to the first data
        # source), a query naming an unknown group / attribute or
        # comparing incompatible types is rejected before driver
        # selection, and a warm query skips all three stages (the trace
        # shows ``plan.cache_hit`` instead of ``plan.compile``).
        if entry is None:
            try:
                entry = self.plan_entry(sql, mode)
            except SqlError as exc:
                raise GridRmError(f"bad query: {exc}") from exc
        if entry.findings:
            self.stats.inc("validation_rejects")
            raise QueryValidationError(
                "invalid query: "
                + "; ".join(f.message for f in entry.findings),
                findings=entry.findings,
            )
        plan = entry.compiled()
        select = plan.select

        started = self.clock.now()
        with self.tracer.span(
            "execute", mode=mode.value, sources=len(parsed), join=select.is_join
        ):
            if select.is_join:
                result = self._execute_join(
                    parsed, plan, mode, max_age, info, deadline, retry_budget
                )
                result.started_at = started
            else:
                result = QueryResult(
                    columns=[], rows=[], mode=mode, started_at=started
                )
                if mode is QueryMode.HISTORY:
                    # Historical queries hit the gateway-local store: no
                    # network round-trips, nothing to overlap.
                    for url in parsed:
                        self._one_history(url, sql, result, plan)
                else:
                    self._realtime(
                        parsed, sql, entry, result, mode, max_age, info,
                        deadline, retry_budget,
                    )
        result.elapsed = self.clock.now() - started
        return result

    def plan_entry(self, sql: str, mode: QueryMode) -> PlanEntry:
        """The plan-cache entry ``sql`` is served from in ``mode``.

        Historical queries may additionally reference the store's
        provenance columns, so they validate — and cache — apart from
        the same text run in real time.
        """
        extra = ("SourceUrl", "RecordedAt") if mode is QueryMode.HISTORY else ()
        return self.plans.get(sql, extra_fields=extra)

    def _realtime(
        self,
        urls: list[JdbcUrl],
        sql: str,
        entry: PlanEntry,
        result: QueryResult,
        mode: QueryMode,
        max_age: float | None,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None,
        retry_budget: RetryBudget | None,
    ) -> None:
        """REALTIME / CACHED_OK over one GLUE group.

        Every source fills a private partial; partials are merged into
        ``result`` in the caller's URL order, so rows and statuses come
        out identically however the sources were answered.  CACHED_OK
        probes the query cache for every source *before* anything is
        dispatched: hits are answered in place and only the misses are
        fetched — concurrently when there are two or more.
        """
        partials = [QueryResult(columns=[], rows=[], mode=mode) for _ in urls]
        pending = list(zip(urls, partials))
        if mode is QueryMode.CACHED_OK:
            pending = [
                (url, partial)
                for url, partial in pending
                if not self._serve_cached(
                    str(url), sql, entry.key, partial, max_age, deadline
                )
            ]
        published: _Published = []
        try:
            if len(pending) > 1 and self.policy.fanout_enabled:
                self._fan_out(
                    pending, published, sql, entry, mode, info, deadline, retry_budget
                )
            else:
                for url, partial in pending:
                    self._one_realtime(
                        url, sql, entry, partial, published, mode, info, deadline,
                        retry_budget,
                    )
        finally:
            if published:
                # One publish per query round: continuous queries see each
                # fetched source as its own snapshot, and every consumer
                # address gets one frame once the fan-out is over.
                self.streams.publish(entry.compiled().select.table, published)
        for partial in partials:
            result.statuses.extend(partial.statuses)
            if partial.columns:
                self._merge(result, partial.columns, partial.rows)

    def _serve_cached(
        self,
        url_text: str,
        sql: str,
        key: str,
        partial: QueryResult,
        max_age: float | None,
        deadline: Deadline | None,
    ) -> bool:
        """Answer one source from the query cache; False on a miss (or
        a spent deadline — ``_one_realtime`` fails that source fast)."""
        if deadline is not None and deadline.expired():
            return False
        cached = self.cache.lookup(url_text, sql, max_age=max_age, key=key)
        if cached is None:
            return False
        with self.tracer.span("source", url=url_text) as span:
            self._stamp_source(span, url_text, deadline)
            span["cache"] = "hit"
            # Shared with the cache entry, not copied: the merge into the
            # consolidated result copies every row it takes.
            partial.columns, partial.rows = cached.columns, cached.rows
            self._answer(partial, span, SourceStatus.cache(url_text, len(cached.rows)))
        return True

    def _fan_out(
        self,
        pending: list[tuple[JdbcUrl, QueryResult]],
        published: _Published,
        sql: str,
        entry: PlanEntry,
        mode: QueryMode,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None = None,
        retry_budget: RetryBudget | None = None,
    ) -> None:
        """Dispatch one sub-request per pending source concurrently,
        each branch filling that source's partial (and ``published``)."""
        self.stats.inc("fanout_queries")

        def branch(url: JdbcUrl, partial: QueryResult):
            return lambda: self._one_realtime(
                url, sql, entry, partial, published, mode, info, deadline, retry_budget
            )

        guarded = (
            deadline
            if self.admission is not None and self.admission.enabled
            else None
        )
        outcomes = self.dispatcher.run(
            [branch(u, p) for u, p in pending], deadline=guarded
        )
        for outcome, (url, partial) in zip(outcomes, pending):
            if isinstance(outcome.error, DeadlineExceededError):
                # The branch-launch guard fired: the budget ran out while
                # this source's branch queued.  A per-source outcome, not
                # a query failure — and no health penalty (and no span).
                self._answer(partial, NULL_SPAN, SourceStatus.failed(str(url), outcome.error))
            elif outcome.error is not None:
                # _one_realtime converts per-source failures to statuses;
                # anything escaping it is a programming error worth
                # surfacing, not a source outcome.
                raise outcome.error

    # ------------------------------------------------------------------
    def _execute_join(
        self,
        urls: list[JdbcUrl],
        plan: CompiledPlan,
        mode: QueryMode,
        max_age: float | None,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None = None,
        retry_budget: RetryBudget | None = None,
    ) -> QueryResult:
        """Multi-group query: "Clients select one or more GLUE group
        names to query" (paper §3.2.3).

        Drivers only ever see single-group statements, so the gateway
        decomposes ``FROM Processor, MainMemory`` into one full-group
        sub-query per group, natural-joins the per-source results on the
        row identity keys (HostName + SiteName — sample Timestamps never
        match across agents), and evaluates the original projection /
        WHERE / ORDER BY / aggregation over the joined relation.
        """
        self.stats.inc("join_queries")
        result = QueryResult(columns=[], rows=[], mode=mode)
        groups = plan.select.tables
        self.tracer.current_span().annotate(groups=len(groups))

        def branch(group: str):
            return lambda: self.execute(
                urls,
                f"SELECT * FROM {group}",
                mode=mode,
                max_age=max_age,
                info=info,
                deadline=deadline,
                retry_budget=retry_budget,
            )

        # One decomposed sub-query per GLUE group, dispatched
        # concurrently (each branch fans out over the sources in turn);
        # relations are consolidated in the statement's group order.
        outcomes = self.dispatcher.run([branch(g) for g in groups])
        relations = []
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
            sub = outcome.value
            result.statuses.extend(sub.statuses)
            relations.append((sub.columns, sub.rows))
        if any(not columns for columns, _ in relations):
            # A group nobody could serve: the inner join is empty, which
            # is a degraded answer, not an error (statuses carry why).
            return result
        try:
            # Positional rows straight from the sub-queries: no per-row
            # dict round-trip between sub-query and join.
            columns, rows = join_rows(
                relations, key_columns=("HostName", "SiteName")
            )
            sel = plan.bind(tuple(columns)).execute(rows)
        except SqlError as exc:
            raise GridRmError(f"join failed: {exc}") from exc
        result.columns = sel.columns
        result.rows = sel.rows
        return result

    # ------------------------------------------------------------------
    def _merge(
        self,
        result: QueryResult,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> int:
        """Append one source's rows, aligning columns by name."""
        result.columns, n = merge_rows(result.columns, result.rows, columns, rows)
        return n

    def _stamp_source(
        self, span, url_text: str, deadline: Deadline | None
    ) -> None:
        """What every ``source`` span records about how it was answered."""
        if deadline is not None:
            span["deadline_remaining"] = deadline.remaining()
        if self.health is not None:
            span["breaker"] = self.health.state(url_text).value

    def _answer(self, result: QueryResult, span, status: SourceStatus) -> None:
        """The one exit of every per-source answer: bump its cause's
        ``requests.*`` counters, fail its span with the cause when the
        answer is not ok, and append the status."""
        cause = status.cause
        for counter in cause.counters:
            self.stats.inc(counter)
        if not cause.ok:
            span.fail(status.error, status=cause.value)
        result.statuses.append(status)

    def _one_realtime(
        self,
        url: JdbcUrl,
        sql: str,
        entry: PlanEntry,
        result: QueryResult,
        published: _Published,
        mode: QueryMode,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None = None,
        retry_budget: RetryBudget | None = None,
    ) -> None:
        url_text = str(url)
        plan = entry.compiled()
        with self.tracer.span("source", url=url_text) as span:
            self._stamp_source(span, url_text, deadline)
            if deadline is not None and deadline.expired():
                # Budget gone before this source was even dispatched (eaten
                # by earlier hops): fail fast, no agent traffic, and no
                # health penalty — the source did nothing wrong.
                spent = DeadlineExceededError("deadline exceeded before dispatch")
                self._answer(result, span, SourceStatus.failed(url_text, spent))
                return
            # A CACHED_OK source only gets here after _serve_cached missed.
            span["cache"] = "miss" if mode is QueryMode.CACHED_OK else "bypass"
            if self.health is not None and not self.health.allow_request(url_text):
                status = self._breaker_open(url_text, sql, entry.key, result, span)
                self._answer(result, span, status)
                return
            # Single-flight: an identical request already in the air to
            # this source answers both of us with one agent round-trip.
            # The real flight already updated health, stats, cache and
            # history — the joiner only waits for it and shares the outcome.
            flight = self.dispatcher.join_flight(url_text, sql, key=entry.key)
            if flight is not None:
                self.stats.inc("singleflight_joins")
                span["coalesced"] = True
                if flight.error is not None:
                    status = SourceStatus.failed(url_text, flight.error, coalesced=True)
                else:
                    n = self._merge(result, *flight.value)
                    status = SourceStatus.fresh(url_text, n, coalesced=True)
                self._answer(result, span, status)
                return
            # Only idempotent drivers may have their fetch re-issued —
            # whether by the retry loop below or by a dispatcher hedge.
            reissuable = self._idempotent(url)
            # Overload interplay (when the gateway's admission controller is
            # on): hedges are suppressed under pressure, failed attempts
            # re-check admission before retrying, and a shed costs neither a
            # breaker penalty nor a retry token (nor does a spent deadline).
            adm = (
                self.admission
                if self.admission is not None and self.admission.enabled
                else None
            )
            qc = QueryClass.parse((info or {}).get("query_class"))
            fetch_started = self.clock.now()
            attempt = 0
            # Admission was decided by the allow_request above; pin it for
            # the whole operation so hedge siblings and retry attempts see
            # the decision as of launch, not breaker state mid-mutation.
            admission = (
                self.health.pin(url_text, True)
                if self.health is not None
                else nullcontext()
            )
            try:
                with admission:
                    while True:
                        attempt += 1
                        try:
                            with self.tracer.span("attempt", index=attempt):
                                columns, rows = self.dispatcher.run_flight(
                                    url_text,
                                    sql,
                                    lambda: self._fetch(url, sql, info, deadline, plan),
                                    hedge=reissuable
                                    and not (adm is not None and adm.suppress_hedges()),
                                    deadline=deadline if adm is not None else None,
                                    key=entry.key,
                                )
                            break
                        except (DataSourceError, NoSuitableDriverError, SQLException) as exc:
                            # Connect-stage failures (DataSourceError) were
                            # already recorded by the driver manager;
                            # post-connect transport failures and bad replies
                            # (a source answering garbage is unhealthy; the
                            # commonest cause is a connection closed
                            # mid-reply) are recorded here.  Syntax errors
                            # say nothing about source health.
                            unhealthy = isinstance(
                                exc,
                                (SQLConnectionException, SQLTimeoutException, SQLDataException),
                            )
                            if self.health is not None and unhealthy:
                                self.health.record_failure(url_text, str(exc))
                            transient = (
                                unhealthy or isinstance(exc, DataSourceError)
                            ) and not isinstance(exc, SourceQuarantinedError)
                            if transient and reissuable and attempt < self.retry.attempts:
                                pause = self.retry.backoff(attempt, self._retry_rng)
                                if adm is not None and not adm.allow_retry(qc):
                                    # Re-check admission: retrying under
                                    # pressure is extra offered load fighting
                                    # our own limiter (only CRITICAL keeps
                                    # its retries).
                                    self.stats.inc("retry_giveups")
                                elif deadline is not None and deadline.remaining() <= pause:
                                    # No budget left to back off and try again.
                                    self.stats.inc("retry_giveups")
                                elif retry_budget is not None and retry_budget.take():
                                    self.stats.inc("retries")
                                    self.clock.advance(pause)
                                    continue
                                elif retry_budget is not None:
                                    self.stats.inc("retry_giveups")
                            raise
            except (
                OverloadError, DeadlineExceededError, DataSourceError,
                NoSuitableDriverError, SQLException,
            ) as exc:
                span.annotate(attempts=attempt)
                self._answer(result, span, SourceStatus.failed(url_text, exc))
                return
            if self.health is not None:
                self.health.record_success(url_text)
            self.stats.inc("realtime_fetches")
            span.annotate(attempts=attempt)
            self._source_latency.record(self.clock.now() - fetch_started)
            n = self._merge(result, columns, rows)
            self._answer(result, span, SourceStatus.fresh(url_text, n))
            group = plan.select.table
            self.cache.store(
                url_text, sql, list(columns), [list(r) for r in rows],
                group=group, key=entry.key,
            )
            if self.history.schema.has_group(group):
                canonical = self.history.schema.group(group)
                # Only record rows that carry the group's fields (star
                # queries); narrow projections are not representative.
                if set(canonical.field_names()) <= set(columns):
                    self.history.record(
                        canonical.name,
                        [dict(zip(columns, r)) for r in rows],
                        source_url=url_text,
                        recorded_at=self.clock.now(),
                    )
            if self.streams is not None:
                # Stamped at the instant the fetch produced it; the hub sees
                # it when the round's fan-out is over (see ``_realtime``).
                published.append((url_text, columns, rows, self.clock.now()))

    def _breaker_open(
        self, url_text: str, sql: str, key: str, result: QueryResult, span
    ) -> SourceStatus:
        """The breaker stage, for a source whose circuit is OPEN: never
        touch the source (even in REALTIME — that is the breaker's whole
        point).  Stale rows when the policy allows and the cache still
        holds any, a fast failure otherwise — never agent traffic."""
        self.stats.inc("breaker_short_circuits")
        span["breaker"] = "open"
        span["short_circuited"] = True
        if self.policy.serve_stale_on_open:
            stale = self.cache.lookup_stale(url_text, sql, key=key)
            if stale is not None:
                n = self._merge(result, stale.columns, stale.rows)
                return SourceStatus.stale(url_text, n)
        entry = self.health.health(url_text)
        detail = f": {entry.last_error}" if entry.last_error else ""
        error = f"circuit open until t={entry.open_until:.1f}s{detail}"
        return SourceStatus.failed(url_text, error, breaker_open=True)

    def _idempotent(self, url: JdbcUrl) -> bool:
        """May this source's fetch be safely re-issued (retry / hedge)?

        Decided by the driver's ``idempotent`` declaration.  Before any
        driver is allocated the answer defaults to True — monitoring
        reads are idempotent unless a driver says otherwise.
        """
        driver = self.connection_manager.driver_manager.cached_driver(url)
        if driver is None:
            return True
        return bool(getattr(driver, "idempotent", True))

    def _fetch(
        self,
        url: JdbcUrl,
        sql: str,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None,
        plan: CompiledPlan,
    ) -> tuple[list[str], list[list[Any]]]:
        with self.connection_manager.connection(url, info, deadline=deadline) as conn:
            rs = conn.create_statement().execute_query(sql, plan=plan)
            assert isinstance(rs, ListResultSet)
            return rs.columns, rs.take_rows()

    def _one_history(
        self,
        url: JdbcUrl,
        sql: str,
        result: QueryResult,
        plan: CompiledPlan,
    ) -> None:
        url_text = str(url)
        with self.tracer.span("history", url=url_text) as span:
            scanned_before = self.history.rows_scanned
            try:
                sel = self.history.query(sql, source_url=url_text, plan=plan)
                status = SourceStatus.history(
                    url_text, self._merge(result, sel.columns, sel.rows)
                )
                span["rows"] = status.rows
            except SqlError as exc:
                status = SourceStatus.failed(url_text, exc)
            finally:
                # What the read touched (rows handed to the bound plan),
                # next to what it returned (``rows`` above).
                scanned = self.history.rows_scanned - scanned_before
                span["scanned"] = scanned
                self._history_queries.inc()
                self._history_rows_scanned.add(scanned)
            self._answer(result, span, status)
