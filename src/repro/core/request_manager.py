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
dispatch — each returning the status it exits with (None passes it on),
and leaves through one :meth:`RequestManager.answer` call.  A remote
site's share of a query (``gma://<site>``, :meth:`RequestManager.remote`)
is a source too: the Global layer's consumer round trip is its fetch.
Answers read from the query cache (CACHE, STALE, BROWNOUT) are built by
``_from_cache``; each fetch attempt (``_fetch``, hedge siblings and remote
round trips too) records its failure.

Dispatch is concurrent in virtual time (see :mod:`repro.core.dispatch`,
which alone decides serial or fan-out): a query over N sources fans one
sub-request out per source, so the consolidated result costs the
*slowest* source's round-trip rather than the sum of all N.  Results
are always merged in the caller's URL order — never completion order —
so consolidation stays deterministic.  Identical concurrent requests to
one source coalesce into a single agent round-trip (single-flight), and
per-source concurrency caps stop a wide fan-out from stampeding one
agent.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Sequence

from repro.core.admission import AdmissionController, QueryClass
from repro.core.cache import CachedResult, CacheController, normalise_sql
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
    RefusedError,
)
from repro.core.health import HealthTracker
from repro.core.retry import RETRY_BUDGET, RetryBudget, RetryPolicy
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
from repro.obs.trace import NULL_SPAN, Tracer
from repro.simnet.errors import NetworkError
from repro.sql.errors import SqlError
from repro.sql.plan import CompiledPlan, join_rows

if TYPE_CHECKING:  # pragma: no cover
    from repro.gma.global_layer import GlobalLayer


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
    number of rows appended.
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


def consolidate(result: QueryResult, partials: Iterable[QueryResult]) -> None:
    """Merge partial answers into ``result`` in iteration order — never
    completion order: statuses appended, rows aligned by :func:`merge_rows`.
    Shared by the RequestManager's per-source consolidation and the
    Gateway's remote-site scatter-gather."""
    for partial in partials:
        result.statuses.extend(partial.statuses)
        if partial.columns:
            result.columns, _ = merge_rows(
                result.columns, result.rows, partial.columns, partial.rows
            )


#: One query round's fetched sources, ``(source_url, columns, rows,
#: published_at)`` in completion order: what ``StreamHub.publish`` takes.
_Published = list[tuple[str, list[str], list[Any], float]]

#: What a failed attempt says about its source: a failed connect, a
#: transport error or a bad reply (a syntax error says nothing).
_UNHEALTHY = (
    DataSourceError, SQLConnectionException, SQLTimeoutException, SQLDataException, NetworkError
)


@dataclass(frozen=True)
class Query:
    """One query as every stage of every source sees it; a remote site's
    share has no ``key`` and no plan (its own gateway compiles it)."""

    sql: str
    mode: QueryMode
    max_age: float | None
    deadline: Deadline | None
    key: str | None = None
    plan: CompiledPlan | None = None
    retry_budget: RetryBudget | None = None
    query_class: QueryClass = QueryClass.INTERACTIVE


class RequestManager:
    """Coordinates real-time, cached and historical queries."""

    def __init__(
        self,
        connection_manager: ConnectionManager,
        cache: CacheController,
        history: HistoryStore,
        policy: GatewayPolicy,
        *,
        health: HealthTracker,
        dispatcher: FanoutDispatcher,
        registry: MetricsRegistry,
        tracer: Tracer,
        plans: PlanCache,
        admission: AdmissionController,
    ) -> None:
        self.connection_manager = connection_manager
        self.cache = cache
        self.history = history
        self.policy = policy
        self.retry = RetryPolicy(attempts=policy.retry_attempts)
        #: The gateway's shared per-source circuit breakers.
        self.health = health
        #: The gateway's admission controller; when overload protection
        #: is on, the retry and hedge paths consult it so they cannot
        #: fight the limiter.
        self.admission = admission
        #: The gateway's continuous-query hub (injected by the Gateway
        #: when ``policy.streaming_enabled``): every real-time fetch is
        #: published into it so registered continuous SELECTs receive
        #: matching tuples at the moment they are produced.
        self.streams: "Any | None" = None
        self.clock = connection_manager.clock
        #: The gateway's metrics registry and per-hop tracer.
        self.registry = registry
        self.tracer = tracer
        #: Concurrent dispatch + single-flight + per-source caps: the
        #: gateway's one dispatcher, so coalescing works across every
        #: consumer of the same sources.
        self.dispatcher = dispatcher
        #: Parse + validate + compile each distinct query exactly once:
        #: the gateway's shared, schema-versioned plan cache.
        self.plans = plans
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
        deadline: Deadline | None = None,
        retry_budget: RetryBudget | None = None,
        entry: PlanEntry | None = None,
        query_class: QueryClass = QueryClass.INTERACTIVE,
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
        ``query_class``: the priority class the Gateway parsed; under
        pressure it decides whether a failed fetch may be retried.
        """
        self.stats.inc("queries")
        if retry_budget is None and self.retry.attempts > 1:
            retry_budget = RetryBudget(RETRY_BUDGET)
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
        query = Query(
            sql, mode, max_age, deadline, entry.key, entry.compiled(), retry_budget, query_class
        )

        started = self.clock.now()
        with self.tracer.span(
            "execute", mode=mode.value, sources=len(parsed), join=query.plan.select.is_join
        ):
            if query.plan.select.is_join:
                result = self._execute_join(parsed, query)
                result.started_at = started
            else:
                result = QueryResult(
                    columns=[], rows=[], mode=mode, started_at=started
                )
                if mode is QueryMode.HISTORY:
                    # Historical queries hit the gateway-local store: no
                    # network round-trips, nothing to overlap.
                    for url in parsed:
                        self._one_history(url, query, result)
                else:
                    self._realtime(parsed, query, result)
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

    def _realtime(self, urls: list[JdbcUrl], query: Query, result: QueryResult) -> None:
        """REALTIME / CACHED_OK over one GLUE group.

        Every source fills a private partial; partials are merged into
        ``result`` in the caller's URL order, so rows and statuses come
        out identically however the sources were answered.  CACHED_OK
        probes the query cache for every source *before* anything is
        dispatched: hits are answered in place and only the misses go to
        the dispatcher, which alone decides whether they run serially
        (one miss, or ``fanout_enabled`` off) or fan out.
        """
        deadline = query.deadline
        partials = [QueryResult(columns=[], rows=[], mode=query.mode) for _ in urls]
        pending = list(zip(urls, partials))
        # A spent deadline probes nothing: _one_realtime fails each
        # source fast instead.
        if query.mode is QueryMode.CACHED_OK and not (deadline is not None and deadline.expired()):
            misses = []
            for url, partial in pending:
                url_text = str(url)
                hit = self.cache.lookup(
                    url_text, query.sql, max_age=query.max_age, key=query.key
                )
                if hit is None:
                    misses.append((url, partial))
                    continue
                with self.tracer.span("source", url=url_text) as span:
                    self._stamp_source(span, url_text, deadline)
                    span["cache"] = "hit"
                    status = self._from_cache(partial, url_text, hit, SourceStatus.cache)
                    self.answer(partial, span, status)
            pending = misses
        published: _Published = []
        try:
            if pending:
                # ``requests.fanout_queries`` counts the rounds the
                # dispatcher will fan out.
                if self.dispatcher.fans_out(len(pending)):
                    self.stats.inc("fanout_queries")
                branches = [
                    functools.partial(self._one_realtime, url, query, partial, published)
                    for url, partial in pending
                ]
                guarded = deadline if self.admission.enabled else None
                outcomes = self.dispatcher.run(branches, deadline=guarded)
                for outcome, (url, partial) in zip(outcomes, pending):
                    if isinstance(outcome.error, DeadlineExceededError):
                        # The branch-launch guard fired: the budget ran out
                        # while this source's branch queued.  A per-source
                        # outcome, not a query failure — and no health
                        # penalty (and no span).
                        failed = SourceStatus.failed(str(url), outcome.error)
                        self.answer(partial, NULL_SPAN, failed)
                    elif outcome.error is not None:
                        # _one_realtime converts per-source failures to
                        # statuses; anything escaping it is a programming
                        # error worth surfacing, not a source outcome.
                        raise outcome.error
        finally:
            if published:
                # One publish per query round: continuous queries see each
                # fetched source as its own snapshot, and every consumer
                # address gets one frame once the fan-out is over.
                self.streams.publish(query.plan.select.table, published)
        consolidate(result, partials)

    # ------------------------------------------------------------------
    def _execute_join(self, urls: list[JdbcUrl], query: Query) -> QueryResult:
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
        result = QueryResult(columns=[], rows=[], mode=query.mode)
        groups = query.plan.select.tables
        self.tracer.current_span().annotate(groups=len(groups))

        # One decomposed sub-query per GLUE group, dispatched
        # concurrently (each branch fans out over the sources in turn);
        # relations are consolidated in the statement's group order.
        outcomes = self.dispatcher.run([
            functools.partial(
                self.execute, urls, f"SELECT * FROM {group}", mode=query.mode,
                max_age=query.max_age, deadline=query.deadline,
                retry_budget=query.retry_budget, query_class=query.query_class,
            )
            for group in groups
        ])
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
            sel = query.plan.bind(tuple(columns)).execute(rows)
        except SqlError as exc:
            raise GridRmError(f"join failed: {exc}") from exc
        result.columns = sel.columns
        result.rows = sel.rows
        return result

    # ------------------------------------------------------------------
    def _stamp_source(
        self, span, url_text: str, deadline: Deadline | None
    ) -> None:
        """What every ``source`` span records about how it was answered."""
        if deadline is not None:
            span["deadline_remaining"] = deadline.remaining()
        span["breaker"] = self.health.state(url_text).value

    def answer(self, result: QueryResult, span, status: SourceStatus) -> None:
        """The one exit of every per-source answer: bump its cause's
        ``requests.*`` counters, fail its span with the cause when the
        answer is not ok, and append the status."""
        cause = status.cause
        for counter in cause.counters:
            self.stats.inc(counter)
        if not cause.ok:
            span.fail(status.error, status=cause.value)
        result.statuses.append(status)

    @staticmethod
    def _from_cache(
        partial: QueryResult,
        url_text: str,
        hit: CachedResult,
        answer: Callable[[str, int], SourceStatus],
    ) -> SourceStatus:
        """Every answer served from the query cache —
        ``SourceStatus.cache`` (fresh enough), ``.stale`` (breaker OPEN)
        and ``.brownout`` (gateway under pressure) — is built here; the
        caller sends it through :meth:`answer`.

        ``hit``'s relation becomes ``partial``'s: shared with the cache
        entry, not copied, as the consolidation copies every row it takes.
        """
        partial.columns, partial.rows = hit.columns, hit.rows
        return answer(url_text, len(hit.rows))

    def brownout(
        self, urls: list[JdbcUrl], sql: str, entry: PlanEntry, mode: QueryMode
    ) -> QueryResult | None:
        """The gateway is under pressure: a complete stale answer from the
        query cache, or None.

        Brownout serving is all-or-nothing: every URL must still hold a
        (possibly expired) cached relation for this SQL — a partial
        stale answer would silently drop sources, so it falls through to
        normal dispatch (or a shed) instead.
        """
        started = self.clock.now()
        texts = [str(url) for url in urls]
        hits = [self.cache.lookup_stale(text, sql, key=entry.key) for text in texts]
        if any(hit is None for hit in hits):
            return None
        result = QueryResult(columns=[], rows=[], mode=mode, started_at=started)
        with self.tracer.span(
            "brownout_serve", sources=len(hits), state=self.admission.state.value
        ) as span:
            partials = [QueryResult(columns=[], rows=[], mode=mode) for _ in hits]
            for partial, text, hit in zip(partials, texts, hits):
                status = self._from_cache(partial, text, hit, SourceStatus.brownout)
                self.answer(partial, span, status)
            consolidate(result, partials)
        result.elapsed = self.clock.now() - started
        return result

    def _one_realtime(
        self, url: JdbcUrl, query: Query, result: QueryResult, published: _Published
    ) -> None:
        """One source's stages in order — deadline, breaker, coalesce, dispatch —
        each returning its exit status or None; the one exit is the last line."""
        url_text = str(url)
        with self.tracer.span("source", url=url_text) as span:
            self._stamp_source(span, url_text, query.deadline)
            status = self._deadline_spent(url_text, query.deadline)
            if status is None:
                # A CACHED_OK source only gets here after its cache probe missed.
                span["cache"] = "miss" if query.mode is QueryMode.CACHED_OK else "bypass"
                status = (
                    self._breaker_open(url_text, url_text, query, result, span)
                    or self._coalesce(url_text, query.key, query, result, span)
                    or self._dispatch(url, query, result, span, published)
                )
            self.answer(result, span, status)

    @staticmethod
    def _deadline_spent(url_text: str, deadline: Deadline | None) -> SourceStatus | None:
        """The deadline stage.  Budget gone before this source was even
        dispatched (eaten by earlier hops): fail fast, no agent traffic,
        and no health penalty — the source did nothing wrong."""
        if deadline is not None and deadline.expired():
            spent = DeadlineExceededError("deadline exceeded before dispatch")
            return SourceStatus.failed(url_text, spent)
        return None

    def _breaker_open(
        self, key: str, cached: str | None, query: Query, result: QueryResult, span
    ) -> SourceStatus | None:
        """The breaker stage, for a source whose circuit ``key`` is OPEN:
        never touch the source (even in REALTIME — that is the breaker's
        whole point).  Stale rows when the policy allows and the cache
        still holds any under ``cached`` (None: nothing may be served from
        the cache), a fast failure otherwise — never agent traffic."""
        if self.health.allow_request(key):
            return None
        self.stats.inc("breaker_short_circuits")
        span["breaker"] = "open"
        span["short_circuited"] = True
        if self.policy.serve_stale_on_open and cached is not None:
            stale = self.cache.lookup_stale(cached, query.sql, key=query.key)
            if stale is not None:
                return self._from_cache(result, key, stale, SourceStatus.stale)
        entry = self.health.health(key)
        detail = f": {entry.last_error}" if entry.last_error else ""
        error = f"circuit open until t={entry.open_until:.1f}s{detail}"
        return SourceStatus.failed(key, error, breaker_open=True)

    def _coalesce(
        self, url_text: str, key: str | None, query: Query, result: QueryResult, span
    ) -> SourceStatus | None:
        """The coalesce stage.  Single-flight: an identical request already
        in the air to this source answers both of us with one agent
        round-trip.  The real flight already updated health, stats, cache
        and history — the joiner only waits for it and shares the outcome."""
        flight = self.dispatcher.join_flight(url_text, query.sql, key=key)
        if flight is None:
            return None
        self.stats.inc("singleflight_joins")
        span["coalesced"] = True
        if flight.error is not None:
            return SourceStatus.failed(url_text, flight.error, coalesced=True)
        shared = flight.value
        if isinstance(shared, QueryResult):
            # A remote site's answer: the joiner keeps its wire statuses,
            # marked joined; the owner's stay as they are.
            result.statuses += [replace(s, coalesced=True) for s in shared.statuses]
            shared = shared.columns, shared.rows
        result.columns, n = merge_rows(result.columns, result.rows, *shared)
        return SourceStatus.fresh(url_text, n, coalesced=True)

    def _dispatch(
        self, url: JdbcUrl, query: Query, result: QueryResult, span, published: _Published
    ) -> SourceStatus:
        """The dispatch stage: fetch (retried, hedged), then cache, record
        and publish what it answered."""
        url_text = str(url)
        # Only idempotent drivers may have their fetch re-issued —
        # whether by the retry loop below or by a dispatcher hedge.
        # Before any driver is allocated the answer is yes: monitoring
        # reads are idempotent unless a driver says otherwise.
        driver = self.connection_manager.driver_manager.cached_driver(url)
        reissuable = driver is None or bool(getattr(driver, "idempotent", True))
        # Overload interplay (when the gateway's admission controller is
        # on): hedges are suppressed under pressure, failed attempts
        # re-check admission before retrying, and a shed costs neither a
        # breaker penalty nor a retry token (nor does a spent deadline).
        adm = self.admission
        fetch_started = self.clock.now()
        attempt = 0
        # Admission was decided by the breaker stage; pin it for the whole
        # operation, so what its hedge siblings and retry attempts record
        # is applied when it ends, whatever their order.
        try:
            with self.health.pin(url_text, True):
                while True:
                    attempt += 1
                    try:
                        with self.tracer.span("attempt", index=attempt):
                            columns, rows = self.dispatcher.run_flight(
                                url_text,
                                query.sql,
                                lambda: self._fetch(url_text, lambda: self._read(url, query)),
                                hedge=reissuable and not adm.suppress_hedges(),
                                deadline=query.deadline if adm.enabled else None,
                                key=query.key,
                            )
                        break
                    except _UNHEALTHY:
                        # The attempt (``_fetch``) recorded it.  Syntax
                        # errors say nothing about source health and are
                        # not retried.
                        if reissuable and attempt < self.retry.attempts:
                            pause = self.retry.backoff(attempt, self._retry_rng)
                            if not adm.allow_retry(query.query_class):
                                # Re-check admission: retrying under
                                # pressure is extra offered load fighting
                                # our own limiter (only CRITICAL keeps
                                # its retries).
                                self.stats.inc("retry_giveups")
                            elif query.deadline is not None and query.deadline.remaining() <= pause:
                                # No budget left to back off and try again.
                                self.stats.inc("retry_giveups")
                            elif query.retry_budget.take():
                                self.stats.inc("retries")
                                self.clock.advance(pause)
                                continue
                            else:
                                self.stats.inc("retry_giveups")
                        raise
        except (
            OverloadError, DeadlineExceededError, DataSourceError,
            NoSuitableDriverError, SQLException,
        ) as exc:
            span.annotate(attempts=attempt)
            return SourceStatus.failed(url_text, exc)
        self.health.record_success(url_text)
        self.stats.inc("realtime_fetches")
        span.annotate(attempts=attempt)
        self._source_latency.record(self.clock.now() - fetch_started)
        result.columns, n = merge_rows(result.columns, result.rows, columns, rows)
        group = query.plan.select.table
        self.cache.store(
            url_text, query.sql, list(columns), [list(r) for r in rows],
            group=group, key=query.key,
        )
        self.history.record(
            group, columns, rows,
            source_url=url_text, recorded_at=self.clock.now(), star_only=True,
        )
        if self.streams is not None:
            # Stamped at the instant the fetch produced it; the hub sees
            # it when the round's fan-out is over (see ``_realtime``).
            published.append((url_text, columns, rows, self.clock.now()))
        return SourceStatus.fresh(url_text, n)

    def _fetch(self, key: str, read: Callable[[], Any]) -> Any:
        """One attempt, hedge siblings included: it records its own
        failure against ``key`` — a failed connect (only the driver
        manager raises :class:`DataSourceError`, under the driver's own
        error text), a transport error (a remote site's failed round trip
        among them) or a bad reply (a source answering garbage is
        unhealthy; the commonest cause is a connection closed mid-reply).
        A refusal (a remote site's deny or syntax error) is an answer and
        is not recorded."""
        try:
            return read()
        except _UNHEALTHY as exc:
            if not isinstance(exc, RefusedError):
                reason = exc.__cause__ if isinstance(exc, DataSourceError) else exc
                self.health.record_failure(key, str(reason))
            raise

    def _read(self, url: JdbcUrl, query: Query) -> tuple[list[str], list[list[Any]]]:
        """One read of a local source over a pooled connection."""
        with self.connection_manager.connection(url, deadline=query.deadline) as conn:
            rs = conn.create_statement().execute_query(query.sql, plan=query.plan)
            assert isinstance(rs, ListResultSet)
            return rs.columns, rs.take_rows()

    def remote(
        self, layer: "GlobalLayer", site: str, urls: list[str] | None, query: Query,
        fetch: Callable[[], QueryResult],
    ) -> QueryResult:
        """A remote site's share of a query as one source (breaker key
        ``gma://<site>``, cache and flight key ``gma://<site>/<urls>``)
        through a local source's stages: deadline, cache, breaker (stale
        included), coalesce and dispatch, whose fetch is ``fetch`` (the
        consumer's round trip).  A site that cannot answer gives an
        ``ok=False`` status per URL; no per-source failure is raised.
        ``layer.cache_remote`` turns the cache stage on; ``layer.stats``
        keeps the per-scheme tallies.  A remote source's own outcomes:

        * the cache stage runs in REALTIME too (a warm real-time fan-out
          costs no request, E7); HISTORY neither reads nor writes it;
        * a status a stage builds leaves once per URL asked for (a
          whole-site query names the site), with ``rows=0``;
        * a fetched or joined answer keeps the remote's wire statuses, and
          is cached only when every one of them is ok;
        * no retry loop (the consumer's producer failover plays that
          part), no history, no publish.
        """
        site_key = f"gma://{site}"
        key = site_key + (f"/{','.join(urls)}" if urls else "")
        # The owner answers a HISTORY and a REALTIME share of one text
        # differently: the flight keys on the mode too.
        flight = f"{query.mode.value}:{normalise_sql(query.sql)}"
        cached = key if layer.cache_remote and query.mode is not QueryMode.HISTORY else None
        partial = QueryResult([], [], mode=query.mode)
        status = self._deadline_spent(key, query.deadline)
        if status is not None:
            return self._spread(partial, NULL_SPAN, status, urls or [key])
        with self.tracer.span("remote", site=site) as span:
            layer.stats.inc("remote_queries")
            hit = self.cache.lookup(cached, query.sql, max_age=query.max_age) if cached else None
            if hit is not None:
                layer.stats.inc("remote_cache_hits")
                span["cache"] = "hit"
                status = self._from_cache(partial, key, hit, SourceStatus.cache)
            status = (
                status
                or self._breaker_open(site_key, cached, query, partial, span)
                or self._coalesce(key, flight, query, partial, span)
                or self._remote_fetch(site_key, key, flight, query, partial, fetch)
            )
            if status.cause is not Cause.FRESH:
                return self._spread(partial, span, status, urls or [key])
            if cached and not status.coalesced and all(s.ok for s in partial.statuses):
                self.cache.store(cached, query.sql, partial.columns, partial.rows)
            return partial

    def _remote_fetch(
        self, site_key: str, key: str, flight: str, query: Query, result: QueryResult,
        fetch: Callable,
    ) -> SourceStatus:
        """A remote source's dispatch stage: the fetched answer, its wire
        statuses included, becomes ``result``.  A shed is ``shed`` and a
        spent budget ``deadline_exceeded``, neither a health failure; a
        refusal is ``error`` with the owner's message, and neither; a
        failed round trip is recorded by ``_fetch``."""
        adm = self.admission
        try:
            answer = self.dispatcher.run_flight(
                key, query.sql, lambda: self._fetch(site_key, fetch),
                hedge=not adm.suppress_hedges(), deadline=query.deadline if adm.enabled else None,
                key=flight,
            )
        except (OverloadError, DeadlineExceededError, NetworkError) as exc:
            return SourceStatus.failed(key, exc)
        self.health.record_success(site_key)
        if answer.trace_id:
            self.tracer.current_span()["remote_trace"] = answer.trace_id
        consolidate(result, [answer])
        return SourceStatus.fresh(key, len(answer.rows))

    def _spread(self, partial: QueryResult, span, status: SourceStatus, urls: list[str]):
        """A remote source's stage-built answer: ``partial``'s relation,
        copied, and ``status`` leaving once per URL, with ``rows=0``."""
        result = QueryResult(list(partial.columns), [list(r) for r in partial.rows], mode=partial.mode)
        for url in urls:
            self.answer(result, span, replace(status, url=url, rows=0))
        return result

    def _one_history(self, url: JdbcUrl, query: Query, result: QueryResult) -> None:
        url_text = str(url)
        with self.tracer.span("history", url=url_text) as span:
            scanned_before = self.history.rows_scanned
            try:
                sel = self.history.query(query.sql, source_url=url_text, plan=query.plan)
                result.columns, n = merge_rows(
                    result.columns, result.rows, sel.columns, sel.rows
                )
                status = SourceStatus.history(url_text, n)
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
            self.answer(result, span, status)
