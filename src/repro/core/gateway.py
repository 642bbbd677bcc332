"""The GridRM Gateway (paper §1.1, Figure 2).

"GridRM Gateways are used to coordinate the management and monitoring of
resources at each Grid site.  This includes the controlled access to
real-time and historical data harvested from local resources."

A Gateway wires together the entire Local layer — security, sessions,
schema manager, driver manager, connection pool, query cache, history,
events, request manager, ACIL — over one simulated network host, and
manages the set of data sources the site monitors (the list the JSP tree
view of Figures 6-9 presents).  The Global layer (:mod:`repro.gma`)
attaches to a Gateway to route remote queries.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping, MutableMapping, Optional, Sequence

from repro.analysis.conformance import check_driver
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.query_check import validate_sql
from repro.core.acil import AbstractClientInterface
from repro.core.admission import AdmissionController, QueryClass
from repro.core.cache import MAX_ENTRIES as CACHE_MAX_ENTRIES, CacheController
from repro.core.connection_manager import ConnectionManager
from repro.core.deadline import Deadline
from repro.core.dispatch import FanoutDispatcher
from repro.core.driver_manager import GridRmDriverManager
from repro.core.errors import GridRmError
from repro.core.events import Event, EventManager, SnmpTrapEventDriver
from repro.core.health import BreakerState, HealthTracker, SourceHealth
from repro.core.history import HistoryStore
from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import (
    QueryMode,
    QueryResult,
    RequestManager,
    SourceStatus,
    consolidate,
)
from repro.core.shed import PressureState, ShedAction
from repro.core.schema_manager import SchemaManager
from repro.core.security import (
    ANONYMOUS,
    CoarseGrainedSecurity,
    FineGrainedSecurity,
    Principal,
)
from repro.core.sessions import Session, SessionManager
from repro.dbapi.exceptions import SQLException
from repro.dbapi.interfaces import Driver
from repro.dbapi.registry import DriverRegistry
from repro.dbapi.url import JdbcUrl
from repro.drivers import default_driver_set
from repro.obs.driver import GatewayMetricsDriver
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.simnet.network import Address, Network
from repro.storage.engine import HistoryEngine
from repro.storage.recovery import RecoveryReport
from repro.storage.simdisk import SimDisk


@dataclass
class DataSource:
    """One entry in the gateway's monitored-source list.

    The trailing fields hold the poll status the JSP tree view renders
    (Figure 9's icons: data fresh / poll failed / never polled).
    """

    url: JdbcUrl
    label: str = ""
    enabled: bool = True
    added_at: float = 0.0
    last_polled: float | None = None
    last_ok: bool | None = None
    last_error: str = ""


@dataclass
class BatchQuery:
    """One member of a :meth:`Gateway.query_batch` request."""

    urls: str | JdbcUrl | Sequence[str | JdbcUrl]
    sql: str
    mode: QueryMode = QueryMode.CACHED_OK
    max_age: float | None = None
    #: Per-member end-to-end budget in virtual seconds (None = policy
    #: default); each member of a batch gets its own deadline.
    timeout: float | None = None
    #: Priority class of this member (None = the policy default); under
    #: pressure the gateway sheds "batch" first and never "critical".
    query_class: "QueryClass | str | None" = None


def _spec_finding(spec: str, error: str) -> Finding:
    """A GRM301 finding for a persisted driver spec that would not load."""
    return Finding(
        rule_id="GRM301",
        severity=Severity.WARNING,
        message=f"persisted driver spec failed to load: {error}",
        path="<persistent-store>",
        symbol=spec,
    )


class Gateway:
    """One Grid site's GridRM gateway."""

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        site: str | None = None,
        policy: GatewayPolicy | None = None,
        schema_manager: SchemaManager | None = None,
        register_default_drivers: bool = True,
        install_event_drivers: bool = True,
        persistent_store: MutableMapping[str, str] | None = None,
        disk: SimDisk | None = None,
    ) -> None:
        if not network.has_host(host):
            network.add_host(host, site=site or "default")
        self.network = network
        self.host = host
        self.site = network.site_of(host)
        self.policy = policy if policy is not None else GatewayPolicy()

        self.schema_manager = (
            schema_manager if schema_manager is not None else SchemaManager()
        )
        self.registry = DriverRegistry()
        # The observability plane comes first: every manager below hangs
        # its stats off this shared registry and emits spans into this
        # tracer, and the self-monitoring driver serves the registry back
        # out as the GatewayMetrics GLUE group.
        self.metrics = MetricsRegistry(network.clock)
        self._query_elapsed = self.metrics.histogram("gateway.query_elapsed")
        self.tracer = Tracer(network.clock, enabled=self.policy.tracing_enabled)
        # Harnesses that run this gateway under the virtual-lane race
        # detector (chaos --race-detect, racecheck) attach it here so
        # analyze() folds GRM55x findings into the admin report.
        self.race_detector: Any | None = None
        # One health tracker shared by every manager: local sources are
        # keyed by their full JDBC URL, remote gateways by gma://<site>.
        self.health = HealthTracker(
            network.clock,
            self.policy,
            on_transition=self._on_breaker_transition,
            registry=self.metrics,
        )
        self.driver_manager = GridRmDriverManager(
            self.registry,
            self.policy,
            persistent_store=persistent_store,
            health=self.health,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.connection_manager = ConnectionManager(
            self.driver_manager,
            network.clock,
            self.policy,
            health=self.health,
            registry=self.metrics,
            tracer=self.tracer,
        )
        self.cache = CacheController(
            network.clock,
            ttl=self.policy.query_cache_ttl,
            registry=self.metrics,
        )
        # Durable history (policy.history_durable, on by default): the
        # storage engine recovers from the shared disk *before* the serving
        # store is built, so the HistoryStore's tables start populated with
        # every acknowledged pre-crash row.  Without the flag the store is
        # the in-memory ring and the disk is untouched.
        self.history_engine: HistoryEngine | None = None
        self.recovery_report: RecoveryReport | None = None
        if self.policy.history_durable:
            if disk is None:
                disk = SimDisk(clock=network.clock)
            self.history_engine = HistoryEngine(
                disk,
                clock=network.clock,
                sync_interval=self.policy.history_fsync_interval,
                max_rows_per_group=self.policy.history_max_rows_per_group,
                registry=self.metrics,
                tracer=self.tracer,
            )
            self.recovery_report = self.history_engine.recovery_report
        self.disk = disk
        self.history = HistoryStore(
            self.schema_manager.schema,
            max_rows_per_group=self.policy.history_max_rows_per_group,
            engine=self.history_engine,
        )
        self._checkpoint_task = None
        if (
            self.history_engine is not None
            and self.policy.history_checkpoint_interval > 0
        ):
            self._checkpoint_task = network.clock.call_every(
                self.policy.history_checkpoint_interval, self.history.checkpoint
            )
        self.events = EventManager(
            network, host, self.policy, history=self.history
        )
        # One dispatcher for the whole gateway: the RequestManager's
        # per-source fan-out, the Global layer's scatter-gather and
        # client batches all share it, so identical concurrent requests
        # coalesce across every code path.
        self.dispatcher = FanoutDispatcher(
            network.clock, self.policy, registry=self.metrics, tracer=self.tracer
        )
        # One plan cache for the whole gateway, invalidated whenever the
        # SchemaManager's version moves (every mapping change bumps it):
        # parse + GLUE validation + compilation happen once per distinct
        # query text, not once per request.
        self.plans = PlanCache(
            self.schema_manager.schema,
            version_fn=lambda: self.schema_manager.version,
            registry=self.metrics,
            tracer=self.tracer,
        )
        # Overload protection: bounded admission queue + gateway-wide
        # adaptive concurrency + NORMAL/BROWNOUT/SHED pressure machine.
        # Inert when policy.admission_enabled is off (decide/admit are only
        # called on the admitted path).
        self.overload = AdmissionController(
            network.clock,
            self.policy,
            registry=self.metrics,
            tracer=self.tracer,
            on_transition=self._on_pressure_transition,
        )
        self.request_manager = RequestManager(
            self.connection_manager,
            self.cache,
            self.history,
            self.policy,
            health=self.health,
            dispatcher=self.dispatcher,
            registry=self.metrics,
            tracer=self.tracer,
            plans=self.plans,
            admission=self.overload,
        )
        # Continuous-SQL streaming plane (repro.gma.streams): built only
        # when policy.streaming_enabled, so a gateway with it off schedules
        # no sweep timer and publishes nothing.  Imported lazily (like
        # AlertMonitor) to keep module import order acyclic.
        self.streams: Any | None = None
        if self.policy.streaming_enabled:
            from repro.gma.streams import StreamHub

            self.streams = StreamHub(
                network,
                host,
                plans=self.plans,
                schema=self.schema_manager.schema,
                policy=self.policy,
                history=self.history,
                overload=self.overload,
                tracer=self.tracer,
            )
            self.request_manager.streams = self.streams
        self.cgsl = CoarseGrainedSecurity(enabled=self.policy.security_enabled)
        self.fgsl = FineGrainedSecurity(enabled=self.policy.security_enabled)
        self.sessions = SessionManager(network.clock)
        self.acil = AbstractClientInterface(self)
        # Threshold alerting over the query path (Figure 3); imported
        # here to keep module import order acyclic.
        from repro.core.alerts import AlertMonitor

        self.alerts = AlertMonitor(self)

        self._sources: dict[str, DataSource] = {}
        #: Set by repro.gma.GlobalLayer when this gateway joins the GMA
        #: fabric; enables transparent routing of remote-site URLs.
        self.global_layer = None

        if register_default_drivers:
            for driver in default_driver_set(network, gateway_host=host):
                self.driver_manager.register(driver)
        # The monitor monitors itself: the grm:// self-monitoring driver
        # serves this gateway's own metrics registry through the normal
        # stack (``SELECT * FROM GatewayMetrics``).  Not persisted — its
        # constructor needs the live registry, which a start-up restore
        # could not supply.
        self.driver_manager.register(
            GatewayMetricsDriver(
                network,
                gateway_host=host,
                registry=self.metrics,
                tracer=self.tracer,
                site=self.site,
            ),
            persist=False,
        )
        # Drivers persisted by an earlier gateway incarnation re-register
        # on start-up (paper §3.2.2) — skip specs already live; a spec
        # that no longer loads is skipped, not allowed to abort start-up.
        report = self.driver_manager.restore_persisted(
            network,
            gateway_host=host,
            skip_names=self.driver_manager.driver_names(),
        )
        #: ``(spec, error)`` pairs the start-up restore could not load.
        self.restore_skipped: list[tuple[str, str]] = list(report.skipped)
        #: Compile-time findings produced at start-up: every persisted
        #: spec that would not load (GRM301) plus a full DDK conformance
        #: check of each plug-in the restore *did* bring back — problems
        #: are known before any query reaches the driver, not at fetch
        #: time.  The shipped default set is trusted (and covered by the
        #: repo's own lint run); only restored plug-ins are re-checked.
        self.startup_findings: list[Finding] = [
            _spec_finding(spec, error) for spec, error in report.skipped
        ]
        for restored in report.restored:
            self.startup_findings.extend(check_driver(restored))
        # Recovery damage reports (quarantined segments, truncated WAL
        # tails, skipped manifests) surface the same way skipped driver
        # specs do: visible findings, never a start-up failure.
        if self.recovery_report is not None:
            self.startup_findings.extend(self.recovery_report.findings)
        if install_event_drivers:
            self.events.install_driver(SnmpTrapEventDriver())

    # ------------------------------------------------------------------
    # Source health (circuit breakers)
    # ------------------------------------------------------------------
    def _on_breaker_transition(
        self,
        key: str,
        old: BreakerState,
        new: BreakerState,
        entry: SourceHealth,
    ) -> None:
        """A source's circuit breaker changed state.

        Tripping OPEN quarantines the source's pooled connections, and
        every transition is emitted as a GridRM event (recorded into
        history for the paper's historical-analysis story, fanned out to
        listeners like any native event).
        """
        if new is BreakerState.OPEN:
            self.connection_manager.quarantine(key)
        try:
            source_host = JdbcUrl.parse(key).host
        except SQLException:
            # Remote-gateway keys (gma://<site>) and other non-JDBC keys.
            source_host = key.partition("://")[2].split("/")[0] or key
        severity = {
            BreakerState.OPEN: "error",
            BreakerState.HALF_OPEN: "warning",
            BreakerState.CLOSED: "info",
        }[new]
        self.events.emit(
            Event(
                source_host=source_host,
                name=f"breaker.{new.value}",
                severity=severity,
                time=self.network.clock.now(),
                fields={
                    "source": key,
                    "from": old.value,
                    "to": new.value,
                    "consecutive_failures": entry.consecutive_failures,
                    "backoff": entry.current_backoff,
                    "error": entry.last_error,
                },
                native_kind="health",
            )
        )

    def _on_pressure_transition(
        self, old: PressureState, new: PressureState
    ) -> None:
        """The gateway's overload state machine changed state: emit it as
        a GridRM event (recorded into history, fanned out to listeners)
        so operators see brownouts the same way they see breaker trips."""
        severity = {
            PressureState.NORMAL: "info",
            PressureState.BROWNOUT: "warning",
            PressureState.SHED: "error",
        }[new]
        self.events.emit(
            Event(
                source_host=self.host,
                name=f"pressure.{new.value}",
                severity=severity,
                time=self.network.clock.now(),
                fields={
                    "from": old.value,
                    "to": new.value,
                    "queue_depth": self.overload.queue_depth(),
                    "limit": self.overload.limiter.limit,
                },
                native_kind="health",
            )
        )

    # ------------------------------------------------------------------
    # Data-source list management (paper §4, Figure 9)
    # ------------------------------------------------------------------
    def add_source(self, url: JdbcUrl | str, *, label: str = "") -> DataSource:
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        key = str(url)
        if key in self._sources:
            return self._sources[key]
        source = DataSource(
            url=url, label=label or url.host, added_at=self.network.clock.now()
        )
        self._sources[key] = source
        return source

    def remove_source(self, url: JdbcUrl | str) -> bool:
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        removed = self._sources.pop(str(url), None) is not None
        if removed:
            self.cache.invalidate(str(url))
        return removed

    def sources(self) -> list[DataSource]:
        return sorted(self._sources.values(), key=lambda s: str(s.url))

    def source(self, url: JdbcUrl | str) -> Optional[DataSource]:
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        return self._sources.get(str(url))

    # ------------------------------------------------------------------
    # Sessions / security
    # ------------------------------------------------------------------
    def login(self, principal: Principal) -> Session:
        """Authenticate a principal (authentication itself is assumed, as
        in the paper's testbeds) and open a session."""
        return self.sessions.open(principal)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        urls: str | JdbcUrl | Sequence[str | JdbcUrl],
        sql: str,
        *,
        mode: QueryMode = QueryMode.REALTIME,
        principal: Principal = ANONYMOUS,
        max_age: float | None = None,
        timeout: float | None = None,
        deadline: Deadline | None = None,
        trace_parent: Mapping[str, Any] | None = None,
        query_class: "QueryClass | str | None" = None,
    ) -> QueryResult:
        """Run a client query against one or more local data sources.

        ``query_class`` sets the query's priority class ("critical" /
        "interactive" / "batch"; ``None`` is INTERACTIVE).  With
        admission control enabled the gateway sheds BATCH first under
        pressure (:class:`~repro.core.errors.OverloadError`), serves
        sheddable classes stale in BROWNOUT, and never refuses CRITICAL.

        ``timeout`` gives the query an end-to-end budget in virtual
        seconds: a :class:`~repro.core.deadline.Deadline` is minted here
        and carried down every hop (request manager, driver selection,
        connection acquire, the driver's native requests, and — for
        remote URLs — the Global layer's wire payloads), each hop seeing
        only the *remaining* budget.  When omitted, the policy's
        ``default_deadline`` applies (0 = unlimited, the default).
        ``deadline`` lets an upstream caller (e.g. a remote producer
        re-anchoring a wire budget) pass an existing deadline instead.

        A trace rides the same path: the root span opens here, every hop
        below adds children, and the finished tree is retrievable as
        ``result.trace_id``.  ``trace_parent`` carries the originating
        span context when this query arrived over the GMA wire, so a
        remote site's tree links back to the consumer's.

        The query text is analysed once, by the plan cache, as the root
        span's first child; the resulting entry authorises the query
        (FGSL walks its tables) and rides down to the request manager.
        Only the coarse-grained check runs before any SQL work and
        before the trace: an unparsable or FGSL-refused query leaves a
        failed trace, a CGSL-refused one leaves none.

        The path is one straight line: authorise, trace, admit, route,
        release.  Every per-source answer below it is built by the
        request manager, the brownout answer included.
        """
        if isinstance(urls, (str, JdbcUrl)):
            urls = [urls]
        parsed = [JdbcUrl.parse(u) if isinstance(u, str) else u for u in urls]
        self.cgsl.check(
            principal, "history" if mode is QueryMode.HISTORY else "query"
        )
        with self.tracer.start_trace(
            "query",
            remote_parent=dict(trace_parent) if trace_parent else None,
            sql=sql,
            mode=mode.value,
            site=self.site,
            urls=len(parsed),
        ) as root:
            trace = self.tracer.current_trace()
            entry = self.request_manager.plan_entry(sql, mode)
            for group in entry.select.tables:
                for url in parsed:
                    self.fgsl.check(principal, url.host, group)
            if deadline is None:
                budget = (
                    timeout if timeout is not None else self.policy.default_deadline
                )
                if budget > 0:
                    deadline = Deadline.after(self.network.clock, budget)
            qc = QueryClass.parse(query_class)
            # Admission.  With it off (the default) — or for HISTORY
            # queries, which cost no agent traffic — the query goes
            # straight to routing, so traces and replay signatures are
            # those of a gateway without the plane.
            adm = self.overload
            admitting = adm.enabled and mode is not QueryMode.HISTORY
            result = None
            if admitting:
                root.annotate(query_class=qc.value)
                action = adm.decide(qc)
                if action in (ShedAction.STALE_THEN_DISPATCH, ShedAction.STALE_THEN_SHED):
                    result = self.request_manager.brownout(parsed, sql, entry, mode)
                    if result is not None:
                        adm.note_brownout_serve()
                    elif action is ShedAction.STALE_THEN_SHED:
                        adm.shed(qc, "no stale coverage under pressure")
                elif action is ShedAction.SHED:
                    adm.shed(qc, "gateway shedding")
            if result is None:
                ticket = adm.admit(qc, deadline) if admitting else None
                congested = True
                try:
                    # Transparent Global-layer routing (paper §1.1): URLs
                    # whose host belongs to another site are forwarded to
                    # the owning gateway when this gateway has joined the
                    # GMA fabric.
                    local, remote_by_site = self._partition_by_site(parsed)
                    started = self.network.clock.now()
                    run_local = partial(
                        self.request_manager.execute, local, sql, mode=mode,
                        max_age=max_age, deadline=deadline, entry=entry,
                        query_class=qc,
                        info={
                            "schema_manager": self.schema_manager,
                            "schema": self.schema_manager.schema,
                        },
                    )
                    if not remote_by_site:
                        # Local only: the RequestManager fans out itself.
                        result = run_local()
                    else:
                        # Scatter-gather: the local batch and each remote
                        # site's batch are dispatched concurrently;
                        # partials merge in the deterministic order
                        # local-first, then site order.
                        result = QueryResult([], [], mode=mode, started_at=started)
                        thunks = [run_local] if local else []
                        thunks += [
                            partial(
                                self._query_remote_site, site_name, site_urls, sql,
                                mode, max_age, principal, deadline, qc,
                            )
                            for site_name, site_urls in remote_by_site.items()
                        ]
                        outcomes = self.dispatcher.run(thunks)
                        for outcome in outcomes:
                            if outcome.error is not None:
                                raise outcome.error
                        consolidate(result, [o.value for o in outcomes])
                    result.elapsed = self.network.clock.now() - started
                    root.annotate(
                        rows=len(result.rows), sources_ok=result.ok_sources,
                        sources_failed=result.failed_sources,
                    )
                    self._query_elapsed.record(result.elapsed)
                    # Update per-source poll status for the tree view
                    # (Figure 9).
                    now = self.network.clock.now()
                    for status in result.statuses:
                        source = self._sources.get(status.url)
                        if source is not None and not status.from_cache:
                            source.last_polled = now
                            source.last_ok = status.ok
                            source.last_error = status.error
                    # A request that failed any source (deadline blowouts
                    # included) is a congestion signal to the gateway
                    # limiter.
                    congested = result.failed_sources > 0
                finally:
                    if admitting:
                        adm.release(ticket, congested=congested)
        result.trace_id = trace.trace_id if trace is not None else ""
        return result

    def _partition_by_site(
        self, urls: Sequence[JdbcUrl]
    ) -> tuple[list[JdbcUrl], dict[str, list[str]]]:
        """Split URLs into locally served vs remote-site batches.

        Without a Global layer everything is treated as local: the
        simulated internet does allow a driver to poll a remote agent
        directly over the WAN, it is just slower and bypasses the owning
        gateway's cache and security — exactly why the paper routes
        through gateways.
        """
        if self.global_layer is None:
            return list(urls), {}
        local: list[JdbcUrl] = []
        remote: dict[str, list[str]] = {}
        for url in urls:
            try:
                site = self.network.site_of(url.host)
            except KeyError:
                site = self.site  # unknown host: fail locally, visibly
            if site == self.site:
                local.append(url)
            else:
                remote.setdefault(site, []).append(str(url))
        return local, remote

    def _query_remote_site(
        self,
        site_name: str,
        site_urls: list[str],
        sql: str,
        mode: QueryMode,
        max_age: float | None,
        principal: Principal,
        deadline: Deadline | None = None,
        qc: QueryClass = QueryClass.INTERACTIVE,
    ) -> QueryResult:
        """One remote batch via the Global layer: the remote answer, or
        an ``ok=False`` status per URL saying why there is none."""

        def remote_exit(span, exc: Exception) -> QueryResult:
            # Each failed status leaves through the request manager's one
            # exit: its cause's counters, ``span`` failed with the cause.
            # A shed is the remote gateway protecting itself: a typed
            # per-source shed status, never a breaker failure against
            # gma://<site> (the Global layer already skipped the penalty).
            tripped = self.health.state(f"gma://{site_name}") is BreakerState.OPEN
            failed = QueryResult([], [], mode=mode)
            for url in site_urls:
                self.request_manager.answer(
                    failed, span, SourceStatus.failed(url, exc, breaker_open=tripped)
                )
            return failed

        return self.global_layer.query_remote(
            site_name,
            sql,
            urls=site_urls,
            mode=mode.value,
            max_age=max_age,
            principal=principal,
            deadline=deadline,
            query_class=qc.value,
            on_failure=remote_exit,
        )

    def query_batch(
        self,
        queries: Sequence["BatchQuery"],
        *,
        principal: Principal = ANONYMOUS,
    ) -> list[QueryResult | Exception]:
        """Run several independent client queries concurrently.

        The batch costs the slowest member's virtual elapsed time, not
        the sum; identical sub-requests across members coalesce via
        single-flight (a join and a tree-view poll asking one source the
        same group share a single agent round-trip).  Results come back
        in batch order; a member that fails contributes its exception in
        place rather than aborting its siblings.
        """
        # Batch members are virtually simultaneous, so each involved
        # source's breaker decision is frozen as of batch launch and
        # outcome recording deferred to the batch join — the same lane
        # discipline hedge siblings follow (HealthTracker.pin).  Without
        # this, member k's admission would read breaker state member
        # k-1's outcome just wrote: a launch-order dependence (GRM552).
        keys = sorted({
            str(u)
            for q in queries
            for u in ([q.urls] if isinstance(q.urls, (str, JdbcUrl)) else q.urls)
        })
        with ExitStack() as pins:
            for key in keys:
                pins.enter_context(
                    self.health.pin(key, self.health.allow_request(key))
                )
            outcomes = self.dispatcher.run([
                partial(
                    self.query, q.urls, q.sql, mode=q.mode, principal=principal,
                    max_age=q.max_age, timeout=q.timeout, query_class=q.query_class,
                )
                for q in queries
            ])
        return [o.value if o.error is None else o.error for o in outcomes]

    def query_all_sources(
        self,
        sql: str,
        *,
        mode: QueryMode = QueryMode.CACHED_OK,
        principal: Principal = ANONYMOUS,
        max_age: float | None = None,
        query_class: "QueryClass | str | None" = None,
    ) -> QueryResult:
        """Run one query across every enabled configured source."""
        urls = [s.url for s in self.sources() if s.enabled]
        if not urls:
            raise GridRmError("no data sources configured")
        return self.query(
            urls, sql, mode=mode, principal=principal, max_age=max_age,
            query_class=query_class,
        )

    # ------------------------------------------------------------------
    # Driver administration (paper §4, Figure 8)
    # ------------------------------------------------------------------
    def register_driver(
        self, driver: Driver, *, principal: Principal = ANONYMOUS
    ) -> None:
        self.cgsl.check(principal, "admin")
        self.driver_manager.register(driver)

    def unregister_driver(
        self, driver: Driver, *, principal: Principal = ANONYMOUS
    ) -> bool:
        self.cgsl.check(principal, "admin")
        return self.driver_manager.unregister(driver)

    def set_driver_preference(
        self,
        url: JdbcUrl | str,
        driver_names: list[str],
        *,
        principal: Principal = ANONYMOUS,
    ) -> None:
        self.cgsl.check(principal, "admin")
        self.driver_manager.set_preference(url, driver_names)

    # ------------------------------------------------------------------
    @property
    def trap_sink_address(self) -> Address:
        """Where local agents should send SNMP traps."""
        return Address(self.host, SnmpTrapEventDriver.port)

    def shutdown(self) -> None:
        """Orderly stop: cancel periodic work, drain pools, unbind ports.

        The gateway object stays queryable for post-mortem inspection
        (stats, history) but performs no further background activity and
        accepts no further native events.
        """
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            self._checkpoint_task = None
        # Final checkpoint: seal the memtable so a successor recovers
        # from segments alone, with an empty WAL (no-op when not durable).
        self.history.checkpoint()
        self._halt()
        self.cache.invalidate()

    def crash(self) -> None:
        """Abrupt process death — the crashtest harness's kill switch.

        Unlike :meth:`shutdown`, nothing is flushed: no WAL sync, no
        checkpoint.  Periodic work is cancelled and ports are unbound so
        a successor gateway can be built on the same host and disk; what
        that successor recovers is decided entirely by the disk's state
        (the harness crashes the :class:`SimDisk` itself, dropping
        un-fsynced writes).
        """
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            self._checkpoint_task = None
        self._halt()

    def _halt(self) -> None:
        """What shutdown and crash share: stop background work, unbind
        every port this gateway listens on, drop pooled connections."""
        for rule in [r.name for r in self.alerts.rules()]:
            self.alerts.remove_rule(rule)
        self.events.stop()
        if self.streams is not None:
            self.streams.close()
        if self.global_layer is not None:
            self.global_layer.producer.close()
        self.connection_manager.close_all()

    # ------------------------------------------------------------------
    # Static analysis of the live configuration
    # ------------------------------------------------------------------
    def analyze(self, *, principal: Principal = ANONYMOUS) -> AnalysisReport:
        """Conformance-check everything this gateway is configured with.

        Covers, with the shared :mod:`repro.analysis` finding model:

        * every registered driver, against the DDK contract
          (introspection + the AST rules over its defining module);
        * every persisted driver spec the start-up restore had to skip
          (GRM301 — the plug-in will silently be missing until fixed);
        * every installed alert rule's probe SQL, against the gateway's
          GLUE schema (the compile-time query validator);
        * any GRM55x lane races from an attached race detector (set by
          the chaos/racecheck harnesses when run with detection on).

        An admin-facing report, not a gate: registration stays permissive
        so operators can stage a driver and read its findings here.
        """
        self.cgsl.check(principal, "admin")
        report = AnalysisReport()
        for driver in self.registry.drivers():
            report.extend(check_driver(driver))
            report.files_scanned += 1
        for spec, error in self.restore_skipped:
            report.findings.append(_spec_finding(spec, error))
        for rule in self.alerts.rules():
            report.extend(
                validate_sql(
                    rule.sql,
                    self.schema_manager.schema,
                    path=f"<alert:{rule.name}>",
                )
            )
        if self.race_detector is not None:
            report.extend(self.race_detector.report())
        report.findings = report.sorted()
        return report

    def stats(self) -> dict[str, Any]:
        """One merged stats snapshot across all managers."""
        return {
            "requests": dict(self.request_manager.stats),
            "connections": dict(self.connection_manager.stats),
            "drivers": dict(self.driver_manager.stats),
            "events": dict(self.events.stats),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
                "evictions": self.cache.evictions,
                "max_entries": CACHE_MAX_ENTRIES,
            },
            "dispatch": self.dispatcher.stats.as_dict(),
            "overload": self.overload.snapshot(),
            "streams": (
                self.streams.snapshot()
                if self.streams is not None
                else {"enabled": False}
            ),
            "health": {
                **self.health.summary(),
                "scoreboard": self.health.scoreboard(),
            },
            "history_rows": self.history.row_count(),
            "history_queries": self.history.queries,
            "history_rows_scanned": self.history.rows_scanned,
            "durability": (
                self.history_engine.stats()
                if self.history_engine is not None
                else {"enabled": False}
            ),
            "metrics": {
                "instruments": len(self.metrics),
                "traces": len(self.tracer.traces()),
            },
        }
