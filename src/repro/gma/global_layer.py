"""GlobalLayer: a gateway's attachment to the GMA fabric.

"Clients are free to connect to any Gateway; requests for remote resource
data are routed through to the Global layer for processing by the gateway
that owns the required data" (paper §1.1).  The GlobalLayer:

* registers the gateway's producer with the GMA directory;
* answers ``query_remote``: route a query to the owning site's gateway;
* caches remote answers in the local gateway's CacheController — "this
  approach is used between gateways to increase scalability by reducing
  unnecessary requests" (§4, experiment E7);
* tracks each remote gateway's health in the local gateway's circuit
  breakers (key ``gma://<site>``): a partitioned or dead site is
  fast-failed (or served stale from the remote-answer cache, flagged
  degraded) instead of adding its full timeout to every multi-site
  query.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.deadline import Deadline
from repro.core.errors import DeadlineExceededError, OverloadError
from repro.core.request_manager import QueryResult, SourceStatus
from repro.core.security import ANONYMOUS, Principal
from repro.gma.consumer import GatewayConsumer, RemoteQueryFailure
from repro.gma.directory import DirectoryClient, GMADirectory
from repro.gma.producer import PRODUCER_PORT, GatewayProducer
from repro.gma.records import ProducerRecord
from repro.obs.metrics import StatsView
from repro.obs.trace import NULL_SPAN
from repro.simnet.network import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway
    from repro.obs.trace import Span, _NullSpan


#: A remote (inter-site) query could not be served: unreachable, refused,
#: out of shape, or short-circuited by the ``gma://<site>`` breaker.
RemoteQueryError = RemoteQueryFailure


class SiteCircuitOpen(RemoteQueryFailure):
    """The ``gma://<site>`` breaker was already OPEN: the query never
    left this gateway.  The one remote failure whose cause is ``breaker``;
    a round trip that failed (and perhaps tripped the breaker) is not."""


def _copy(relation, statuses: list[SourceStatus], **more) -> QueryResult:
    """A cached or shared relation as this caller's own answer."""
    return QueryResult(
        list(relation.columns), [list(r) for r in relation.rows], statuses, **more
    )


class GlobalLayer:
    """One gateway's Global-layer endpoint + routing logic."""

    def __init__(
        self,
        gateway: "Gateway",
        directory: GMADirectory | Address,
        *,
        producer_port: int = PRODUCER_PORT,
        cache_remote: bool = True,
    ) -> None:
        self.gateway = gateway
        directory_address = (
            directory.address if isinstance(directory, GMADirectory) else directory
        )
        self.directory = DirectoryClient(
            gateway.network, gateway.host, directory_address
        )
        self.producer = GatewayProducer(gateway, port=producer_port)
        self.consumer = GatewayConsumer(
            gateway.network,
            gateway.host,
            self.directory,
            from_site=gateway.site,
            tracer=gateway.tracer,
        )
        self.cache_remote = cache_remote
        self.stats = StatsView(
            gateway.metrics,
            "gma",
            (
                "remote_queries",
                "remote_cache_hits",
                "remote_short_circuits",
                "remote_stale_served",
                "remote_coalesced",
                "remote_sheds",
            ),
        )
        self.register()
        # Enable the gateway's transparent remote-URL routing (paper
        # §1.1: remote requests "are routed through to the Global layer").
        gateway.global_layer = self

    # ------------------------------------------------------------------
    def register(self) -> None:
        """(Re-)register this gateway's producer with the directory."""
        self.record = ProducerRecord(
            site=self.gateway.site,
            gateway_host=self.gateway.host,
            port=self.producer.address.port,
            groups=tuple(self.gateway.schema_manager.group_names()),
            registered_at=self.gateway.network.clock.now(),
        )
        self.directory.register_producer(self.record)

    def unregister(self) -> None:
        self.directory.unregister_producer(self.record.key())

    # ------------------------------------------------------------------
    def query_remote(
        self,
        site: str,
        sql: str,
        *,
        urls: list[str] | None = None,
        mode: str = "cached_ok",
        max_age: float | None = None,
        principal: Principal = ANONYMOUS,
        deadline: Deadline | None = None,
        query_class: str | None = None,
        on_failure: "Callable[[Span | _NullSpan, Exception], QueryResult] | None" = None,
    ) -> QueryResult:
        """Route a query to the gateway owning ``site``'s resources.

        The local CGSL gates outbound remote queries; the remote FGSL is
        applied by the owning gateway when it executes them.  A
        ``deadline`` is checked before any remote cost is paid; it and
        ``query_class`` ride the hop envelope (:mod:`repro.gma.records`).
        A remote shed propagates as :class:`OverloadError` and is *not*
        a breaker failure against ``gma://<site>``.

        With ``on_failure``, a typed failure (a shed, an open or failing
        circuit, a spent budget) is not raised: ``on_failure(span, exc)``
        answers instead, ``span`` being this query's ``remote`` span
        (:data:`NULL_SPAN` when the budget was spent before it opened).
        The gateway's remote exit is that callback.
        """
        gateway = self.gateway
        gateway.cgsl.check(principal, "query_remote")
        span = NULL_SPAN
        try:
            if deadline is not None:
                deadline.check(f"remote query to site {site!r}")
            with gateway.tracer.span("remote", site=site) as span:
                return self._ask(
                    span, site, sql, urls, mode, max_age, deadline, query_class
                )
        except (OverloadError, RemoteQueryError, DeadlineExceededError) as exc:
            if on_failure is None:
                raise
            return on_failure(span, exc)

    def _ask(
        self,
        span: "Span | _NullSpan",
        site: str,
        sql: str,
        urls: list[str] | None,
        mode: str,
        max_age: float | None,
        deadline: Deadline | None,
        query_class: str | None,
    ) -> QueryResult:
        """The body of :meth:`query_remote`, inside its ``remote`` span."""
        gateway = self.gateway
        self.stats.inc("remote_queries")
        health_key = f"gma://{site}"
        cache_key_url = health_key + (f"/{','.join(urls)}" if urls else "")
        # A cached or stale answer keeps one status per requested URL,
        # as the fresh answer it was cached from had (a whole-site
        # query names the site).  Per-source row counts are not cached.
        covered = urls or [cache_key_url]
        if self.cache_remote:
            cached = gateway.cache.lookup(cache_key_url, sql, max_age=max_age)
            if cached is not None:
                self.stats.inc("remote_cache_hits")
                span["cache"] = "hit"
                return self._serve(span, cached, covered, SourceStatus.cache)
        # The remote gateway has a circuit breaker in the local
        # gateway's health tracker: while it is OPEN a partitioned site
        # costs nothing instead of a full consumer timeout per query.
        health = gateway.health
        if not health.allow_request(health_key):
            self.stats.inc("remote_short_circuits")
            span["short_circuited"] = True
            if self.cache_remote and gateway.policy.serve_stale_on_open:
                stale = gateway.cache.lookup_stale(cache_key_url, sql)
                if stale is not None:
                    self.stats.inc("remote_stale_served")
                    span["stale"] = True
                    return self._serve(span, stale, covered, SourceStatus.stale)
            entry = health.health(health_key)
            raise SiteCircuitOpen(
                f"circuit open for site {site!r} until t={entry.open_until:.1f}s "
                f"(last error: {entry.last_error or 'unknown'})"
            )
        # Single-flight: an identical query to this site already in
        # the air answers both callers with one consumer round-trip
        # (a shared shed stays the typed shed); the per-source
        # concurrency cap queues excess requests to one remote
        # gateway in virtual time.
        flight = gateway.dispatcher.join_flight(cache_key_url, sql)
        if flight is not None:
            self.stats.inc("remote_coalesced")
            span["coalesced"] = True
            if flight.error is not None:
                raise flight.error
            # The joiner's copy says how it got its answer; the
            # flight owner's statuses stay as they are.
            shared = flight.value
            joined = [replace(s, coalesced=True) for s in shared.statuses]
            return _copy(shared, joined, mode=shared.mode)
        try:
            result = gateway.dispatcher.run_flight(
                cache_key_url,
                sql,
                lambda: self.consumer.query_site(
                    site, sql, urls=urls, mode=mode, max_age=max_age,
                    deadline=deadline, query_class=query_class,
                ),
            )
        except OverloadError:
            # A shed says nothing about the remote site's health: no
            # record_failure (the breaker must not trip on a gateway
            # protecting itself), just the typed error to the caller.
            self.stats.inc("remote_sheds")
            raise
        except RemoteQueryError as exc:
            health.record_failure(health_key, str(exc))
            raise
        health.record_success(health_key)
        if result.trace_id:
            span["remote_trace"] = result.trace_id
        if self.cache_remote:
            gateway.cache.store(cache_key_url, sql, result.columns, result.rows)
        return result

    def _serve(self, span, relation, urls: list[str], answer) -> QueryResult:
        """A relation served from the local cache: each URL's status leaves
        through the request manager's one exit, as a local answer's does."""
        served = _copy(relation, [])
        for url in urls:
            self.gateway.request_manager.answer(served, span, answer(url))
        return served

    def query_remote_all(
        self,
        sites: Sequence[str],
        sql: str,
        *,
        mode: str = "cached_ok",
        max_age: float | None = None,
        principal: Principal = ANONYMOUS,
    ) -> dict[str, QueryResult | Exception]:
        """Scatter one query across several sites concurrently.

        Each site goes through the full :meth:`query_remote` path (CGSL,
        remote-answer cache, circuit breaker, single-flight) as its own
        concurrent branch, so the gather costs the slowest site's
        round-trip in virtual time.  Returns per-site results keyed in
        ``sites`` order; a site that fails maps to its exception rather
        than aborting the rest.
        """
        sites = list(sites)
        outcomes = self.gateway.dispatcher.run([
            lambda s=s: self.query_remote(
                s, sql, mode=mode, max_age=max_age, principal=principal
            )
            for s in sites
        ])
        return {
            site: (o.value if o.error is None else o.error)
            for site, o in zip(sites, outcomes)
        }

    def known_sites(self) -> list[str]:
        """All sites with a registered producer (for the console)."""
        return sorted({p.site for p in self.directory.list_producers()})
