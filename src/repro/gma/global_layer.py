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

from typing import TYPE_CHECKING, Sequence

from repro.core.deadline import Deadline
from repro.core.errors import GridRmError, OverloadError
from repro.core.security import ANONYMOUS, Principal
from repro.gma.consumer import GatewayConsumer, RemoteQueryFailure, RemoteResult
from repro.gma.directory import DirectoryClient, GMADirectory
from repro.gma.producer import PRODUCER_PORT, GatewayProducer
from repro.gma.records import ProducerRecord
from repro.obs.metrics import StatsView
from repro.simnet.network import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway


class RemoteQueryError(GridRmError):
    """A remote (inter-site) query could not be served."""


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
        record = ProducerRecord(
            site=self.gateway.site,
            gateway_host=self.gateway.host,
            port=self.producer.address.port,
            groups=tuple(self.gateway.schema_manager.group_names()),
            registered_at=self.gateway.network.clock.now(),
        )
        self.directory.register_producer(record)

    def unregister(self) -> None:
        record_key = (
            f"{self.gateway.site}@{self.gateway.host}:{self.producer.address.port}"
        )
        self.directory.unregister_producer(record_key)

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
    ) -> RemoteResult:
        """Route a query to the gateway owning ``site``'s resources.

        The local CGSL gates outbound remote queries; the remote FGSL is
        applied by the owning gateway when it executes them.  A
        ``deadline`` is checked before any remote cost is paid and
        carried onto the wire as the remaining budget, so the owning
        gateway inherits what is left rather than a fresh allowance.
        ``query_class`` crosses the wire so the remote gateway's
        admission control sheds by the originating query's priority; a
        remote shed propagates as :class:`OverloadError` and is *not* a
        breaker failure against ``gma://<site>``.
        """
        self.gateway.cgsl.check(principal, "query_remote")
        if deadline is not None:
            deadline.check(f"remote query to site {site!r}")
        with self.gateway.tracer.span("remote", site=site) as span:
            return self._query_remote_traced(
                site, sql, urls, mode, max_age, deadline, span, query_class
            )

    def _query_remote_traced(
        self,
        site: str,
        sql: str,
        urls: list[str] | None,
        mode: str,
        max_age: float | None,
        deadline: Deadline | None,
        span,
        query_class: str | None = None,
    ) -> RemoteResult:
        self.stats.inc("remote_queries")
        cache_key_url = f"gma://{site}" + (f"/{','.join(urls)}" if urls else "")
        if self.cache_remote:
            cached = self.gateway.cache.lookup(cache_key_url, sql, max_age=max_age)
            if cached is not None:
                self.stats.inc("remote_cache_hits")
                span["cache"] = "hit"
                return RemoteResult(
                    columns=list(cached.columns),
                    rows=[list(r) for r in cached.rows],
                    statuses=[{"url": cache_key_url, "ok": True, "from_cache": True}],
                )
        # The remote gateway has a circuit breaker in the local gateway's
        # health tracker: while it is OPEN a partitioned site costs
        # nothing instead of a full consumer timeout per query.
        health = self.gateway.health
        health_key = f"gma://{site}"
        if not health.allow_request(health_key):
            self.stats.inc("remote_short_circuits")
            span["short_circuited"] = True
            if self.cache_remote and self.gateway.policy.serve_stale_on_open:
                stale = self.gateway.cache.lookup_stale(cache_key_url, sql)
                if stale is not None:
                    self.stats.inc("remote_stale_served")
                    span["stale"] = True
                    return RemoteResult(
                        columns=list(stale.columns),
                        rows=[list(r) for r in stale.rows],
                        statuses=[
                            {
                                "url": cache_key_url,
                                "ok": True,
                                "from_cache": True,
                                "degraded": True,
                            }
                        ],
                    )
            entry = health.health(health_key)
            raise RemoteQueryError(
                f"circuit open for site {site!r} until t={entry.open_until:.1f}s "
                f"(last error: {entry.last_error or 'unknown'})"
            )
        # Single-flight: an identical query to this site already in the
        # air answers both callers with one consumer round-trip; the
        # per-source concurrency cap queues excess requests to one
        # remote gateway in virtual time.
        dispatcher = self.gateway.dispatcher
        flight = dispatcher.join_flight(cache_key_url, sql)
        if flight is not None:
            self.stats.inc("remote_coalesced")
            span["coalesced"] = True
            if isinstance(flight.error, OverloadError):
                # The shared flight was shed by the remote gateway:
                # joiners get the same typed shed, not a generic failure.
                raise flight.error
            if flight.error is not None:
                raise RemoteQueryError(str(flight.error)) from flight.error
            shared = flight.value
            return RemoteResult(
                columns=list(shared.columns),
                rows=[list(r) for r in shared.rows],
                statuses=[dict(s, coalesced=True) for s in shared.statuses],
                producer=shared.producer,
            )
        try:
            result = dispatcher.run_flight(
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
        except RemoteQueryFailure as exc:
            health.record_failure(health_key, str(exc))
            raise RemoteQueryError(str(exc)) from exc
        health.record_success(health_key)
        if result.remote_trace_id:
            span["remote_trace"] = result.remote_trace_id
        if self.cache_remote:
            self.gateway.cache.store(cache_key_url, sql, result.columns, result.rows)
        return result

    def query_remote_all(
        self,
        sites: Sequence[str],
        sql: str,
        *,
        mode: str = "cached_ok",
        max_age: float | None = None,
        principal: Principal = ANONYMOUS,
    ) -> dict[str, RemoteResult | Exception]:
        """Scatter one query across several sites concurrently.

        Each site goes through the full :meth:`query_remote` path (CGSL,
        remote-answer cache, circuit breaker, single-flight) as its own
        concurrent branch, so the gather costs the slowest site's
        round-trip in virtual time.  Returns per-site results keyed in
        ``sites`` order; a site that fails maps to its exception rather
        than aborting the rest.
        """
        sites = list(sites)

        def member(site: str):
            return lambda: self.query_remote(
                site, sql, mode=mode, max_age=max_age, principal=principal
            )

        outcomes = self.gateway.dispatcher.run([member(s) for s in sites])
        return {
            site: (o.value if o.error is None else o.error)
            for site, o in zip(sites, outcomes)
        }

    def known_sites(self) -> list[str]:
        """All sites with a registered producer (for the console)."""
        return sorted({p.site for p in self.directory.list_producers()})
