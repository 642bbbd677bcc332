"""GlobalLayer: a gateway's attachment to the GMA fabric.

"Clients are free to connect to any Gateway; requests for remote resource
data are routed through to the Global layer for processing by the gateway
that owns the required data" (paper §1.1).  The GlobalLayer:

* registers the gateway's producer with the GMA directory;
* owns the producer (the site's answers to others) and the consumer (its
  round trips to others);
* answers ``query_remote``: a CGSL check, then the request manager runs
  the owning site's share of the query as one source, ``gma://<site>``.
  A consumer neither knows nor cares whether a source is local: the
  remote share passes the same stages — its answers cached in the local
  gateway's CacheController ("this approach is used between gateways to
  increase scalability by reducing unnecessary requests", §4, E7), its
  health in the local gateway's circuit breakers, so a partitioned or
  dead site is fast-failed (or served stale, flagged degraded) instead
  of adding its full timeout to every multi-site query.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.core.deadline import Deadline
from repro.core.request_manager import Query, QueryMode, QueryResult
from repro.core.security import ANONYMOUS, Principal
from repro.gma.consumer import GatewayConsumer, RemoteQueryFailure
from repro.gma.directory import DirectoryClient, GMADirectory
from repro.gma.producer import PRODUCER_PORT, GatewayProducer
from repro.gma.records import ProducerRecord
from repro.obs.metrics import StatsView
from repro.simnet.network import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway


#: A remote (inter-site) round trip failed: unreachable, refused or out of
#: shape.  :meth:`GlobalLayer.query_remote` answers it as ``error`` statuses.
RemoteQueryError = RemoteQueryFailure


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
            ("remote_queries", "remote_cache_hits"),
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
    ) -> QueryResult:
        """Route a query to the gateway owning ``site``'s resources.

        The local CGSL gates outbound remote queries; the remote FGSL is
        applied by the owning gateway when it executes them.  The rest is
        the request manager's: the site's share runs as one source
        (:meth:`RequestManager.remote`), whose fetch is the consumer's
        round trip, and a site that cannot answer — unreachable, shed,
        short-circuited, out of budget — gives an ``ok=False`` status per
        URL.  ``deadline`` and ``query_class`` ride the hop envelope
        (:mod:`repro.gma.records`).
        """
        self.gateway.cgsl.check(principal, "query_remote")
        fetch = partial(
            self.consumer.query_site, site, sql, urls=urls, mode=mode,
            max_age=max_age, deadline=deadline, query_class=query_class,
        )
        query = Query(sql, QueryMode(mode), max_age, deadline)
        return self.gateway.request_manager.remote(self, site, urls, query, fetch)

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
        ``sites`` order; a site that cannot answer maps to its ``ok=False``
        statuses, and a refused query (CGSL) to its exception, rather than
        aborting the rest.
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
