"""The self-monitoring driver: the monitor monitors itself.

R-GMA's stance — *everything* is a queryable relation — applied to the
gateway's own telemetry: :class:`GatewayMetricsDriver` is a regular DDK
driver (``grm://`` protocol) whose "agent" is the in-process
:class:`~repro.obs.metrics.MetricsRegistry`.  It goes through the normal
stack — DriverManager selection, connection pool, GLUE mapping,
SQL execution — so

    SELECT Name, Value FROM GatewayMetrics WHERE Name LIKE 'requests.%'

against ``jdbc:grm://localhost/gateway`` behaves exactly like any other
GLUE query, including being cacheable, history-recorded and traceable.
Probing costs zero network traffic: the registry lives in the gateway
process, so the driver answers liveness locally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NO_TRACER
from repro.simnet.network import Network
from repro.sql import ast_nodes as sql_ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

#: Nominal port for the in-process metrics endpoint (never dialled).
GRM_PORT = 9100


class GatewayMetricsDriver(GridRmDriver):
    """Serves the gateway's own :class:`MetricsRegistry` as the
    ``GatewayMetrics`` GLUE group."""

    protocol = "grm"
    default_port = GRM_PORT
    display_name = "JDBC-GRM (self-monitor)"

    def __init__(
        self,
        network: Network,
        *,
        gateway_host: str = "gateway",
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
        site: str = "",
    ) -> None:
        super().__init__(network, gateway_host=gateway_host)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._self_scans = self.registry.counter("obs.self_scans")
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.site = site

    def build_mapping(self) -> SchemaMapping:
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "GatewayMetrics",
                    [
                        MappingRule("HostName", "_host"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule("Name", "name"),
                        MappingRule("Kind", "kind"),
                        MappingRule("Value", "value"),
                        MappingRule("Count", "count"),
                        MappingRule("P50", "p50"),
                        MappingRule("P95", "p95"),
                        MappingRule("P99", "p99"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def probe(self, url: JdbcUrl, *, timeout: float = 1.0) -> bool:
        """Liveness is local: the registry is in-process, so this driver
        overrides :meth:`probe` itself (the escape for an agent with no
        wire) and answers without any round-trip."""
        self.stats["probes"] += 1
        return url.host in ("localhost", self.gateway_host)

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        yield from ()  # no wire: the conversation asks nothing
        host = self.gateway_host
        site = self.site or self.site_of(host)
        with self.tracer.span("metrics.scan", instruments=len(self.registry)) as span:
            rows = list(self.registry.as_rows())
            # Fabric-wide ``net.*`` counters live in the network's own
            # registry; fold them in unless they are one and the same.
            if self.network.metrics is not self.registry:
                rows.extend(self.network.metrics.as_rows())
            records = [{**row, "_host": host, "_site": site} for row in rows]
            span["rows"] = len(records)
            self._self_scans.inc()
        return records
