"""Gateway-side GMA producer.

Listens on the gateway host and answers remote query requests: the paper
deploys each gateway as a servlet reachable from other sites (Figure 1);
the producer is that servlet's query endpoint.  Security decisions are
made *here*, by the owning gateway (paper §2: "In a hierarchy of GridRM
Gateways, security decisions can be deferred to the local Gateway
responsible for a given resource"), against a ``remote:<site>`` role
principal.

Ops (envelope, refusal and shed forms: :mod:`repro.gma.records`)::

    query    urls, sql, mode, from_site, max_age
             -> trace_id, columns, rows + the batched statuses
    groups   -> groups
    sources  -> urls
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core.request_manager import QueryMode
from repro.core.security import Principal
from repro.gma.records import Fields, Handler, inherit, pack_statuses, serve
from repro.simnet.network import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway

PRODUCER_PORT = 8300


class GatewayProducer:
    """The gateway's Global-layer query endpoint."""

    def __init__(self, gateway: "Gateway", *, port: int = PRODUCER_PORT) -> None:
        self.gateway = gateway
        self.address = Address(gateway.host, port)
        self._ops: dict[str, Handler] = {
            "query": self._query,
            "groups": lambda _: {
                "ok": True, "groups": gateway.schema_manager.group_names()
            },
            "sources": lambda _: {"ok": True, "urls": self._enabled_urls()},
        }
        gateway.network.listen(self.address, self._handle)

    def close(self) -> None:
        """Unbind the query endpoint (gateway shutdown / crash)."""
        self.gateway.network.close(self.address)

    def _handle(self, payload: Any, src: Address) -> dict[str, Any]:
        return serve(self._ops, payload)

    def _enabled_urls(self) -> list[str]:
        return [str(s.url) for s in self.gateway.sources() if s.enabled]

    def _query(self, request: Fields) -> dict[str, Any]:
        urls = request.items("urls", str) or self._enabled_urls()
        sql = request.get("sql", str)
        try:
            mode = QueryMode(request.opt("mode", str) or "cached_ok")
        except ValueError:
            raise request.bad("mode") from None
        from_site = request.opt("from_site", str) or "unknown"
        max_age = request.opt("max_age", float)
        # The caller's trace context: the local trace records where in
        # the *caller's* trace this query hangs, and the reply carries
        # our trace id back for cross-site correlation.
        deadline, trace_parent, query_class = inherit(
            request, self.gateway.network.clock, f"remote query from {from_site!r}"
        )
        result = self.gateway.query(
            urls,
            sql,
            mode=mode,
            principal=Principal.with_roles(f"remote:{from_site}", "remote"),
            max_age=max_age,
            deadline=deadline,
            trace_parent=trace_parent,
            query_class=query_class,
        )
        return {
            "ok": True,
            "trace_id": result.trace_id,
            "columns": result.columns,
            "rows": result.rows,
            **pack_statuses(result.statuses),
        }
