"""Gateway-side GMA producer.

Listens on the gateway host and answers remote query requests: the paper
deploys each gateway as a servlet reachable from other sites (Figure 1);
the producer is that servlet's query endpoint.  Security decisions are
made *here*, by the owning gateway (paper §2: "In a hierarchy of GridRM
Gateways, security decisions can be deferred to the local Gateway
responsible for a given resource"), against a ``remote:<site>`` role
principal.

Wire protocol::

    {"op": "query", "urls": [...], "sql": "...", "mode": "cached_ok",
     "from_site": "site-b", "max_age": 10.0}
      -> {"ok": True, "columns": [...], "rows": [...],
          "status_keys": [...], "status_rows": [[...], ...]}
    {"op": "groups"} -> {"ok": True, "groups": [...]}
    {"op": "sources"} -> {"ok": True, "urls": [...]}
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core.deadline import Deadline
from repro.core.errors import DeadlineExceededError, GridRmError, OverloadError
from repro.core.request_manager import QueryMode
from repro.core.security import Principal
from repro.dbapi.exceptions import SQLException
from repro.simnet.network import Address
from repro.sql.errors import SqlError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway

PRODUCER_PORT = 8300


class GatewayProducer:
    """The gateway's Global-layer query endpoint."""

    def __init__(self, gateway: "Gateway", *, port: int = PRODUCER_PORT) -> None:
        self.gateway = gateway
        self.address = Address(gateway.host, port)
        self.requests_served = 0
        gateway.network.listen(self.address, self._handle)

    def close(self) -> None:
        """Unbind the query endpoint (gateway shutdown / crash)."""
        self.gateway.network.close(self.address)

    def _handle(self, payload: Any, src: Address) -> dict[str, Any]:
        self.requests_served += 1
        if not isinstance(payload, dict) or "op" not in payload:
            return {"ok": False, "error": "malformed request"}
        op = payload["op"]
        try:
            if op == "query":
                return self._query(payload)
            if op == "groups":
                return {"ok": True, "groups": self.gateway.schema_manager.group_names()}
            if op == "sources":
                return {
                    "ok": True,
                    "urls": [str(s.url) for s in self.gateway.sources() if s.enabled],
                }
        except OverloadError as exc:
            # This gateway shed the query to protect itself.  The refusal
            # crosses the wire as a *typed* shed (not a generic failure)
            # so the consumer raises OverloadError — never a breaker
            # penalty or failover storm against a merely-busy site.
            return {
                "ok": False,
                "shed": True,
                "retry_after": exc.retry_after,
                "query_class": exc.query_class,
                "error": str(exc),
            }
        except (GridRmError, SQLException, SqlError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _query(self, payload: dict[str, Any]) -> dict[str, Any]:
        urls = payload.get("urls") or [
            str(s.url) for s in self.gateway.sources() if s.enabled
        ]
        sql = payload["sql"]
        mode = QueryMode(payload.get("mode", "cached_ok"))
        from_site = payload.get("from_site", "unknown")
        principal = Principal.with_roles(f"remote:{from_site}", "remote")
        # The wire carries the *remaining* budget as a relative number of
        # seconds (clocks are per-simulation here, but real deployments
        # cannot assume synchronised clocks either); re-anchor it against
        # our own clock so every local hop inherits what is left.
        budget = payload.get("deadline_budget")
        deadline = None
        if budget is not None:
            if budget <= 0:
                raise DeadlineExceededError(
                    f"remote query from {from_site!r} arrived with no budget left"
                )
            deadline = Deadline.after(self.gateway.network.clock, budget)
        # Span context from the consumer's wire envelope: the local trace
        # records where in the *caller's* trace this query hangs, and the
        # response carries our trace id back for cross-site correlation.
        trace_ctx = payload.get("trace_ctx")
        result = self.gateway.query(
            urls,
            sql,
            mode=mode,
            principal=principal,
            max_age=payload.get("max_age"),
            deadline=deadline,
            trace_parent=trace_ctx if isinstance(trace_ctx, dict) else None,
            query_class=payload.get("query_class"),
        )
        # Batched wire shape: column labels (result columns AND status
        # keys) cross the wire once per response; every row and status is
        # a positional list.  For an N-source status list that saves
        # N-1 copies of the key strings — bandwidth-delay charging sees
        # the honest, smaller payload.  (The consumer zips keys to rows
        # positionally, so extending the key list is wire-compatible.)
        return {
            "ok": True,
            "trace_id": result.trace_id,
            "columns": result.columns,
            "rows": result.rows,
            "status_keys": [
                "url", "ok", "rows", "from_cache", "degraded", "shed", "error"
            ],
            "status_rows": [
                [s.url, s.ok, s.rows, s.from_cache, s.degraded, s.shed, s.error]
                for s in result.statuses
            ],
        }
