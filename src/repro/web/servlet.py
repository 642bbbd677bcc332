"""The gateway "servlet" (paper Figure 1: "GridRM Gateway (Servlet)").

The original gateways are deployed as Java servlets: web-reachable
endpoints serving both the JSP management pages and programmatic access.
This module is the equivalent over the simulated network: a tiny
HTTP-style request handler bound to the gateway host that serves

* ``GET /``             — HTML console (tree view + driver panel);
* ``GET /tree``         — plain-text tree view;
* ``GET /drivers``      — driver registration panel;
* ``GET /sources``      — the configured data-source URLs;
* ``GET /query?url=<jdbc-url>&sql=<sql>[&mode=<mode>][&session=<token>]``
  — run a query as the session's principal, answer rows as
  tab-separated text;
* ``GET /plot?group=G&field=F[&host=H]`` — ASCII history plot;
* ``GET /health``       — per-source circuit-breaker scoreboard;
* ``GET /analyze``      — static-analysis findings (driver conformance,
  unloadable persisted specs, invalid alert SQL);
* ``GET /stats``        — gateway statistics;
* ``GET /metrics``      — the metrics registry, one instrument per line;
* ``GET /trace``        — digest of retained query traces;
* ``GET /trace/<qid>``  — one query's full span tree;
* ``GET /durability``   — WAL / checkpoint / recovery state of the
  durable history engine;
* ``GET /overload``     — admission-control pressure state, shed ledger
  and adaptive concurrency limits.  A request the gateway sheds comes
  back as ``503`` with the retry-after hint;
* ``GET /streams``      — continuous-query hub state: live
  subscriptions, push/replay counters and per-subscription buffers.

Requests and responses are simple strings ("GET /path?query"), which is
all the simulated transport needs while exercising the same parsing,
routing and error-handling logic a real servlet would.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING
from urllib.parse import parse_qs, unquote

from repro.core.errors import GridRmError, OverloadError
from repro.core.request_manager import QueryMode
from repro.dbapi.exceptions import SQLException
from repro.simnet.network import Address
from repro.sql.errors import SqlError
from repro.web.console import Console

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway

SERVLET_PORT = 8080


def _status(code: int, body: str) -> str:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        500: "Error",
        503: "Service Unavailable",
    }[code]
    return f"HTTP/1.0 {code} {reason}\n\n{body}"


class GatewayServlet:
    """HTTP-style front end for one gateway."""

    def __init__(self, gateway: "Gateway", *, port: int = SERVLET_PORT) -> None:
        self.gateway = gateway
        self.console = Console(gateway)
        self.address = Address(gateway.host, port)
        self.requests_served = 0
        gateway.network.listen(self.address, self._handle)

    # ------------------------------------------------------------------
    def _handle(self, payload: Any, src: Address) -> str:
        self.requests_served += 1
        line = str(payload).strip().splitlines()[0] if str(payload).strip() else ""
        parts = line.split()
        if len(parts) < 2 or parts[0].upper() != "GET":
            return _status(400, "only GET <path> is supported")
        target = parts[1]
        path, _, query = target.partition("?")
        params = {k: v[0] for k, v in parse_qs(query, keep_blank_values=True).items()}
        try:
            return self._route(path, params)
        except OverloadError as exc:
            # The admission controller shed this request: 503 with the
            # retry-after hint, the HTTP face of the typed shed.
            return _status(503, f"overloaded: {exc} (retry after {exc.retry_after:.1f}s)")
        except (GridRmError, SQLException, SqlError) as exc:
            return _status(500, f"{type(exc).__name__}: {exc}")

    def _route(self, path: str, params: dict[str, str]) -> str:
        if path in ("/", "/index.html"):
            return _status(200, self.console.html())
        if path == "/tree":
            return _status(200, self.console.tree_view())
        if path == "/drivers":
            return _status(200, self.console.driver_panel())
        if path == "/sources":
            lines = [str(s.url) for s in self.gateway.sources()]
            return _status(200, "\n".join(lines))
        if path == "/stats":
            import pprint

            return _status(200, pprint.pformat(self.gateway.stats()))
        if path == "/alerts":
            return _status(200, self.console.alerts_panel())
        if path == "/health":
            return _status(200, self.console.health_panel())
        if path == "/analyze":
            return _status(200, self.console.analysis_panel())
        if path == "/metrics":
            return _status(200, self.console.metrics_panel())
        if path == "/trace":
            return _status(200, self.console.trace_panel())
        if path == "/durability":
            return _status(200, self.console.durability_panel())
        if path == "/overload":
            return _status(200, self.console.overload_panel())
        if path == "/streams":
            return _status(200, self.console.streams_panel())
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            if self.gateway.tracer.get(trace_id) is None:
                return _status(404, f"no such trace: {trace_id}")
            return _status(200, self.console.trace_panel(trace_id))
        if path == "/report":
            return self._report()
        if path == "/query":
            return self._query(params)
        if path == "/plot":
            return self._plot(params)
        return _status(404, f"no such path: {path}")

    def _query(self, params: dict[str, str]) -> str:
        url = unquote(params.get("url", ""))
        sql = unquote(params.get("sql", ""))
        if not url or not sql:
            return _status(400, "query needs url= and sql=")
        mode_text = params.get("mode", "realtime")
        try:
            mode = QueryMode(mode_text)
        except ValueError:
            return _status(400, f"unknown mode {mode_text!r}")
        # The ACIL owns the session check for every client channel: a
        # secured gateway refuses a tokenless request (SessionError).
        principal = self.gateway.acil.resolve_principal(params.get("session"))
        result = self.gateway.query([url], sql, mode=mode, principal=principal)
        lines = ["\t".join(result.columns)]
        for row in result.rows:
            lines.append("\t".join("" if v is None else str(v) for v in row))
        lines.append(
            f"# sources ok={result.ok_sources} failed={result.failed_sources} "
            f"elapsed={result.elapsed:.4f}s mode={result.mode.value}"
        )
        for s in result.statuses:
            if not s.ok:
                lines.append(f"# failed {s.url}: {s.error}")
        return _status(200, "\n".join(lines))

    def _report(self) -> str:
        from repro.web.reports import capacity_report, utilisation_report

        lines = ["Site capacity:"]
        lines.append("  " + capacity_report(self.gateway).format())
        lines.append("Host utilisation (recorded history):")
        entries = utilisation_report(self.gateway)
        if not entries:
            lines.append("  (no Processor history recorded yet)")
        for entry in entries:
            lines.append("  " + entry.format())
        return _status(200, "\n".join(lines))

    def _plot(self, params: dict[str, str]) -> str:
        group = params.get("group", "")
        field = params.get("field", "")
        if not group or not field:
            return _status(400, "plot needs group= and field=")
        body = self.console.plot(
            group,
            field,
            host=params.get("host") or None,
            source_url=unquote(params["source"]) if "source" in params else None,
        )
        return _status(200, body)


def http_get(network, from_host: str, servlet: Address, target: str) -> tuple[int, str]:
    """Client helper: GET ``target`` and split the status/body."""
    raw = str(network.request(from_host, servlet, f"GET {target}"))
    head, _, body = raw.partition("\n\n")
    try:
        code = int(head.split()[1])
    except (IndexError, ValueError):
        code = 500
    return code, body
