"""JDBC-NWS driver.

Serves the ``NetworkForecast`` GLUE group from a Network Weather Service
sensor: one native ``RESOURCES`` round-trip to enumerate what the sensor
measures, then one ``FORECAST`` request per resource.  Responses are
plain ``KEY=VALUE`` text the driver parses — the paper files NWS with
Ganglia under coarse-grained sources needing real parsing work (§3.3) —
and the resource list is asked once per connection session
(``ask_once``), the per-driver caching policy the paper recommends.
"""

from __future__ import annotations

from typing import Any

from repro.agents.nws import NWS_PORT
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast


def parse_forecast_line(line: str) -> dict[str, str]:
    """Parse one ``KEY=VALUE ...`` forecast response line."""
    out: dict[str, str] = {}
    for part in line.split():
        key, sep, value = part.partition("=")
        if sep:
            out[key] = value
    return out


def _num_or_none(text: str) -> float | None:
    """A forecast number; ``NA`` is the sensor's own "no data yet"."""
    return None if text == "NA" else float(text)


class NwsDriver(GridRmDriver):
    """Network Weather Service data-source driver."""

    protocol = "nws"
    default_port = NWS_PORT
    display_name = "JDBC-NWS"
    ask_once = ("RESOURCES",)

    # ------------------------------------------------------------------
    def build_mapping(self) -> SchemaMapping:
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "NetworkForecast",
                    [
                        MappingRule("HostName", "_host"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "TIME"),
                        MappingRule("Resource", "_resource"),
                        MappingRule("MeasuredValue", "MEASURED"),
                        MappingRule("ForecastValue", "FORECAST"),
                        MappingRule("ForecastError", "MAE"),
                        MappingRule("Method", "METHOD"),
                        MappingRule("PeerHost", "_peer"),
                    ],
                ),
                GroupMapping(
                    "Host",
                    [
                        MappingRule("HostName", "_host"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule(
                            "UniqueId", None, transform=lambda r: f"{r['_host']}#nws"
                        ),
                        MappingRule("Reachable", None, transform=lambda r: True),
                        MappingRule("AgentName", None, transform=lambda r: "nws-sensor"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def hello(self, url: JdbcUrl):
        return not (yield "RESOURCES").startswith("ERROR")

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        if group == "Host":
            return [{"_host": url.host}]
        listing = yield "RESOURCES"
        records: list[dict[str, Any]] = []
        for resource in listing.splitlines():
            if not resource or resource.startswith("ERROR"):
                continue
            line = yield f"FORECAST {resource.replace(':', ' ')}"
            if line.startswith("ERROR"):
                continue
            fields = parse_forecast_line(line)
            name, _, peer = resource.partition(":")
            records.append(
                {
                    "_host": url.host,
                    "_resource": name,
                    "_peer": peer or None,
                    "TIME": _num_or_none(fields["TIME"]),
                    "MEASURED": _num_or_none(fields["MEASURED"]),
                    "FORECAST": _num_or_none(fields["FORECAST"]),
                    "MAE": _num_or_none(fields["MAE"]),
                    "METHOD": fields["METHOD"],
                }
            )
        return records
