"""JDBC-Ganglia driver.

The coarse-grained counterpart to the SNMP driver: every native fetch
returns the gmond XML dump for the *whole cluster*, which the driver must
parse in full even when the query wants a single metric of a single host
(paper §3.3).  Two mitigations, both from the paper:

* a per-driver TTL response cache around the dump
  ("using caching policies within the plug-in, as appropriate for the
  characteristics of a particular type of data source");
* lazy vs eager parsing — the cache holds the *parsed* records by
  default (eager), or, constructed with ``lazy_parse=True``, the raw XML
  (checked once, on arrival), re-parsed by every query that reads it
  (the trade-off §3.3 names: "how to represent data within the
  ResultSet, including lazy or eager parsing mechanisms").

The XML parser is hand-rolled (attribute-scanning, no recursion beyond
the fixed GANGLIA_XML/CLUSTER/HOST/METRIC nesting) so the measured parse
cost in experiment E3 reflects real string work.
"""

from __future__ import annotations

import re
from typing import Any

from repro.agents.ganglia import GANGLIA_PORT
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import DEFAULT_CACHE_TTL, GridRmDriver, ResponseCache
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast

_TAG_RE = re.compile(r"<(/?)(\w+)((?:\s+\w+=\"[^\"]*\")*)\s*(/?)>")
_ATTR_RE = re.compile(r"(\w+)=\"([^\"]*)\"")


class GangliaXmlError(ValueError):
    """The agent response was not well-formed gmond XML."""


def parse_ganglia_xml(xml: str) -> list[dict[str, Any]]:
    """Parse a gmond dump into one flat record per HOST element.

    Each record maps metric NAME -> typed VAL, plus ``_host``/``_ip``/
    ``_cluster``/``_reported`` pseudo-metrics from the element attributes.
    """
    records: list[dict[str, Any]] = []
    cluster = ""
    current: dict[str, Any] | None = None
    for m in _TAG_RE.finditer(xml):
        closing, tag, attr_text, selfclosing = m.groups()
        if closing:
            if tag == "HOST":
                if current is None:
                    raise GangliaXmlError("</HOST> without <HOST>")
                records.append(current)
                current = None
            continue
        attrs = dict(_ATTR_RE.findall(attr_text))
        if tag == "CLUSTER":
            cluster = attrs.get("NAME", "")
        elif tag == "HOST":
            if current is not None:
                raise GangliaXmlError("nested <HOST>")
            current = {
                "_host": attrs.get("NAME", ""),
                "_ip": attrs.get("IP", ""),
                "_cluster": cluster,
                "_reported": float(attrs.get("REPORTED", "0")),
            }
        elif tag == "METRIC":
            if current is None:
                raise GangliaXmlError("<METRIC> outside <HOST>")
            name = attrs.get("NAME")
            if name is None:
                raise GangliaXmlError("<METRIC> without NAME")
            raw = attrs.get("VAL", "")
            mtype = attrs.get("TYPE", "string")
            value: Any
            if mtype == "string":
                value = raw
            elif mtype.startswith(("uint", "int")):
                value = int(float(raw))
            else:
                value = float(raw)
            current[name] = value
    if current is not None:
        raise GangliaXmlError("unterminated <HOST>")
    return records


class _LazyDump:
    """A well-formed dump kept as text: every read parses it afresh."""

    def __init__(self, xml: str) -> None:
        self.xml = xml

    def __iter__(self):
        return iter(parse_ganglia_xml(self.xml))


class GangliaDriver(GridRmDriver):
    """Coarse-grained Ganglia data-source driver with a TTL dump cache."""

    protocol = "ganglia"
    default_port = GANGLIA_PORT
    display_name = "JDBC-Ganglia"

    def __init__(
        self,
        network,
        *,
        gateway_host: str = "gateway",
        cache_ttl: float = DEFAULT_CACHE_TTL,
        lazy_parse: bool = False,
    ) -> None:
        super().__init__(network, gateway_host=gateway_host)
        self.cache = ResponseCache(network, ttl=cache_ttl)
        self.lazy_parse = lazy_parse

    # ------------------------------------------------------------------
    def build_mapping(self) -> SchemaMapping:
        common = lambda: [  # noqa: E731
            MappingRule("HostName", "_host"),
            MappingRule("SiteName", "_cluster"),
            MappingRule("Timestamp", "_reported"),
        ]
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "Host",
                    common()
                    + [
                        MappingRule(
                            "UniqueId",
                            None,
                            transform=lambda r: f"{r['_host']}#ganglia",
                        ),
                        MappingRule("Reachable", None, transform=lambda r: True),
                        MappingRule("AgentName", None, transform=lambda r: "gmond/2.5"),
                    ],
                ),
                GroupMapping(
                    "Processor",
                    common()
                    + [
                        MappingRule("CPUCount", "cpu_num"),
                        MappingRule("ClockSpeedMHz", "cpu_speed", unit="MHz"),
                        MappingRule("LoadAverage1Min", "load_one"),
                        MappingRule("LoadAverage5Min", "load_five"),
                        MappingRule("LoadAverage15Min", "load_fifteen"),
                        MappingRule("CPUUser", "cpu_user"),
                        MappingRule("CPUSystem", "cpu_system"),
                        MappingRule("CPUIdle", "cpu_idle"),
                        MappingRule(
                            "CPUUtilization",
                            "cpu_idle",
                            transform=lambda v: 100.0 - float(v),
                        ),
                        # Vendor / Model unavailable from gmond -> NULL.
                    ],
                ),
                GroupMapping(
                    "MainMemory",
                    common()
                    + [
                        MappingRule("RAMSizeMB", "mem_total", unit="KB"),
                        MappingRule("RAMAvailableMB", "mem_free", unit="KB"),
                        MappingRule("VirtualSizeMB", "swap_total", unit="KB"),
                        MappingRule("VirtualAvailableMB", "swap_free", unit="KB"),
                        MappingRule("BuffersMB", "mem_buffers", unit="KB"),
                        MappingRule("CachedMB", "mem_cached", unit="KB"),
                    ],
                ),
                GroupMapping(
                    "OperatingSystem",
                    common()
                    + [
                        MappingRule("Name", "os_name"),
                        MappingRule("Release", "os_release"),
                        MappingRule("ProcessCount", "proc_total"),
                    ],
                ),
                GroupMapping(
                    "Architecture",
                    common()
                    + [
                        MappingRule("PlatformType", "machine_type"),
                        MappingRule("SMPSize", "cpu_num"),
                    ],
                ),
                GroupMapping(
                    "NetworkAdapter",
                    common()
                    + [
                        MappingRule("BytesReceived", "bytes_in"),
                        MappingRule("BytesSent", "bytes_out"),
                        MappingRule("PacketsReceived", "pkts_in"),
                        MappingRule("PacketsSent", "pkts_out"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def hello(self, url: JdbcUrl):
        return "<GANGLIA_XML" in (yield "probe")

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        """The whole cluster, whatever was asked: ``self.cache`` makes
        one dump serve every group for ``cache_ttl`` seconds."""
        xml = yield "dump"
        records = parse_ganglia_xml(xml)
        return _LazyDump(xml) if self.lazy_parse else records
