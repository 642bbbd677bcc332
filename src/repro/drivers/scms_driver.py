"""JDBC-SCMS driver.

Serves Processor / MainMemory / OperatingSystem / Host rows for every
node an SCMS master manages, and the ``Job`` group from its batch queue.
Granularity sits between SNMP and Ganglia: the protocol is sectioned
(one CPU/MEM/NODE request per group rather than one OID per field or one
dump for everything), which is exactly the middle data point experiment
E3 needs.
"""

from __future__ import annotations

from repro.agents.scms import SCMS_PORT
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast

#: GLUE group -> SCMS section command.
_SECTION = {
    "Processor": "CPU",
    "MainMemory": "MEM",
    "OperatingSystem": "NODE",
    "Host": "NODE",
}


def parse_scms_section(text: str) -> dict[str, dict[str, str]]:
    """Parse ``node.key value`` lines into {node: {key: value}}."""
    out: dict[str, dict[str, str]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("ERROR"):
            continue
        left, _, value = line.partition(" ")
        node, _, key = left.partition(".")
        if node and key:
            out.setdefault(node, {})[key] = value
    return out


def parse_scms_queue(text: str) -> list[dict[str, str]]:
    """Parse ``key=value ...`` job lines."""
    jobs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("ERROR"):
            continue
        fields: dict[str, str] = {}
        for part in line.split():
            key, sep, value = part.partition("=")
            if sep:
                fields[key] = value
        if fields:
            jobs.append(fields)
    return jobs


def _complete(records: list[dict[str, str]]) -> list[dict[str, str]]:
    """Every node (or job) of one reply reports the same keys; a ragged
    reply was cut short on the way."""
    if len({frozenset(r) for r in records}) > 1:
        raise ValueError("ragged SCMS reply: records differ in their keys")
    return records


class ScmsDriver(GridRmDriver):
    """SCMS cluster-management data-source driver."""

    protocol = "scms"
    default_port = SCMS_PORT
    display_name = "JDBC-SCMS"

    def build_mapping(self) -> SchemaMapping:
        common = lambda: [  # noqa: E731
            MappingRule("HostName", "_node"),
            MappingRule("SiteName", "_site"),
            MappingRule("Timestamp", "_time"),
        ]
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "Host",
                    common()
                    + [
                        MappingRule(
                            "UniqueId", None, transform=lambda r: f"{r['_node']}#scms"
                        ),
                        MappingRule(
                            "Reachable", "alive", transform=lambda v: v == "1"
                        ),
                        MappingRule("AgentName", None, transform=lambda r: "scms-master"),
                    ],
                ),
                GroupMapping(
                    "Processor",
                    common()
                    + [
                        MappingRule("CPUCount", "ncpu"),
                        MappingRule("ClockSpeedMHz", "mhz", unit="MHz"),
                        MappingRule("LoadAverage1Min", "load1"),
                        MappingRule("LoadAverage5Min", "load5"),
                        MappingRule("LoadAverage15Min", "load15"),
                        MappingRule("CPUUser", "user"),
                        MappingRule("CPUSystem", "sys"),
                        MappingRule("CPUIdle", "idle"),
                        MappingRule(
                            "CPUUtilization",
                            "idle",
                            transform=lambda v: 100.0 - float(v),
                        ),
                    ],
                ),
                GroupMapping(
                    "MainMemory",
                    common()
                    + [
                        MappingRule("RAMSizeMB", "memtotal"),
                        MappingRule("RAMAvailableMB", "memfree"),
                        MappingRule("VirtualSizeMB", "swaptotal"),
                        MappingRule("VirtualAvailableMB", "swapfree"),
                    ],
                ),
                GroupMapping(
                    "OperatingSystem",
                    common()
                    + [
                        MappingRule("Name", "os"),
                        MappingRule("Release", "release"),
                        MappingRule("UptimeSeconds", "uptime"),
                        MappingRule("ProcessCount", "nproc"),
                    ],
                ),
                GroupMapping(
                    "Job",
                    [
                        MappingRule("HostName", "node"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule("JobId", "jobid"),
                        MappingRule("Queue", "queue"),
                        MappingRule("Owner", "owner"),
                        MappingRule("State", "state"),
                        MappingRule("CPUSeconds", "cpusec"),
                        MappingRule("WallSeconds", "wallsec"),
                        MappingRule("NodeCount", "nodes"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def hello(self, url: JdbcUrl):
        return not (yield "NODES").startswith("ERROR")

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        if group == "Job":
            return _complete(parse_scms_queue((yield "QUEUE")))
        nodes = parse_scms_section((yield _SECTION[group]))
        return _complete([{**nodes[node], "_node": node} for node in sorted(nodes)])
