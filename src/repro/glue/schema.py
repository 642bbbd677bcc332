"""GLUE schema definition.

A :class:`GlueSchema` is a registry of :class:`GlueGroup` definitions,
each a named, ordered set of typed :class:`GlueField` attributes with
canonical units.  The standard schema below follows the GLUE 1.x
conceptual model the paper cites (Compute Elements, Storage Elements,
Network Elements and the host-level groups underneath them), trimmed to
the monitoring attributes GridRM's drivers harvest.

Every GLUE group maps one-to-one onto a queryable SQL "table"; the
``SchemaManager`` serves these definitions to drivers at connection time
(paper Figure 5: "Schema is cached when the connection is created").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Field type keywords, aligned with the SQL engine's column types.
FIELD_TYPES = ("TEXT", "INTEGER", "REAL", "BOOLEAN", "TIMESTAMP")


@dataclass(frozen=True)
class GlueField:
    """One attribute of a GLUE group.

    Attributes:
        name: CamelCase attribute name (``ClockSpeedMHz``).
        type: one of :data:`FIELD_TYPES`.
        unit: canonical unit string ("MB", "MHz", "percent", ""), used by
            the mapping layer for automatic unit conversion.
        description: human-readable meaning, surfaced in the console.
    """

    name: str
    type: str = "TEXT"
    unit: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in FIELD_TYPES:
            raise ValueError(f"bad field type {self.type!r} for {self.name!r}")


@dataclass(frozen=True)
class GlueGroup:
    """A GLUE group — the relational-table analogue clients SELECT from."""

    name: str
    fields: tuple[GlueField, ...]
    description: str = ""

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field in group {self.name!r}")

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> GlueField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"no field {name!r} in group {self.name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def column_types(self) -> list[str]:
        return [f.type for f in self.fields]


class GlueSchema:
    """A versioned collection of groups."""

    def __init__(self, version: str, groups: Iterable[GlueGroup] = ()) -> None:
        self.version = version
        self._groups: dict[str, GlueGroup] = {}
        for g in groups:
            self.add_group(g)

    def add_group(self, group: GlueGroup) -> None:
        if group.name in self._groups:
            raise ValueError(f"group already defined: {group.name!r}")
        self._groups[group.name] = group

    def group(self, name: str) -> GlueGroup:
        g = self._groups.get(name)
        if g is None:
            # Case-insensitive lookup: clients write "processor" freely.
            lowered = name.lower()
            for key, value in self._groups.items():
                if key.lower() == lowered:
                    return value
            raise KeyError(f"no GLUE group named {name!r}")
        return g

    def has_group(self, name: str) -> bool:
        try:
            self.group(name)
            return True
        except KeyError:
            return False

    def group_names(self) -> list[str]:
        return sorted(self._groups)

    def __iter__(self) -> Iterator[GlueGroup]:
        return iter(self._groups.values())

    def __len__(self) -> int:
        return len(self._groups)


def _f(name: str, type_: str = "REAL", unit: str = "", desc: str = "") -> GlueField:
    return GlueField(name=name, type=type_, unit=unit, description=desc)


def standard_schema() -> GlueSchema:
    """Build a fresh copy of the standard GridRM GLUE schema."""
    host_key = (
        _f("HostName", "TEXT", "", "unique host name within the site"),
        _f("SiteName", "TEXT", "", "owning Grid site"),
        _f("Timestamp", "TIMESTAMP", "s", "sample time (virtual seconds)"),
    )
    groups = [
        GlueGroup(
            "Host",
            host_key
            + (
                _f("UniqueId", "TEXT", "", "site-qualified host identifier"),
                _f("Reachable", "BOOLEAN", "", "host answered its agent"),
                _f("AgentName", "TEXT", "", "agent that served this row"),
            ),
            "Identity and liveness of a monitored host",
        ),
        GlueGroup(
            "Processor",
            host_key
            + (
                _f("Vendor", "TEXT"),
                _f("Model", "TEXT"),
                _f("ClockSpeedMHz", "REAL", "MHz"),
                _f("CPUCount", "INTEGER", "count"),
                _f("LoadAverage1Min", "REAL", "load"),
                _f("LoadAverage5Min", "REAL", "load"),
                _f("LoadAverage15Min", "REAL", "load"),
                _f("CPUUtilization", "REAL", "percent", "busy fraction 0-100"),
                _f("CPUIdle", "REAL", "percent"),
                _f("CPUUser", "REAL", "percent"),
                _f("CPUSystem", "REAL", "percent"),
            ),
            "Per-host processor configuration and load",
        ),
        GlueGroup(
            "MainMemory",
            host_key
            + (
                _f("RAMSizeMB", "REAL", "MB"),
                _f("RAMAvailableMB", "REAL", "MB"),
                _f("VirtualSizeMB", "REAL", "MB"),
                _f("VirtualAvailableMB", "REAL", "MB"),
                _f("BuffersMB", "REAL", "MB"),
                _f("CachedMB", "REAL", "MB"),
            ),
            "Physical and virtual memory state",
        ),
        GlueGroup(
            "OperatingSystem",
            host_key
            + (
                _f("Name", "TEXT"),
                _f("Release", "TEXT"),
                _f("Version", "TEXT"),
                _f("UptimeSeconds", "REAL", "s"),
                _f("ProcessCount", "INTEGER", "count"),
                _f("UserCount", "INTEGER", "count"),
            ),
            "Operating system identity and uptime",
        ),
        GlueGroup(
            "Architecture",
            host_key
            + (
                _f("PlatformType", "TEXT"),
                _f("SMPSize", "INTEGER", "count", "processors per node"),
            ),
            "Hardware platform",
        ),
        GlueGroup(
            "FileSystem",
            host_key
            + (
                _f("Name", "TEXT"),
                _f("Root", "TEXT"),
                _f("SizeMB", "REAL", "MB"),
                _f("AvailableSpaceMB", "REAL", "MB"),
                _f("ReadOnly", "BOOLEAN"),
                _f("Type", "TEXT"),
            ),
            "Mounted file systems (one row per mount)",
        ),
        GlueGroup(
            "NetworkAdapter",
            host_key
            + (
                _f("Name", "TEXT"),
                _f("IPAddress", "TEXT"),
                _f("MTU", "INTEGER", "bytes"),
                _f("BandwidthMbps", "REAL", "Mbps"),
                _f("BytesReceived", "REAL", "bytes"),
                _f("BytesSent", "REAL", "bytes"),
                _f("PacketsReceived", "REAL", "count"),
                _f("PacketsSent", "REAL", "count"),
                _f("ErrorsIn", "REAL", "count"),
                _f("ErrorsOut", "REAL", "count"),
            ),
            "Network interfaces and traffic counters",
        ),
        GlueGroup(
            "Process",
            host_key
            + (
                _f("PID", "INTEGER", "count"),
                _f("Name", "TEXT"),
                _f("State", "TEXT"),
                _f("CPUPercent", "REAL", "percent"),
                _f("MemoryPercent", "REAL", "percent"),
                _f("Owner", "TEXT"),
            ),
            "Running processes (fine-grained sources only)",
        ),
        GlueGroup(
            "NetworkForecast",
            host_key
            + (
                _f("Resource", "TEXT", "", "forecast subject (cpu/latency/bandwidth)"),
                _f("MeasuredValue", "REAL"),
                _f("ForecastValue", "REAL"),
                _f("ForecastError", "REAL", "", "MAE of the winning predictor"),
                _f("Method", "TEXT", "", "winning predictor name"),
                _f("PeerHost", "TEXT", "", "far end for network forecasts"),
            ),
            "NWS-style measurements with forecasts",
        ),
        GlueGroup(
            "LogEvent",
            host_key
            + (
                _f("EventTime", "TIMESTAMP", "s"),
                _f("Program", "TEXT"),
                _f("EventName", "TEXT"),
                _f("Level", "TEXT"),
                _f("Message", "TEXT"),
            ),
            "Instrumentation events (NetLogger-style ULM records)",
        ),
        GlueGroup(
            "Job",
            host_key
            + (
                _f("JobId", "TEXT"),
                _f("Queue", "TEXT"),
                _f("Owner", "TEXT"),
                _f("State", "TEXT"),
                _f("CPUSeconds", "REAL", "s"),
                _f("WallSeconds", "REAL", "s"),
                _f("NodeCount", "INTEGER", "count"),
            ),
            "Batch jobs (cluster management sources, e.g. SCMS)",
        ),
        GlueGroup(
            "GatewayMetrics",
            host_key
            + (
                _f("Name", "TEXT", "", "dotted instrument name"),
                _f("Kind", "TEXT", "", "counter / histogram"),
                _f("Value", "REAL", "", "counter value; histogram mean"),
                _f("Count", "INTEGER", "count", "histogram sample count"),
                _f("P50", "REAL", "", "50th percentile (histograms)"),
                _f("P95", "REAL", "", "95th percentile (histograms)"),
                _f("P99", "REAL", "", "99th percentile (histograms)"),
            ),
            "The gateway's own metrics registry (self-monitoring driver)",
        ),
    ]
    return GlueSchema(version="GLUE-1.1-gridrm", groups=groups)


#: Shared immutable-by-convention standard schema instance.
STANDARD_SCHEMA = standard_schema()
