"""Site reports over recorded history.

The paper's introduction motivates the homogeneous view with high-level
tools — "intelligent system monitoring, scheduling, load-balancing".
This module is the monitoring-report consumer: it reads only the
gateway's HistoryStore (never the agents, and the store only through
``HistoryStore.since`` plus the column layout ``HistoryStore.layout``
gives its rows, never its tables), so reports are free of
resource intrusion, and produces the tables an era site operator put on
the group web page:

* :func:`utilisation_report` — per-host load/CPU statistics over a window;
* :func:`capacity_report` — site totals (CPUs, memory, disk) from the
  latest sample per host.

Per-source reachability is the health tracker's scoreboard
(``Gateway.health``), not a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.sql.database import Row

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway
    from repro.core.history import HistoryStore

@dataclass
class HostUtilisation:
    """One host's load statistics over the report window."""

    host: str
    samples: int
    load_min: float
    load_avg: float
    load_max: float
    util_avg: Optional[float] = None

    def format(self) -> str:
        util = f"{self.util_avg:5.1f}%" if self.util_avg is not None else "    ?"
        return (
            f"{self.host:18s} n={self.samples:<4d} "
            f"load {self.load_min:5.2f}/{self.load_avg:5.2f}/{self.load_max:5.2f} "
            f"cpu {util}"
        )


def utilisation_report(
    gateway: "Gateway", *, since: float | None = None
) -> list[HostUtilisation]:
    """Per-host min/avg/max 1-minute load (plus mean CPU utilisation)
    from recorded Processor history."""
    hosts: dict[str, list[float]] = {}
    utils: dict[str, list[float]] = {}
    history = gateway.history
    at = _slots(history, "Processor")
    host_at, load_at, util_at = at["HostName"], at["LoadAverage1Min"], at["CPUUtilization"]
    for row in history.since("Processor", since):
        host, load, util = row[host_at], row[load_at], row[util_at]
        if host is None or not isinstance(load, (int, float)):
            continue
        hosts.setdefault(host, []).append(float(load))
        if isinstance(util, (int, float)):
            utils.setdefault(host, []).append(float(util))
    out = []
    for host in sorted(hosts):
        loads = hosts[host]
        host_utils = utils.get(host)
        out.append(
            HostUtilisation(
                host=host,
                samples=len(loads),
                load_min=min(loads),
                load_avg=sum(loads) / len(loads),
                load_max=max(loads),
                util_avg=sum(host_utils) / len(host_utils) if host_utils else None,
            )
        )
    return out


@dataclass
class CapacitySummary:
    """Whole-site hardware totals from the latest sample per host."""

    hosts: int
    total_cpus: int
    total_ram_mb: float
    free_ram_mb: float
    total_disk_mb: float
    free_disk_mb: float

    def format(self) -> str:
        return (
            f"hosts={self.hosts} cpus={self.total_cpus} "
            f"ram={self.free_ram_mb:.0f}/{self.total_ram_mb:.0f} MB free "
            f"disk={self.free_disk_mb:.0f}/{self.total_disk_mb:.0f} MB free"
        )


def _slots(history: "HistoryStore", group: str) -> dict[str, int]:
    """Column name -> slot in ``group``'s stored rows, by the store's layout."""
    return {name: i for i, name in enumerate(history.layout(group))}


def _latest(history: "HistoryStore", group: str, *keys: str) -> dict[tuple, Row]:
    """The newest stored row of ``group`` per value of ``keys`` (a row
    with a NULL key or ``RecordedAt`` left out)."""
    at = _slots(history, group)
    slots = [at[k] for k in keys]
    latest: dict[tuple, Row] = {}
    for row in history.since(group, None):
        key = tuple(row[i] for i in slots)
        t = row[-1]
        if None in key or t is None:
            continue
        if key not in latest or t >= latest[key][-1]:
            latest[key] = row
    return latest


def capacity_report(gateway: "Gateway") -> CapacitySummary:
    """Aggregate the newest recorded sample of each host."""
    history = gateway.history
    proc = _latest(history, "Processor", "HostName")
    mem = _latest(history, "MainMemory", "HostName")
    cpus = _slots(history, "Processor")["CPUCount"]
    ram = _slots(history, "MainMemory")
    size, free = ram["RAMSizeMB"], ram["RAMAvailableMB"]
    fs = _slots(history, "FileSystem")
    total_disk = free_disk = 0.0
    # FileSystem rows are one per mount; key on (host, Name).
    for row in _latest(history, "FileSystem", "HostName", "Name").values():
        if isinstance(row[fs["SizeMB"]], (int, float)):
            total_disk += row[fs["SizeMB"]]
        if isinstance(row[fs["AvailableSpaceMB"]], (int, float)):
            free_disk += row[fs["AvailableSpaceMB"]]
    return CapacitySummary(
        hosts=len(set(proc) | set(mem)),
        total_cpus=sum(int(r[cpus]) for r in proc.values() if isinstance(r[cpus], int)),
        total_ram_mb=sum(
            float(r[size]) for r in mem.values() if isinstance(r[size], (int, float))
        ),
        free_ram_mb=sum(
            float(r[free]) for r in mem.values() if isinstance(r[free], (int, float))
        ),
        total_disk_mb=total_disk,
        free_disk_mb=free_disk,
    )