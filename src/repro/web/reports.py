"""Site reports over recorded history.

The paper's introduction motivates the homogeneous view with high-level
tools — "intelligent system monitoring, scheduling, load-balancing".
This module is the monitoring-report consumer: it reads only the
gateway's HistoryStore (never the agents, and the store only through
``HistoryStore.since``, never its tables), so reports are free of
resource intrusion, and produces the tables an era site operator put on
the group web page:

* :func:`utilisation_report` — per-host load/CPU statistics over a window;
* :func:`capacity_report` — site totals (CPUs, memory, disk) from the
  latest sample per host;
* :func:`availability_report` — per-source reachability from poll history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway


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
    for row in gateway.history.since("Processor", since):
        host = row.get("HostName")
        load = row.get("LoadAverage1Min")
        if host is None or not isinstance(load, (int, float)):
            continue
        hosts.setdefault(host, []).append(float(load))
        util = row.get("CPUUtilization")
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


def _latest_per_host(rows: list[dict], value_keys: list[str]) -> dict[str, dict]:
    latest: dict[str, dict] = {}
    for row in rows:
        host = row.get("HostName")
        t = row.get("RecordedAt")
        if host is None or t is None:
            continue
        if host not in latest or t >= latest[host]["RecordedAt"]:
            latest[host] = row
    return latest


def capacity_report(gateway: "Gateway") -> CapacitySummary:
    """Aggregate the newest recorded sample of each host."""
    history = gateway.history
    proc = _latest_per_host(history.since("Processor", None), ["CPUCount"])
    mem = _latest_per_host(history.since("MainMemory", None), ["RAMSizeMB"])
    total_disk = free_disk = 0.0
    # FileSystem rows are one per mount; key on (host, Name).
    newest: dict[tuple, dict] = {}
    for row in history.since("FileSystem", None):
        key = (row.get("HostName"), row.get("Name"))
        t = row.get("RecordedAt")
        if None in key or t is None:
            continue
        if key not in newest or t >= newest[key]["RecordedAt"]:
            newest[key] = row
    for row in newest.values():
        if isinstance(row.get("SizeMB"), (int, float)):
            total_disk += row["SizeMB"]
        if isinstance(row.get("AvailableSpaceMB"), (int, float)):
            free_disk += row["AvailableSpaceMB"]
    hosts = set(proc) | set(mem)
    return CapacitySummary(
        hosts=len(hosts),
        total_cpus=sum(
            int(r["CPUCount"]) for r in proc.values()
            if isinstance(r.get("CPUCount"), int)
        ),
        total_ram_mb=sum(
            float(r["RAMSizeMB"]) for r in mem.values()
            if isinstance(r.get("RAMSizeMB"), (int, float))
        ),
        free_ram_mb=sum(
            float(r["RAMAvailableMB"]) for r in mem.values()
            if isinstance(r.get("RAMAvailableMB"), (int, float))
        ),
        total_disk_mb=total_disk,
        free_disk_mb=free_disk,
    )


@dataclass
class SourceAvailability:
    """One data source's polled reachability."""

    url: str
    polls: int
    ok: int

    @property
    def ratio(self) -> float:
        return self.ok / self.polls if self.polls else 0.0

    def format(self) -> str:
        return f"{self.url:45s} {self.ok}/{self.polls} ({self.ratio:6.1%})"


class AvailabilityTracker:
    """Counts per-source poll outcomes as queries flow through a gateway.

    Attach once; it wraps the gateway's query result handling by
    observing SourceStatus entries (install registers a listener on the
    RequestManager via monkey-free composition: the gateway exposes the
    statuses of every query through its per-source DataSource record, so
    the tracker polls those records on a schedule instead of intercepting
    calls).
    """

    def __init__(self, gateway: "Gateway", *, sample_period: float = 30.0) -> None:
        self.gateway = gateway
        self._counts: dict[str, list[int]] = {}  # url -> [ok, polls]
        self._last_seen: dict[str, float] = {}
        gateway.network.clock.call_every(sample_period, self.sample)

    def sample(self) -> None:
        """Record each source's latest poll outcome (at most once per poll)."""
        for source in self.gateway.sources():
            if source.last_polled is None:
                continue
            url = str(source.url)
            if self._last_seen.get(url) == source.last_polled:
                continue
            self._last_seen[url] = source.last_polled
            counts = self._counts.setdefault(url, [0, 0])
            counts[1] += 1
            if source.last_ok:
                counts[0] += 1

    def report(self) -> list[SourceAvailability]:
        return [
            SourceAvailability(url=url, polls=polls, ok=ok)
            for url, (ok, polls) in sorted(self._counts.items())
        ]


def availability_report(tracker: AvailabilityTracker) -> list[SourceAvailability]:
    """Convenience alias matching the other report entry points."""
    return tracker.report()
