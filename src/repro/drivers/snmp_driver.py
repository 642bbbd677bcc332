"""JDBC-SNMP driver.

The paper's flagship fine-grained driver: each query issues one SNMP GET
whose varbind list contains exactly the OIDs the query touches, so
``SELECT LoadAverage1Min FROM Processor`` moves a few dozen bytes where
Ganglia would ship the whole cluster dump (experiment E3).

Unit friction handled here, matching real UCD/host-resources MIB
conventions: load averages arrive as ``load * 100`` integers, memory in
KB, sysUpTime in TimeTicks (centiseconds), ifSpeed in bits/second.  GLUE
fields with no SNMP equivalent (CPU vendor/model/clock) come out NULL —
the paper's prescribed behaviour for untranslatable data.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.agents import snmp as wire
from repro.dbapi.exceptions import SQLConnectionException, SQLException
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast

#: GLUE group -> { glue field -> (native key, OID) }.
_GROUP_OIDS: dict[str, dict[str, tuple[str, wire.Oid]]] = {
    "Host": {
        "HostName": ("sysName", wire.SYS_NAME),
        "AgentName": ("sysDescr", wire.SYS_DESCR),
    },
    "Processor": {
        "CPUCount": ("hrProcessorCount", wire.HR_PROCESSOR_COUNT),
        "LoadAverage1Min": ("laLoad1", wire.LA_LOAD_1),
        "LoadAverage5Min": ("laLoad5", wire.LA_LOAD_5),
        "LoadAverage15Min": ("laLoad15", wire.LA_LOAD_15),
        "CPUUser": ("ssCpuUser", wire.SS_CPU_USER),
        "CPUSystem": ("ssCpuSystem", wire.SS_CPU_SYSTEM),
        "CPUIdle": ("ssCpuIdle", wire.SS_CPU_IDLE),
        "CPUUtilization": ("ssCpuIdle", wire.SS_CPU_IDLE),
    },
    "MainMemory": {
        "RAMSizeMB": ("memTotalReal", wire.MEM_TOTAL_REAL),
        "RAMAvailableMB": ("memAvailReal", wire.MEM_AVAIL_REAL),
        "VirtualSizeMB": ("memTotalSwap", wire.MEM_TOTAL_SWAP),
        "VirtualAvailableMB": ("memAvailSwap", wire.MEM_AVAIL_SWAP),
        "BuffersMB": ("memBuffer", wire.MEM_BUFFER),
        "CachedMB": ("memCached", wire.MEM_CACHED),
    },
    "OperatingSystem": {
        "Name": ("sysDescr", wire.SYS_DESCR),
        "UptimeSeconds": ("sysUpTime", wire.SYS_UPTIME),
        "ProcessCount": ("hrSystemProcesses", wire.HR_SYSTEM_PROCESSES),
        "UserCount": ("hrSystemUsers", wire.HR_SYSTEM_USERS),
    },
    "NetworkAdapter": {
        "Name": ("ifDescr", wire.IF_DESCR),
        "MTU": ("ifMtu", wire.IF_MTU),
        "BandwidthMbps": ("ifSpeed", wire.IF_SPEED),
        "BytesReceived": ("ifInOctets", wire.IF_IN_OCTETS),
        "BytesSent": ("ifOutOctets", wire.IF_OUT_OCTETS),
        "ErrorsIn": ("ifInErrors", wire.IF_IN_ERRORS),
        "ErrorsOut": ("ifOutErrors", wire.IF_OUT_ERRORS),
    },
}

#: Fields synthesised locally (no OID fetch needed).
_LOCAL_FIELDS = {"HostName", "SiteName", "Timestamp", "UniqueId", "Reachable"}


def _avail_mb(record: dict) -> float | None:
    size, used = record.get("hrStorageSizeMB"), record.get("hrStorageUsedMB")
    if size is None or used is None:
        return None
    return float(size) - float(used)


#: hrSWRunStatus codes -> the host model's process-state letters.
_SWRUN_STATES = {1: "R", 2: "S", 3: "D", 4: "Z"}


def _descale_load(v: Any) -> float:
    return float(v) / 100.0


def _uptime_seconds(v: Any) -> float:
    return float(v) / 100.0  # TimeTicks are centiseconds


def _util_from_idle(v: Any) -> float:
    return 100.0 - float(v)


class SnmpDriver(GridRmDriver):
    """Fine-grained SNMP data-source driver."""

    protocol = "snmp"
    default_port = wire.SNMP_PORT
    display_name = "JDBC-SNMP"

    def __init__(self, network, *, gateway_host: str = "gateway") -> None:
        super().__init__(network, gateway_host=gateway_host)
        # Per-instance, not a class attribute: request ids feed the wire
        # payload, whose repr length feeds the bandwidth-delay model — a
        # process-global counter would make one testbed's timing depend
        # on how many SNMP requests earlier testbeds sent, breaking
        # seeded chaos replays.
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    def build_mapping(self) -> SchemaMapping:
        common = lambda: [  # noqa: E731 - tiny local factory
            MappingRule("HostName", "_host"),
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
                        MappingRule("UniqueId", "_unique_id"),
                        MappingRule("Reachable", "_reachable"),
                        MappingRule("AgentName", "sysDescr", transform=lambda v: f"snmp: {v}"),
                    ],
                ),
                GroupMapping(
                    "Processor",
                    common()
                    + [
                        MappingRule("CPUCount", "hrProcessorCount"),
                        MappingRule("LoadAverage1Min", "laLoad1", transform=_descale_load),
                        MappingRule("LoadAverage5Min", "laLoad5", transform=_descale_load),
                        MappingRule("LoadAverage15Min", "laLoad15", transform=_descale_load),
                        MappingRule("CPUUser", "ssCpuUser"),
                        MappingRule("CPUSystem", "ssCpuSystem"),
                        MappingRule("CPUIdle", "ssCpuIdle"),
                        MappingRule("CPUUtilization", "ssCpuIdle", transform=_util_from_idle),
                        # Vendor / Model / ClockSpeedMHz: no SNMP source -> NULL.
                    ],
                ),
                GroupMapping(
                    "MainMemory",
                    common()
                    + [
                        MappingRule("RAMSizeMB", "memTotalReal", unit="KB"),
                        MappingRule("RAMAvailableMB", "memAvailReal", unit="KB"),
                        MappingRule("VirtualSizeMB", "memTotalSwap", unit="KB"),
                        MappingRule("VirtualAvailableMB", "memAvailSwap", unit="KB"),
                        MappingRule("BuffersMB", "memBuffer", unit="KB"),
                        MappingRule("CachedMB", "memCached", unit="KB"),
                    ],
                ),
                GroupMapping(
                    "OperatingSystem",
                    common()
                    + [
                        MappingRule(
                            "Name", "sysDescr", transform=lambda v: str(v).split()[0]
                        ),
                        MappingRule(
                            "Release",
                            "sysDescr",
                            transform=lambda v: str(v).split()[1],
                        ),
                        MappingRule("UptimeSeconds", "sysUpTime", transform=_uptime_seconds),
                        MappingRule("ProcessCount", "hrSystemProcesses"),
                        MappingRule("UserCount", "hrSystemUsers"),
                    ],
                ),
                GroupMapping(
                    "FileSystem",
                    common()
                    + [
                        MappingRule("Name", "hrStorageDescr"),
                        MappingRule("Root", "hrStorageDescr"),
                        MappingRule("SizeMB", "hrStorageSizeMB"),
                        MappingRule("AvailableSpaceMB", None, transform=_avail_mb),
                        # ReadOnly / Type: not observable via hrStorage -> NULL.
                    ],
                ),
                GroupMapping(
                    "Process",
                    common()
                    + [
                        MappingRule("PID", "hrSWRunIndex"),
                        MappingRule("Name", "hrSWRunName"),
                        MappingRule(
                            "State",
                            "hrSWRunStatus",
                            transform=lambda v: _SWRUN_STATES.get(int(v)),
                        ),
                        MappingRule(
                            "CPUPercent", "hrSWRunPerfCPU", transform=lambda v: v / 10.0
                        ),
                        MappingRule(
                            "MemoryPercent", "hrSWRunPerfMem", transform=lambda v: v / 10.0
                        ),
                        # Owner: not in hrSWRun -> NULL.
                    ],
                ),
                GroupMapping(
                    "NetworkAdapter",
                    common()
                    + [
                        MappingRule("Name", "ifDescr"),
                        MappingRule("MTU", "ifMtu"),
                        MappingRule("BandwidthMbps", "ifSpeed", unit="bps"),
                        MappingRule("BytesReceived", "ifInOctets"),
                        MappingRule("BytesSent", "ifOutOctets"),
                        MappingRule("ErrorsIn", "ifInErrors"),
                        MappingRule("ErrorsOut", "ifOutErrors"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def _ask(self, url: JdbcUrl, pdu_type: int, oids, *, bulk: int = 0):
        """One SNMP round-trip as a sub-conversation: yield the encoded
        request, return the decoded reply.  ``bulk`` is GETBULK's
        max-repetitions (SNMPv2c; carried in the error-index slot)."""
        msg = wire.SnmpMessage(
            version=1 if bulk else 0,
            community=url.params.get("community", "public"),
            pdu_type=pdu_type,
            request_id=next(self._request_ids),
            error_status=0,  # GETBULK: non-repeaters
            error_index=bulk,
            varbinds=tuple(wire.VarBind(oid) for oid in oids),
        )
        return wire.SnmpMessage.decode((yield msg.encode()))

    def _walk(self, url: JdbcUrl, base: wire.Oid, *, bulk: int = 0):
        """Walk one MIB subtree: [(suffix, value), ...], by GETNEXT (one
        entry per round-trip) or, with ``bulk``, by GETBULK."""
        out: list[tuple[wire.Oid, Any]] = []
        current = base
        while True:
            resp = yield from self._ask(
                url, wire.TAG_GETBULK if bulk else wire.TAG_GETNEXT, [current], bulk=bulk
            )
            if resp.error_status != wire.ERR_NONE or not resp.varbinds:
                return out
            for vb in resp.varbinds:
                if vb.oid[: len(base)] != base:
                    return out  # walked past the subtree
                if vb.oid <= current:
                    raise ValueError(f"walk did not advance past {current!r}")
                out.append((vb.oid[len(base):], vb.value))
                current = vb.oid
            if len(resp.varbinds) < bulk:
                return out

    def walk(self, url: JdbcUrl, base: wire.Oid) -> list[tuple[wire.Oid, Any]]:
        """GETNEXT walk of one MIB subtree — how a real JDBC-SNMP driver
        enumerates conceptual table rows, one round-trip per entry."""
        return self.converse(url, self._walk(url, base))

    def bulk_walk(
        self, url: JdbcUrl, base: wire.Oid, *, max_repetitions: int = 16
    ) -> list[tuple[wire.Oid, Any]]:
        """Like :meth:`walk` but fetching ``max_repetitions`` entries per
        round-trip.  Ablation A2 measures the round-trip saving."""
        if max_repetitions < 1:
            raise SQLException(f"max_repetitions must be >= 1: {max_repetitions!r}")
        return self.converse(url, self._walk(url, base, bulk=max_repetitions))

    def hello(self, url: JdbcUrl):
        resp = yield from self._ask(url, wire.TAG_GET, [wire.SYS_UPTIME])
        return resp.error_status == wire.ERR_NONE

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        origin = {
            "_host": url.host,
            "_unique_id": f"{url.host}#{self.protocol}",
            "_reachable": True,
        }
        if group == "FileSystem":
            return (yield from self._filesystems(url, origin))
        if group == "Process":
            return (yield from self._processes(url, origin))
        field_map = _GROUP_OIDS.get(group, {})
        group_fields = list(field_map) + sorted(_LOCAL_FIELDS)
        oid_by_key: dict[str, wire.Oid] = {}
        for f in self.fields_needed(select, group_fields):
            if f in field_map:
                key, oid = field_map[f]
                oid_by_key[key] = oid
        if oid_by_key:
            keys = list(oid_by_key)
            resp = yield from self._ask(url, wire.TAG_GET, oid_by_key.values())
            if resp.error_status == wire.ERR_NO_SUCH_NAME:
                # Partial MIB: retry one-by-one so present OIDs still land.
                for key in keys:
                    single = yield from self._ask(url, wire.TAG_GET, [oid_by_key[key]])
                    if single.error_status == wire.ERR_NONE and single.varbinds:
                        origin[key] = single.varbinds[0].value
            elif resp.error_status != wire.ERR_NONE:
                raise SQLConnectionException(
                    f"SNMP error {resp.error_status} from {url.host}"
                )
            else:
                for key, vb in zip(keys, resp.varbinds):
                    origin[key] = vb.value
        return [origin]

    def _filesystems(self, url: JdbcUrl, origin: dict[str, Any]):
        """One record per hrStorage table row, enumerated by a MIB walk."""
        descrs = yield from self._walk(url, wire.HR_STORAGE_DESCR)
        if not descrs:
            return []
        # One batched GET for every size/used cell of the table.
        indices = [suffix for suffix, _ in descrs]
        oids = [wire.HR_STORAGE_SIZE_MB + s for s in indices]
        oids += [wire.HR_STORAGE_USED_MB + s for s in indices]
        resp = yield from self._ask(url, wire.TAG_GET, oids)
        if resp.error_status != wire.ERR_NONE:
            raise SQLConnectionException(
                f"SNMP error {resp.error_status} walking storage on {url.host}"
            )
        n = len(indices)
        return [
            {
                **origin,
                "hrStorageDescr": descr,
                "hrStorageSizeMB": resp.varbinds[i].value,
                "hrStorageUsedMB": resp.varbinds[n + i].value,
            }
            for i, (_suffix, descr) in enumerate(descrs)
        ]

    def _processes(self, url: JdbcUrl, origin: dict[str, Any]):
        """One record per hrSWRun table row (PID-indexed), via GETBULK.

        The process table can be large, so this uses the bulk walk rather
        than one GETNEXT per row (ablation A2 quantifies the saving).
        The four columns must be read within a single virtual instant or
        the PID set could shift between walks; columns are therefore
        fetched with one batched GET over the PIDs the name-column walk
        enumerated, exactly like the filesystem fetch.
        """
        names = yield from self._walk(url, wire.HR_SWRUN_NAME, bulk=16)
        if not names:
            return []
        indices = [suffix for suffix, _ in names]
        oids = [wire.HR_SWRUN_STATUS + s for s in indices]
        oids += [wire.HR_SWRUN_CPU + s for s in indices]
        oids += [wire.HR_SWRUN_MEM + s for s in indices]
        resp = yield from self._ask(url, wire.TAG_GET, oids)
        records: list[dict[str, Any]] = []
        n = len(indices)
        ok = resp.error_status == wire.ERR_NONE
        for i, (suffix, name) in enumerate(names):
            record = dict(origin)
            record["hrSWRunIndex"] = suffix[0] if suffix else None
            record["hrSWRunName"] = name
            if ok:
                record["hrSWRunStatus"] = resp.varbinds[i].value
                record["hrSWRunPerfCPU"] = resp.varbinds[n + i].value
                record["hrSWRunPerfMem"] = resp.varbinds[2 * n + i].value
            records.append(record)
        return records
