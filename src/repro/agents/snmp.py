"""SNMP agent substrate.

Implements enough of SNMPv1/v2c to exercise a real driver end-to-end:

* a BER-style TLV codec (INTEGER, OCTET STRING, NULL, OBJECT IDENTIFIER,
  SEQUENCE, and the PDU context tags) with genuine base-128 OID packing;
* a MIB tree of OIDs whose leaves may be constants or callables sampled
  at query time from a :class:`~repro.agents.host_model.SimulatedHost`;
* GET / GETNEXT / SET request handling with community-string auth and the
  v1 error codes (noSuchName, badValue, readOnly);
* TRAP emission to registered sinks when metric thresholds are crossed
  (the paper's Event Manager consumes these, Figure 4).

SNMP is the paper's canonical *fine-grained* source: one OID per request,
"generally little or no parsing required" (§3.3) — experiment E3 measures
exactly this against Ganglia's coarse XML dumps.

The codec keeps that promise per OID as well as per request: a run asks
for a few dozen distinct OIDs, so each OID is packed and parsed once.
``encode_oid``, a GET's ``SEQUENCE(oid, NULL)`` varbind and
``_decode_oid_body`` each read a module-level memo of at most
:data:`OID_MEMO_SIZE` entries, keyed by the exact OID tuple or body
bytes and holding successes only, so a memo changes no byte on the wire
and hostile input can neither poison nor overgrow it.  OIDs follow X.690
8.19: the first subidentifier is ``40 * first + second`` (base-128, so
``2.x`` may have ``x >= 40``), and a body that ends inside an arc is
refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.agents.host_model import SimulatedHost
from repro.simnet.network import Address, Network

# ----------------------------------------------------------------------
# OIDs
# ----------------------------------------------------------------------
Oid = tuple[int, ...]


def oid_parse(text: str) -> Oid:
    """Parse dotted-decimal OID text ("1.3.6.1.2.1.1.3.0")."""
    text = text.strip().lstrip(".")
    if not text:
        raise ValueError("empty OID")
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError as exc:
        raise ValueError(f"bad OID: {text!r}") from exc


def oid_str(oid: Oid) -> str:
    return ".".join(str(x) for x in oid)


# ----------------------------------------------------------------------
# BER-lite codec
# ----------------------------------------------------------------------
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_SEQUENCE = 0x30
TAG_COUNTER32 = 0x41
TAG_GAUGE32 = 0x42
TAG_TIMETICKS = 0x43
TAG_GET = 0xA0
TAG_GETNEXT = 0xA1
TAG_RESPONSE = 0xA2
TAG_SET = 0xA3
TAG_TRAP = 0xA4
TAG_GETBULK = 0xA5

#: SNMPv1 error-status codes.
ERR_NONE = 0
ERR_TOO_BIG = 1
ERR_NO_SUCH_NAME = 2
ERR_BAD_VALUE = 3
ERR_READ_ONLY = 4
ERR_GEN_ERR = 5


_PDU_TYPES = frozenset(
    (TAG_GET, TAG_GETNEXT, TAG_RESPONSE, TAG_SET, TAG_TRAP, TAG_GETBULK)
)


class SnmpCodecError(ValueError):
    """Malformed BER input."""


def _encode_length(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    out = []
    while n:
        out.append(n & 0xFF)
        n >>= 8
    out.reverse()
    return bytes([0x80 | len(out)]) + bytes(out)


def _encode_tlv(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + _encode_length(len(payload)) + payload


def encode_integer(value: int, tag: int = TAG_INTEGER) -> bytes:
    """Two's-complement big-endian integer, minimal length."""
    if value == 0:
        return _encode_tlv(tag, b"\x00")
    negative = value < 0
    out = bytearray()
    v = value
    while True:
        out.append(v & 0xFF)
        v >>= 8
        if (v == 0 and not out[-1] & 0x80) or (v == -1 and out[-1] & 0x80):
            break
        if negative and v == -1 and not (out[-1] & 0x80):
            out.append(0xFF)
            break
    out.reverse()
    return _encode_tlv(tag, bytes(out))


def encode_string(value: str | bytes) -> bytes:
    data = value.encode() if isinstance(value, str) else bytes(value)
    return _encode_tlv(TAG_OCTET_STRING, data)


def encode_null() -> bytes:
    return _encode_tlv(TAG_NULL, b"")


#: Entries each codec memo holds (OID -> TLV, OID -> NULL varbind, body
#: -> OID); beyond it the oldest is forgotten.  The MIB serves a few
#: dozen OIDs; GETNEXT walks of the process table add one per PID.
OID_MEMO_SIZE = 1024
_OID_TLVS: dict[Oid, bytes] = {}
_NULL_VARBINDS: dict[Oid, bytes] = {}
_OID_BODIES: dict[bytes, Oid] = {}


def _remember(memo: dict, key: Any, value: Any) -> None:
    if len(memo) >= OID_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


def encode_oid(oid: Oid) -> bytes:
    """X.690 OID packing: the first two arcs make one subidentifier
    (``40 * first + second``), then every arc is base-128."""
    tlv = _OID_TLVS.get(oid)
    if tlv is None:
        if len(oid) < 2:
            raise SnmpCodecError(f"OID needs >= 2 arcs: {oid!r}")
        if not 0 <= oid[0] <= 2 or oid[1] < 0 or (oid[0] < 2 and oid[1] > 39):
            raise SnmpCodecError(f"bad leading arcs in {oid!r}")
        body = bytearray()
        for arc in (oid[0] * 40 + oid[1], *oid[2:]):
            if arc < 0:
                raise SnmpCodecError(f"negative arc in {oid!r}")
            chunk = bytearray([arc & 0x7F])
            arc >>= 7
            while arc:
                chunk.append(0x80 | (arc & 0x7F))
                arc >>= 7
            chunk.reverse()
            body.extend(chunk)
        tlv = _encode_tlv(TAG_OID, bytes(body))
        _remember(_OID_TLVS, oid, tlv)
    return tlv


def _encode_null_varbind(oid: Oid) -> bytes:
    """``SEQUENCE(oid, NULL)``: every varbind of a GET or GETNEXT."""
    varbind = _NULL_VARBINDS.get(oid)
    if varbind is None:
        varbind = encode_sequence(encode_oid(oid) + encode_null())
        _remember(_NULL_VARBINDS, oid, varbind)
    return varbind


def encode_sequence(*parts: bytes, tag: int = TAG_SEQUENCE) -> bytes:
    return _encode_tlv(tag, b"".join(parts))


def encode_value(value: Any) -> bytes:
    """Encode a Python value with the natural SNMP tag."""
    if value is None:
        return encode_null()
    if isinstance(value, bool):
        return encode_integer(int(value))
    if isinstance(value, int):
        return encode_integer(value)
    if isinstance(value, float):
        # SNMP has no float type; agents ship scaled integers or strings.
        return encode_string(repr(value))
    if isinstance(value, (str, bytes)):
        return encode_string(value)
    if isinstance(value, tuple):
        return encode_oid(value)
    raise SnmpCodecError(f"cannot encode {type(value).__name__}")


def _read_header(data: bytes, pos: int, end: int) -> tuple[int, int, int]:
    """Return (tag, payload_start, payload_end) of the TLV at ``pos``,
    which must lie within ``data[:end]``."""
    if pos >= end:
        raise SnmpCodecError("truncated TLV (no tag)")
    tag = data[pos]
    pos += 1
    if pos >= end:
        raise SnmpCodecError("truncated TLV (no length)")
    length = data[pos]
    pos += 1
    if length >= 0x80:
        n = length & 0x7F
        if n == 0 or n > 4:
            raise SnmpCodecError(f"unsupported length-of-length {n}")
        if pos + n > end:
            raise SnmpCodecError("truncated long length")
        length = int.from_bytes(data[pos : pos + n], "big")
        pos += n
    if pos + length > end:
        raise SnmpCodecError("TLV payload overruns buffer")
    return tag, pos, pos + length


def _read_tlv(data: bytes, pos: int) -> tuple[int, bytes, int]:
    """Return (tag, payload, next_pos)."""
    tag, start, stop = _read_header(data, pos, len(data))
    return tag, data[start:stop], stop


def decode_value(tag: int, payload: bytes) -> Any:
    if tag in (TAG_INTEGER, TAG_COUNTER32, TAG_GAUGE32, TAG_TIMETICKS):
        return int.from_bytes(payload, "big", signed=(tag == TAG_INTEGER))
    if tag == TAG_OCTET_STRING:
        return payload.decode("utf-8", errors="replace")
    if tag == TAG_NULL:
        return None
    if tag == TAG_OID:
        return _decode_oid_body(payload)
    raise SnmpCodecError(f"cannot decode tag 0x{tag:02x}")


def _decode_oid_body(payload: bytes) -> Oid:
    oid = _OID_BODIES.get(payload)
    if oid is None:
        if not payload:
            raise SnmpCodecError("empty OID body")
        if payload[-1] & 0x80:
            raise SnmpCodecError("truncated base-128 arc")
        arcs = []
        value = 0
        for byte in payload:
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                arcs.append(value)
                value = 0
        # X.690 8.19.4: the first subidentifier is 40 * first + second,
        # and only arc 2 may have a second arc of 40 or more.
        first = min(arcs[0] // 40, 2)
        oid = (first, arcs[0] - 40 * first, *arcs[1:])
        _remember(_OID_BODIES, bytes(payload), oid)
    return oid


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VarBind:
    oid: Oid
    value: Any = None


@dataclass(frozen=True)
class SnmpMessage:
    """Either a request, a response or a trap (selected by ``pdu_type``)."""

    version: int
    community: str
    pdu_type: int
    request_id: int
    error_status: int
    error_index: int
    varbinds: tuple[VarBind, ...]

    def encode(self) -> bytes:
        vb_parts = [
            _encode_null_varbind(vb.oid)
            if vb.value is None
            else encode_sequence(encode_oid(vb.oid) + encode_value(vb.value))
            for vb in self.varbinds
        ]
        pdu = encode_sequence(
            encode_integer(self.request_id)
            + encode_integer(self.error_status)
            + encode_integer(self.error_index)
            + encode_sequence(b"".join(vb_parts)),
            tag=self.pdu_type,
        )
        return encode_sequence(
            encode_integer(self.version) + encode_string(self.community) + pdu
        )

    @classmethod
    def decode(cls, data: bytes) -> "SnmpMessage":
        tag, pos, end = _read_header(data, 0, len(data))
        if tag != TAG_SEQUENCE:
            raise SnmpCodecError(f"message must be SEQUENCE, got 0x{tag:02x}")
        tag, start, pos = _read_header(data, pos, end)
        version = decode_value(tag, data[start:pos])
        tag, start, pos = _read_header(data, pos, end)
        community = decode_value(tag, data[start:pos])
        pdu_type, pos, end = _read_header(data, pos, end)
        if pdu_type not in _PDU_TYPES:
            raise SnmpCodecError(f"unknown PDU type 0x{pdu_type:02x}")
        tag, start, pos = _read_header(data, pos, end)
        request_id = decode_value(tag, data[start:pos])
        tag, start, pos = _read_header(data, pos, end)
        error_status = decode_value(tag, data[start:pos])
        tag, start, pos = _read_header(data, pos, end)
        error_index = decode_value(tag, data[start:pos])
        tag, pos, end = _read_header(data, pos, end)
        if tag != TAG_SEQUENCE:
            raise SnmpCodecError("varbind list must be SEQUENCE")
        varbinds = []
        while pos < end:
            tag, start, pos = _read_header(data, pos, end)
            if tag != TAG_SEQUENCE:
                raise SnmpCodecError("varbind must be SEQUENCE")
            tag, start, stop = _read_header(data, start, pos)
            if tag != TAG_OID:
                raise SnmpCodecError("varbind name must be OID")
            oid = _decode_oid_body(data[start:stop])
            tag, start, stop = _read_header(data, stop, pos)
            varbinds.append(VarBind(oid=oid, value=decode_value(tag, data[start:stop])))
        return cls(
            version=version,
            community=community,
            pdu_type=pdu_type,
            request_id=request_id,
            error_status=error_status,
            error_index=error_index,
            varbinds=tuple(varbinds),
        )


# ----------------------------------------------------------------------
# Well-known OIDs served by the agent
# ----------------------------------------------------------------------
SYS_DESCR = oid_parse("1.3.6.1.2.1.1.1.0")
SYS_NAME = oid_parse("1.3.6.1.2.1.1.5.0")
SYS_UPTIME = oid_parse("1.3.6.1.2.1.1.3.0")
HR_SYSTEM_PROCESSES = oid_parse("1.3.6.1.2.1.25.1.6.0")
HR_SYSTEM_USERS = oid_parse("1.3.6.1.2.1.25.1.5.0")
LA_LOAD_1 = oid_parse("1.3.6.1.4.1.2021.10.1.3.1")
LA_LOAD_5 = oid_parse("1.3.6.1.4.1.2021.10.1.3.2")
LA_LOAD_15 = oid_parse("1.3.6.1.4.1.2021.10.1.3.3")
SS_CPU_USER = oid_parse("1.3.6.1.4.1.2021.11.9.0")
SS_CPU_SYSTEM = oid_parse("1.3.6.1.4.1.2021.11.10.0")
SS_CPU_IDLE = oid_parse("1.3.6.1.4.1.2021.11.11.0")
MEM_TOTAL_REAL = oid_parse("1.3.6.1.4.1.2021.4.5.0")
MEM_AVAIL_REAL = oid_parse("1.3.6.1.4.1.2021.4.6.0")
MEM_TOTAL_SWAP = oid_parse("1.3.6.1.4.1.2021.4.3.0")
MEM_AVAIL_SWAP = oid_parse("1.3.6.1.4.1.2021.4.4.0")
MEM_BUFFER = oid_parse("1.3.6.1.4.1.2021.4.14.0")
MEM_CACHED = oid_parse("1.3.6.1.4.1.2021.4.15.0")
HR_PROCESSOR_COUNT = oid_parse("1.3.6.1.2.1.25.3.3.1.2.0")  # simplified scalar
IF_DESCR = oid_parse("1.3.6.1.2.1.2.2.1.2.1")
IF_MTU = oid_parse("1.3.6.1.2.1.2.2.1.4.1")
IF_SPEED = oid_parse("1.3.6.1.2.1.2.2.1.5.1")
IF_IN_OCTETS = oid_parse("1.3.6.1.2.1.2.2.1.10.1")
IF_OUT_OCTETS = oid_parse("1.3.6.1.2.1.2.2.1.16.1")
IF_IN_ERRORS = oid_parse("1.3.6.1.2.1.2.2.1.14.1")
IF_OUT_ERRORS = oid_parse("1.3.6.1.2.1.2.2.1.20.1")
#: Enterprise OID used for the load-threshold trap the EventManager eats.
TRAP_LOAD_HIGH = oid_parse("1.3.6.1.4.1.42000.1.1")

#: hrStorageTable-style filesystem table: column OIDs are extended with a
#: 1-based row index per mounted filesystem (``<column>.<index>``).
HR_STORAGE_DESCR = oid_parse("1.3.6.1.2.1.25.2.3.1.3")
HR_STORAGE_SIZE_MB = oid_parse("1.3.6.1.2.1.25.2.3.1.5")
HR_STORAGE_USED_MB = oid_parse("1.3.6.1.2.1.25.2.3.1.6")

#: hrSWRunTable-style process table, indexed by PID.
HR_SWRUN_NAME = oid_parse("1.3.6.1.2.1.25.4.2.1.2")
HR_SWRUN_STATUS = oid_parse("1.3.6.1.2.1.25.4.2.1.7")
HR_SWRUN_CPU = oid_parse("1.3.6.1.2.1.25.5.1.1.1")  # perf CPU (percent*10)
HR_SWRUN_MEM = oid_parse("1.3.6.1.2.1.25.5.1.1.2")  # perf mem (percent*10)

#: hrSWRunStatus enumeration (RFC 2790): textual state -> integer code.
SWRUN_STATUS_CODES = {"R": 1, "S": 2, "D": 3, "Z": 4}  # running/runnable/notRunnable/invalid

SNMP_PORT = 161
TRAP_PORT = 162


class MibTree:
    """A sorted OID -> provider map with GETNEXT traversal."""

    def __init__(self) -> None:
        self._entries: dict[Oid, Callable[[], Any] | Any] = {}
        self._sorted: list[Oid] | None = None
        self._writable: set[Oid] = set()

    def put(
        self, oid: Oid, provider: Callable[[], Any] | Any, *, writable: bool = False
    ) -> None:
        self._entries[oid] = provider
        self._sorted = None
        if writable:
            self._writable.add(oid)

    def get(self, oid: Oid) -> Any:
        if oid not in self._entries:
            raise KeyError(oid_str(oid))
        provider = self._entries[oid]
        return provider() if callable(provider) else provider

    def set(self, oid: Oid, value: Any) -> None:
        if oid not in self._entries:
            raise KeyError(oid_str(oid))
        if oid not in self._writable:
            raise PermissionError(oid_str(oid))
        self._entries[oid] = value

    def remove_subtree(self, base: Oid) -> int:
        """Remove every OID under ``base``; returns how many were dropped.

        Used for dynamic conceptual tables (the process table re-registers
        itself as processes come and go)."""
        doomed = [oid for oid in self._entries if oid[: len(base)] == base]
        for oid in doomed:
            del self._entries[oid]
            self._writable.discard(oid)
        if doomed:
            self._sorted = None
        return len(doomed)

    def next_after(self, oid: Oid) -> Optional[Oid]:
        """Lexicographically next OID strictly after ``oid``."""
        if self._sorted is None:
            self._sorted = sorted(self._entries)
        import bisect

        i = bisect.bisect_right(self._sorted, oid)
        return self._sorted[i] if i < len(self._sorted) else None

    def oids(self) -> list[Oid]:
        if self._sorted is None:
            self._sorted = sorted(self._entries)
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class TrapSink:
    """Where this agent sends traps (the gateway's event listener)."""

    address: Address
    community: str = "public"


class SnmpAgent:
    """An SNMP agent bound to one simulated host.

    Values are sampled live from the host model; float metrics are shipped
    SNMP-style as scaled integers (load*100, percent*10) and the driver
    descales them — a faithful source of the unit friction the GLUE
    mapping layer exists to hide.
    """

    def __init__(
        self,
        host: SimulatedHost,
        network: Network,
        *,
        community: str = "public",
        port: int = SNMP_PORT,
        load_trap_threshold: float | None = None,
        trap_check_period: float = 30.0,
    ) -> None:
        self.host = host
        self.network = network
        self.community = community
        self.address = Address(host.spec.name, port)
        self.mib = MibTree()
        self.trap_sinks: list[TrapSink] = []
        self.requests_served = 0
        self.traps_sent = 0
        self._trap_ids = 0
        self._load_trap_threshold = load_trap_threshold
        self._snapshot_cache: tuple[float, dict] | None = None
        self._populate_mib()
        network.listen(self.address, self._handle)
        if load_trap_threshold is not None:
            network.clock.call_every(trap_check_period, self._check_thresholds)

    # ------------------------------------------------------------------
    def _snap(self) -> dict:
        t = self.network.clock.now()
        if self._snapshot_cache is None or self._snapshot_cache[0] != t:
            self._snapshot_cache = (t, self.host.snapshot(t))
            self._refresh_process_table(self._snapshot_cache[1])
        return self._snapshot_cache[1]

    def _refresh_process_table(self, snapshot: dict) -> None:
        """Re-register the hrSWRun table rows for the current processes.

        Unlike the static scalars, the process table's row indices (PIDs)
        change as jobs come and go, so the subtree is rebuilt whenever a
        fresh snapshot is taken.
        """
        for base in (HR_SWRUN_NAME, HR_SWRUN_STATUS, HR_SWRUN_CPU, HR_SWRUN_MEM):
            self.mib.remove_subtree(base)
        for proc in sorted(snapshot["processes"], key=lambda p: p["pid"]):
            pid = proc["pid"]
            self.mib.put(HR_SWRUN_NAME + (pid,), proc["name"])
            self.mib.put(
                HR_SWRUN_STATUS + (pid,), SWRUN_STATUS_CODES.get(proc["state"], 4)
            )
            # Perf columns follow the SNMP scaled-integer convention.
            self.mib.put(HR_SWRUN_CPU + (pid,), int(proc["cpu_percent"] * 10))
            self.mib.put(HR_SWRUN_MEM + (pid,), int(proc["mem_percent"] * 10))

    def _populate_mib(self) -> None:
        spec = self.host.spec
        mib = self.mib
        mib.put(
            SYS_DESCR,
            lambda: f"{spec.os_name} {spec.os_release} {spec.platform} "
            f"({spec.vendor} {spec.model})",
        )
        mib.put(SYS_NAME, spec.name, writable=True)
        # sysUpTime is in TimeTicks (hundredths of a second).
        mib.put(SYS_UPTIME, lambda: int(self._snap()["os"]["uptime_s"] * 100))
        mib.put(HR_SYSTEM_PROCESSES, lambda: self._snap()["os"]["process_count"])
        mib.put(HR_SYSTEM_USERS, lambda: self._snap()["os"]["user_count"])
        mib.put(HR_PROCESSOR_COUNT, spec.cpu_count)
        # UCD laLoad convention: load average * 100 as integer.
        mib.put(LA_LOAD_1, lambda: int(self._snap()["cpu"]["load_1"] * 100))
        mib.put(LA_LOAD_5, lambda: int(self._snap()["cpu"]["load_5"] * 100))
        mib.put(LA_LOAD_15, lambda: int(self._snap()["cpu"]["load_15"] * 100))
        mib.put(SS_CPU_USER, lambda: int(self._snap()["cpu"]["user"]))
        mib.put(SS_CPU_SYSTEM, lambda: int(self._snap()["cpu"]["system"]))
        mib.put(SS_CPU_IDLE, lambda: int(self._snap()["cpu"]["idle"]))
        # UCD memory: kilobytes.
        mib.put(MEM_TOTAL_REAL, lambda: int(self._snap()["memory"]["ram_total_mb"] * 1024))
        mib.put(MEM_AVAIL_REAL, lambda: int(self._snap()["memory"]["ram_free_mb"] * 1024))
        mib.put(MEM_TOTAL_SWAP, lambda: int(self._snap()["memory"]["swap_total_mb"] * 1024))
        mib.put(MEM_AVAIL_SWAP, lambda: int(self._snap()["memory"]["swap_free_mb"] * 1024))
        mib.put(MEM_BUFFER, lambda: int(self._snap()["memory"]["buffers_mb"] * 1024))
        mib.put(MEM_CACHED, lambda: int(self._snap()["memory"]["cached_mb"] * 1024))
        mib.put(IF_DESCR, lambda: self._snap()["network"]["name"])
        mib.put(IF_MTU, lambda: self._snap()["network"]["mtu"])
        # ifSpeed is bits/second.
        mib.put(IF_SPEED, lambda: int(self._snap()["network"]["bandwidth_mbps"] * 1e6))
        mib.put(IF_IN_OCTETS, lambda: self._snap()["network"]["bytes_rx"])
        mib.put(IF_OUT_OCTETS, lambda: self._snap()["network"]["bytes_tx"])
        mib.put(IF_IN_ERRORS, lambda: self._snap()["network"]["errors_in"])
        mib.put(IF_OUT_ERRORS, lambda: self._snap()["network"]["errors_out"])
        # Filesystem table (hrStorage style): one row index per mount.
        # Sizes are served directly in MB (a real hrStorageTable uses
        # allocation units; the driver-visible unit friction is already
        # covered by the KB-based memory OIDs).
        for index in range(1, len(spec.filesystems) + 1):
            i = index - 1
            mib.put(
                HR_STORAGE_DESCR + (index,),
                lambda i=i: self._snap()["filesystems"][i]["root"],
            )
            mib.put(
                HR_STORAGE_SIZE_MB + (index,),
                lambda i=i: int(self._snap()["filesystems"][i]["size_mb"]),
            )
            mib.put(
                HR_STORAGE_USED_MB + (index,),
                lambda i=i: int(
                    self._snap()["filesystems"][i]["size_mb"]
                    - self._snap()["filesystems"][i]["avail_mb"]
                ),
            )

    # ------------------------------------------------------------------
    def _handle(self, payload: bytes, src: Address) -> bytes:
        self.requests_served += 1
        # Take a fresh snapshot per request so dynamic tables (processes)
        # are current before any GET/GETNEXT touches the MIB.
        self._snap()
        try:
            msg = SnmpMessage.decode(payload)
        except SnmpCodecError:
            # A real agent silently drops garbage; we answer genErr so the
            # driver sees a decodable failure instead of a timeout.
            return SnmpMessage(
                version=0,
                community="",
                pdu_type=TAG_RESPONSE,
                request_id=0,
                error_status=ERR_GEN_ERR,
                error_index=0,
                varbinds=(),
            ).encode()
        if msg.community != self.community:
            # v1 agents drop requests with a bad community; the driver's
            # timeout machinery then kicks in.  We model the drop as an
            # explicit genErr-free empty response to keep the virtual
            # clock cheap, tagged with an error the driver can detect.
            return SnmpMessage(
                version=msg.version,
                community=msg.community,
                pdu_type=TAG_RESPONSE,
                request_id=msg.request_id,
                error_status=ERR_GEN_ERR,
                error_index=0,
                varbinds=(),
            ).encode()

        if msg.pdu_type == TAG_GET:
            return self._do_get(msg).encode()
        if msg.pdu_type == TAG_GETNEXT:
            return self._do_getnext(msg).encode()
        if msg.pdu_type == TAG_GETBULK:
            return self._do_getbulk(msg).encode()
        if msg.pdu_type == TAG_SET:
            return self._do_set(msg).encode()
        return SnmpMessage(
            version=msg.version,
            community=msg.community,
            pdu_type=TAG_RESPONSE,
            request_id=msg.request_id,
            error_status=ERR_GEN_ERR,
            error_index=0,
            varbinds=(),
        ).encode()

    def _respond(
        self, msg: SnmpMessage, varbinds: tuple[VarBind, ...], error: int = ERR_NONE,
        error_index: int = 0,
    ) -> SnmpMessage:
        return SnmpMessage(
            version=msg.version,
            community=msg.community,
            pdu_type=TAG_RESPONSE,
            request_id=msg.request_id,
            error_status=error,
            error_index=error_index,
            varbinds=varbinds,
        )

    def _do_get(self, msg: SnmpMessage) -> SnmpMessage:
        out = []
        for i, vb in enumerate(msg.varbinds, start=1):
            try:
                out.append(VarBind(oid=vb.oid, value=self.mib.get(vb.oid)))
            except KeyError:
                return self._respond(msg, msg.varbinds, ERR_NO_SUCH_NAME, i)
        return self._respond(msg, tuple(out))

    def _do_getnext(self, msg: SnmpMessage) -> SnmpMessage:
        out = []
        for i, vb in enumerate(msg.varbinds, start=1):
            nxt = self.mib.next_after(vb.oid)
            if nxt is None:
                return self._respond(msg, msg.varbinds, ERR_NO_SUCH_NAME, i)
            out.append(VarBind(oid=nxt, value=self.mib.get(nxt)))
        return self._respond(msg, tuple(out))

    def _do_getbulk(self, msg: SnmpMessage) -> SnmpMessage:
        """SNMPv2c GetBulk: up to max-repetitions successors per varbind.

        As in RFC 1905, the request reuses the error fields:
        ``error_status`` carries non-repeaters (we support only 0) and
        ``error_index`` carries max-repetitions.  The walk simply stops
        early when the subtree ends — no error is reported.
        """
        max_repetitions = max(1, msg.error_index)
        out: list[VarBind] = []
        for vb in msg.varbinds:
            cursor = vb.oid
            for _ in range(max_repetitions):
                nxt = self.mib.next_after(cursor)
                if nxt is None:
                    break
                out.append(VarBind(oid=nxt, value=self.mib.get(nxt)))
                cursor = nxt
        return self._respond(msg, tuple(out))

    def _do_set(self, msg: SnmpMessage) -> SnmpMessage:
        # Validate all, then apply all (v1 SET is atomic).
        for i, vb in enumerate(msg.varbinds, start=1):
            if vb.oid not in set(self.mib.oids()):
                return self._respond(msg, msg.varbinds, ERR_NO_SUCH_NAME, i)
            if vb.oid not in self.mib._writable:
                return self._respond(msg, msg.varbinds, ERR_READ_ONLY, i)
        for vb in msg.varbinds:
            self.mib.set(vb.oid, vb.value)
        return self._respond(msg, msg.varbinds)

    # ------------------------------------------------------------------
    # Traps
    # ------------------------------------------------------------------
    def add_trap_sink(self, address: Address, community: str = "public") -> None:
        self.trap_sinks.append(TrapSink(address=address, community=community))

    def send_trap(self, trap_oid: Oid, varbinds: tuple[VarBind, ...] = ()) -> None:
        """Emit a trap to every sink (one-way datagrams, may be lost)."""
        self._trap_ids += 1
        for sink in self.trap_sinks:
            msg = SnmpMessage(
                version=1,
                community=sink.community,
                pdu_type=TAG_TRAP,
                request_id=self._trap_ids,
                error_status=0,
                error_index=0,
                varbinds=(VarBind(oid=trap_oid, value=oid_str(trap_oid)),) + varbinds,
            )
            self.network.send(self.host.spec.name, sink.address, msg.encode())
            self.traps_sent += 1

    def _check_thresholds(self) -> None:
        threshold = self._load_trap_threshold
        if threshold is None:
            return
        load1 = self._snap()["cpu"]["load_1"]
        if load1 > threshold:
            self.send_trap(
                TRAP_LOAD_HIGH,
                (VarBind(oid=LA_LOAD_1, value=int(load1 * 100)),),
            )
