"""Checksummed, record-oriented write-ahead log with group commit.

Every history row the gateway acknowledges is first framed and appended
here.  The frame format — shared by segments and manifests via
:func:`frame`/:func:`read_frames` — is::

    <length:uint32 LE> <crc32:uint32 LE> <payload: length bytes>

WAL and segment payloads are *pickled* record dicts (fixed protocol, so
seeded replays stay byte-identical); the manifest keeps human-readable
JSON.  Pickle is the deliberate choice for the hot path: the log is only
ever read back by the process family that wrote it, every frame passes
its CRC before a single byte is unpickled, the rows are plain scalar
dicts that round-trip exactly — and pickling is several times faster per
row than JSON, which is what keeps the durable record path inside its
2x-overhead budget (see ``BENCH_durability.json``).

Recovery walks frames from the front and stops at the first one that is
*torn* (truncated header or payload — the expected shape after a crash
mid-append) or *corrupt* (CRC mismatch — bit rot or a misdirected
write).  Everything before the bad frame is trusted; nothing at or after
it is ever served.

Group commit: ``append`` buffers frames on the :class:`SimDisk` and only
``fsync``\\ s every ``sync_interval`` records (policy knob
``history_fsync_interval``).  A record is *acknowledged* — counted on,
reported durable, guaranteed to survive a crash — only once its LSN is
``<= synced_lsn``.  The crashtest harness holds the system to exactly
that boundary.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.simdisk import SimDisk

#: ``<length, crc32>`` little-endian frame header.
FRAME_HEADER = struct.Struct("<II")

#: Tail classifications returned by :func:`read_frames`.
TAIL_CLEAN = "clean"
TAIL_TORN = "torn"
TAIL_CORRUPT = "corrupt"


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length+CRC frame."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


#: Pinned pickle protocol: replay identity requires stable bytes.
PICKLE_PROTOCOL = 4


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Frame one record dict — the WAL's hottest line (once per batch)."""
    payload = pickle.dumps(record, protocol=PICKLE_PROTOCOL)
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, Any] | None:
    """One CRC-valid frame payload back to its record dict.

    Returns None when the payload does not unpickle to a dict — a frame
    that was *written* corrupt rather than torn; callers treat it like a
    corrupt tail.  Only ever fed CRC-checked payloads.
    """
    try:
        record = pickle.loads(payload)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        ValueError,
        TypeError,
    ):
        return None
    return record if isinstance(record, dict) else None


def read_frames(data: bytes) -> tuple[list[bytes], str, str]:
    """Split ``data`` into frame payloads, classifying the tail.

    Returns ``(payloads, tail, detail)`` where ``tail`` is one of
    :data:`TAIL_CLEAN` (every byte consumed), :data:`TAIL_TORN`
    (truncated final frame) or :data:`TAIL_CORRUPT` (CRC mismatch).
    ``payloads`` holds every frame *before* the bad one.
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < FRAME_HEADER.size:
            return payloads, TAIL_TORN, f"truncated header at byte {offset}"
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if end > total:
            return (
                payloads,
                TAIL_TORN,
                f"truncated payload at byte {offset} ({end - total} bytes short)",
            )
        payload = bytes(data[start:end])
        if zlib.crc32(payload) != crc:
            return payloads, TAIL_CORRUPT, f"crc mismatch in frame at byte {offset}"
        payloads.append(payload)
        offset = end
    return payloads, TAIL_CLEAN, ""


def decode_record_frames(payloads: list[bytes]) -> tuple[list[dict[str, Any]], int]:
    """Decode framed payloads, stopping at the first undecodable one.

    Returns ``(records, bad_index)`` with ``bad_index == -1`` when all
    payloads decode.
    """
    records: list[dict[str, Any]] = []
    for i, payload in enumerate(payloads):
        record = decode_payload(payload)
        if record is None:
            return records, i
        records.append(record)
    return records, -1


def wal_path(gen: int) -> str:
    return f"wal/{gen:06d}.wal"


class WriteAheadLog:
    """Append-only framed record log on one :class:`SimDisk` file."""

    def __init__(
        self,
        disk: "SimDisk",
        *,
        gen: int = 1,
        next_lsn: int = 1,
        sync_interval: int = 1,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if sync_interval < 1:
            raise ValueError(f"sync_interval must be >= 1: {sync_interval!r}")
        if gen < 1 or next_lsn < 1:
            raise ValueError("gen and next_lsn must be >= 1")
        self.disk = disk
        self.gen = gen
        self.sync_interval = sync_interval
        # A standalone log counts into a private registry.
        registry = registry if registry is not None else MetricsRegistry()
        self._appends = registry.counter("wal.appends")
        self._bytes = registry.counter("wal.bytes")
        self._syncs = registry.counter("wal.syncs")
        self._rotations = registry.counter("wal.rotations")
        self.next_lsn = next_lsn
        #: Highest LSN appended (acknowledged or not).
        self.last_lsn = next_lsn - 1
        #: Highest LSN guaranteed durable — the acknowledgement boundary.
        self.synced_lsn = next_lsn - 1
        self._unsynced = 0
        disk.create(self.path)

    @property
    def path(self) -> str:
        return wal_path(self.gen)

    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> int:
        """Append one record, stamping and returning its LSN.

        A plain dict is stamped in place (callers hand over throwaway
        dicts; copying 5k of them per poll round is measurable) — pass
        another Mapping type to keep the argument untouched.

        The record is durable (and may be acknowledged) only once
        ``synced_lsn`` reaches the returned LSN — immediately if the
        group-commit interval elapsed, else at the next ``sync``.
        """
        lsn = self.next_lsn
        stamped = record if type(record) is dict else dict(record)
        stamped["lsn"] = lsn
        data = encode_record(stamped)
        self.disk.append(self.path, data)
        self.next_lsn = lsn + 1
        self.last_lsn = lsn
        self._unsynced += 1
        self._appends.add(1.0)
        self._bytes.add(float(len(data)))
        if self._unsynced >= self.sync_interval:
            self.sync()
        return lsn

    def sync(self) -> None:
        """fsync the log, advancing the acknowledgement boundary."""
        if self._unsynced == 0:
            return
        self.disk.fsync(self.path)
        self.synced_lsn = self.last_lsn
        self._unsynced = 0
        self._syncs.add(1.0)

    @property
    def unsynced_records(self) -> int:
        return self._unsynced

    def rotate(self) -> str:
        """Start a fresh generation file; returns the old file's path.

        Called by checkpoint *after* sealing the memtable into fsynced
        segments: every record in the old generation is then durable via
        a segment, so the old file can be deleted once the new manifest
        is live.  The acknowledgement boundary therefore jumps to
        ``last_lsn``.
        """
        old_path = self.path
        self.gen += 1
        self.synced_lsn = self.last_lsn
        self._unsynced = 0
        self.disk.create(self.path)
        self._rotations.add(1.0)
        return old_path

    # ------------------------------------------------------------------
    @staticmethod
    def read_records(disk: "SimDisk", path: str) -> tuple[list[dict[str, Any]], str, str]:
        """Read every trustworthy record from a WAL file.

        Returns ``(records, tail, detail)`` — ``tail`` as in
        :func:`read_frames`, with undecodable frames folded into
        :data:`TAIL_CORRUPT`.  Missing file reads as empty and clean.
        """
        if not disk.exists(path):
            return [], TAIL_CLEAN, ""
        payloads, tail, detail = read_frames(disk.read(path))
        records, bad = decode_record_frames(payloads)
        if bad != -1:
            return records, TAIL_CORRUPT, f"frame {bad} is not a record dict"
        return records, tail, detail
