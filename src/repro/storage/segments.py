"""Sealed, immutable, time-partitioned history segments.

At checkpoint the engine seals each GLUE group's memtable into one
segment file: a single CRC-framed pickled blob (see the codec note in
:mod:`repro.storage.wal`) holding the rows plus the ``RecordedAt`` span
they cover.  Segments are immutable after sealing — the ring drops
*whole* segments whose rows can never be served again, never rewrites
them, which keeps both the crash story and the recovery story trivial:
a segment either decodes byte-perfect or it is quarantined.

This module also spells the one order history rows are kept in,
:func:`recorded_key`: the serving index sorts by it and the ring evicts
from its low end, and a checkpoint drops segments by the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.storage.wal import (
    TAIL_CLEAN,
    decode_payload,
    encode_record,
    read_frames,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.simdisk import SimDisk


#: Where a NULL ``RecordedAt`` sorts: before every instant.
NULL_FIRST = float("-inf")


def recorded_key(row: dict[str, Any]) -> float:
    """The retention order of a group's rows: NULL ``RecordedAt`` first,
    then by instant; a stable sort breaks ties by arrival.  The ring
    keeps a group's newest ``max_rows_per_group`` rows in this order."""
    at = row.get("RecordedAt")
    return NULL_FIRST if at is None else at


class SegmentDecodeError(Exception):
    """A segment file failed its CRC or structural checks."""


def segment_path(group: str, seq: int) -> str:
    return f"seg/{group}/{seq:08d}.seg"


@dataclass
class Segment:
    """One sealed run of history rows for a single GLUE group."""

    group: str
    seq: int
    rows: list[dict[str, Any]]
    #: RecordedAt span of the rows (None when every row lacks a timestamp).
    min_at: float | None
    max_at: float | None

    @property
    def path(self) -> str:
        return segment_path(self.group, self.seq)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def manifest_entry(self) -> dict[str, Any]:
        """The manifest's pointer to this segment (contents live on disk)."""
        return {
            "group": self.group,
            "seq": self.seq,
            "rows": len(self.rows),
            "min_at": self.min_at,
            "max_at": self.max_at,
        }


def seal_segment(
    disk: "SimDisk", group: str, seq: int, rows: list[dict[str, Any]]
) -> Segment:
    """Write ``rows`` as segment ``seq`` of ``group``; fsync before returning.

    The caller (checkpoint) must not reference the segment from a
    manifest until this returns — the fsync-then-point ordering is what
    makes a crash mid-checkpoint leave only harmless orphan files.
    """
    times = [r["RecordedAt"] for r in rows if r.get("RecordedAt") is not None]
    seg = Segment(
        group=group,
        seq=seq,
        rows=[dict(r) for r in rows],
        min_at=min(times) if times else None,
        max_at=max(times) if times else None,
    )
    framed = encode_record(
        {
            "group": seg.group,
            "seq": seg.seq,
            "min_at": seg.min_at,
            "max_at": seg.max_at,
            "rows": seg.rows,
        }
    )
    disk.create(seg.path)
    disk.append(seg.path, framed)
    disk.fsync(seg.path)
    return seg


def load_segment(disk: "SimDisk", path: str) -> Segment:
    """Decode one sealed segment, raising :class:`SegmentDecodeError`.

    Recovery catches the error and quarantines the file instead of
    refusing to start — degraded serving beats no serving (the same
    philosophy as serving stale cache results on source failure).
    """
    payloads, tail, detail = read_frames(disk.read(path))
    if tail != TAIL_CLEAN or len(payloads) != 1:
        raise SegmentDecodeError(
            f"{path}: bad frame ({detail or f'{len(payloads)} frames, tail {tail}'})"
        )
    doc = decode_payload(payloads[0])
    if doc is None:
        raise SegmentDecodeError(f"{path}: undecodable payload")
    if not isinstance(doc.get("rows"), list):
        raise SegmentDecodeError(f"{path}: payload is not a segment document")
    try:
        return Segment(
            group=str(doc["group"]),
            seq=int(doc["seq"]),
            rows=[dict(r) for r in doc["rows"]],
            min_at=doc.get("min_at"),
            max_at=doc.get("max_at"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SegmentDecodeError(f"{path}: malformed segment fields: {exc}") from exc
