"""Sealed, immutable, time-partitioned history segments.

At checkpoint the engine seals each GLUE group's memtable into one
segment file (one per layout, if a schema change left two): a single
CRC-framed pickled blob (see the codec note in :mod:`repro.storage.wal`)
holding the layout's ``columns`` once, the rows as tuples in that
order, and the ``RecordedAt`` span they cover.  Segments are immutable
after sealing — the ring drops
*whole* segments whose rows can never be served again, never rewrites
them, which keeps both the crash story and the recovery story trivial:
a segment either decodes byte-perfect or it is quarantined.

This module also spells the one order history rows are kept in,
:func:`recorded_key`: the serving index sorts by it and the ring evicts
from its low end, and a checkpoint drops segments by the same key.  A
history layout ends with :data:`PROVENANCE_NAMES`, so the key reads one
fixed slot; :func:`stored_relation` refuses a record whose layout does
not, and :func:`remap` moves rows between two layouts by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.sql.database import Row
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

#: The provenance columns every history layout ends with: a stored row's
#: ``SourceUrl`` is its last slot but one, its ``RecordedAt`` the last.
PROVENANCE_NAMES = ("SourceUrl", "RecordedAt")
_INSTANTS = (float, int, type(None))


def recorded_key(row: Row) -> float:
    """The retention order of a group's rows: NULL ``RecordedAt`` first,
    then by instant; a stable sort breaks ties by arrival.  The ring
    keeps a group's newest ``max_rows_per_group`` rows in this order."""
    at = row[-1]
    return NULL_FIRST if at is None else at


def stored_relation(doc: Mapping[str, Any]) -> tuple[tuple[str, ...], list[Row]]:
    """The ``columns`` and ``rows`` of a WAL ``rows`` record or a segment
    document, checked: ``columns`` distinct names ending with
    :data:`PROVENANCE_NAMES` (a dict-row record from before the format
    carried them has none), every row a tuple of one value per column
    with a text-or-NULL ``SourceUrl`` and a number-or-NULL
    ``RecordedAt``.  Raises :class:`ValueError` saying what is wrong."""
    columns, rows = doc.get("columns"), doc.get("rows")
    if type(columns) not in (list, tuple) or any(type(c) is not str for c in columns):
        raise ValueError(f"columns is a {type(columns).__name__}, not a list of names")
    if len(set(columns)) != len(columns) or tuple(columns[-2:]) != PROVENANCE_NAMES:
        raise ValueError("columns hold a duplicate or do not end with the provenance")
    if type(rows) is not list:
        raise ValueError("rows is not a list")
    for i, row in enumerate(rows):
        if type(row) not in (tuple, list) or len(row) != len(columns):
            raise ValueError(f"row {i} is not a tuple of {len(columns)} values")
        if type(row[-2]) not in (str, type(None)) or type(row[-1]) not in _INSTANTS:
            raise ValueError(f"row {i} has an ill-typed SourceUrl or RecordedAt")
    return tuple(columns), [tuple(row) for row in rows]


def remap(rows: list[Row], columns: Sequence[str], layout: Sequence[str]) -> list[Row]:
    """``rows``, laid out as ``columns``, in ``layout``'s order: a column
    ``columns`` lacks is NULL and one ``layout`` lacks is dropped.  The
    same list when the two layouts are one."""
    if tuple(columns) == tuple(layout):
        return rows
    where = {name: i for i, name in enumerate(columns)}
    slots = [where.get(name) for name in layout]
    return [tuple(None if i is None else row[i] for i in slots) for row in rows]


class SegmentDecodeError(Exception):
    """A segment file failed its CRC or structural checks."""


def segment_path(group: str, seq: int) -> str:
    return f"seg/{group}/{seq:08d}.seg"


@dataclass
class Segment:
    """One sealed run of history rows for a single GLUE group."""

    group: str
    seq: int
    #: The layout of ``rows``: the group's fields, then the provenance.
    columns: tuple[str, ...]
    rows: list[Row]
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
    disk: "SimDisk", group: str, seq: int, columns: tuple[str, ...], rows: list[Row]
) -> Segment:
    """Write ``rows``, laid out as ``columns``, as segment ``seq`` of
    ``group``; fsync before returning.

    The caller (checkpoint) must not reference the segment from a
    manifest until this returns — the fsync-then-point ordering is what
    makes a crash mid-checkpoint leave only harmless orphan files.
    """
    times = [row[-1] for row in rows if row[-1] is not None]
    seg = Segment(
        group=group,
        seq=seq,
        columns=columns,
        rows=rows,
        min_at=min(times) if times else None,
        max_at=max(times) if times else None,
    )
    framed = encode_record(
        {
            "group": seg.group,
            "seq": seg.seq,
            "min_at": seg.min_at,
            "max_at": seg.max_at,
            "columns": seg.columns,
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
    try:
        columns, rows = stored_relation(doc)
        return Segment(
            group=str(doc["group"]),
            seq=int(doc["seq"]),
            columns=columns,
            rows=rows,
            min_at=doc.get("min_at"),
            max_at=doc.get("max_at"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SegmentDecodeError(f"{path}: malformed segment fields: {exc}") from exc
