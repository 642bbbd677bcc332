"""Checkpoint manifest protocol (CURRENT → MANIFEST-<gen>).

A checkpoint makes the memtable durable *outside* the WAL so the WAL can
be truncated.  The commit protocol is the classic LevelDB shape:

1. seal every non-empty memtable into segment files and ``fsync`` them;
2. rotate the WAL to a fresh generation file;
3. write ``MANIFEST-<gen>`` — a single CRC-framed JSON document naming
   the new WAL generation, the next LSN/segment sequence and every live
   segment — and ``fsync`` it;
4. point the ``CURRENT`` file at the new manifest and ``fsync`` that;
5. garbage-collect the old WAL generation, dropped segments and stale
   manifests.

A crash anywhere before step 4's fsync leaves ``CURRENT`` at the old
manifest, whose WAL generation still holds every record the new
segments were sealed from — recovery replays it and nothing is lost;
the step-1/2 files are orphans the next checkpoint's GC removes.  After
step 4 the new manifest is authoritative and step 5 is pure cleanup.

A manifest is read as untrusted input: a document whose CRC holds but
whose fields are not the types step 3 writes is a
:class:`ManifestError`, like a torn one, and recovery skips it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.storage.wal import TAIL_CLEAN, frame, read_frames

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.simdisk import SimDisk

#: The pointer file naming the live manifest.
CURRENT_PATH = "CURRENT"


class ManifestError(Exception):
    """A manifest file failed its CRC or structural checks."""


def manifest_path(gen: int) -> str:
    return f"MANIFEST-{gen:06d}"


@dataclass
class CheckpointResult:
    """What one checkpoint run did (for stats, spans and tests)."""

    segments_written: int = 0
    rows_sealed: int = 0
    segments_dropped: int = 0
    rows_dropped: int = 0
    manifest_path: str = ""
    wal_gen: int = 0


def write_manifest(disk: "SimDisk", gen: int, document: dict[str, Any]) -> str:
    """Write ``MANIFEST-<gen>`` and flip ``CURRENT`` to it (steps 3-4)."""
    path = manifest_path(gen)
    payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
    disk.replace(path, frame(payload))
    disk.fsync(path)
    disk.replace(CURRENT_PATH, path.encode("utf-8"))
    disk.fsync(CURRENT_PATH)
    return path


def read_manifest(disk: "SimDisk", path: str) -> dict[str, Any]:
    """Decode one manifest, raising :class:`ManifestError` on damage."""
    if not disk.exists(path):
        raise ManifestError(f"{path}: no such manifest")
    payloads, tail, detail = read_frames(disk.read(path))
    if tail != TAIL_CLEAN or len(payloads) != 1:
        raise ManifestError(
            f"{path}: bad frame ({detail or f'{len(payloads)} frames, tail {tail}'})"
        )
    try:
        doc = json.loads(payloads[0].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: undecodable payload: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ManifestError(f"{path}: payload is not a manifest document")
    for key in ("wal_gen", "next_lsn", "next_seg_seq"):
        if not _is_int(doc.get(key)):
            raise ManifestError(f"{path}: bad {key} {doc.get(key)!r}")
    for entry in doc["segments"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("group"), str)
            and _is_int(entry.get("seq"))
            and _is_int(entry.get("rows"))
            and _is_instant(entry.get("min_at"))
            and _is_instant(entry.get("max_at"))
        ):
            raise ManifestError(f"{path}: bad segment entry {entry!r}")
    return doc


def _is_int(value: Any) -> bool:
    return type(value) is int


def _is_instant(value: Any) -> bool:
    """A ``RecordedAt`` bound as JSON spells one: a number or null."""
    return value is None or type(value) in (int, float)


def current_manifest(disk: "SimDisk") -> str | None:
    """The manifest ``CURRENT`` points at, or None on a fresh disk."""
    if not disk.exists(CURRENT_PATH):
        return None
    name = disk.read(CURRENT_PATH).decode("utf-8", errors="replace").strip()
    return name or None
