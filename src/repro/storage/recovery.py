"""Crash recovery: last checkpoint + committed WAL suffix.

On start-up the engine calls :func:`recover_state`, which rebuilds the
durable picture of history from disk:

1. follow ``CURRENT`` to the newest readable manifest (an unreadable or
   ill-typed one is skipped with a GRM403 finding — the GC window means
   an older manifest may still be present and consistent; a fresh disk
   yields an empty state);
2. load every segment the manifest names; a segment that fails its CRC
   or structural checks is *quarantined* — renamed aside, reported as a
   GRM401 degraded-serving finding — never served and never fatal;
3. replay the manifest's WAL generation from the front, appending row
   records to an in-memory memtable, and stop at the first torn or
   corrupt frame (GRM402); everything from the bad frame on is dropped.

The result is exactly the acknowledged prefix, in log order: rows the
engine fsynced (directly or via a sealed segment) survive, un-fsynced
tails die with the crash, and corrupt bytes are contained rather than
served.  Which of them a group serves is the store's ring, applied when
it opens.  The engine finishes start-up with a fresh checkpoint, so
quarantined segments leave the manifest and replayed rows regain a
sealed home.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.findings import Finding, Severity
from repro.storage.checkpoint import (
    ManifestError,
    current_manifest,
    read_manifest,
)
from repro.storage.segments import Segment, SegmentDecodeError, load_segment, segment_path
from repro.storage.wal import TAIL_CLEAN, TAIL_TORN, WriteAheadLog, wal_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.simdisk import SimDisk

#: Where quarantined segment files are moved (flattened path).
QUARANTINE_PREFIX = "quarantine/"

RULE_SEGMENT_QUARANTINED = "GRM401"
RULE_WAL_TAIL_TRUNCATED = "GRM402"
RULE_MANIFEST_SKIPPED = "GRM403"


@dataclass
class RecoveryReport:
    """What one recovery pass found (surfaced via gateway start-up)."""

    manifest: str = ""
    wal_gen: int = 1
    segments_loaded: int = 0
    segment_rows: int = 0
    segments_quarantined: int = 0
    rows_quarantined: int = 0
    wal_records_replayed: int = 0
    wal_tail: str = TAIL_CLEAN
    wal_tail_detail: str = ""
    manifests_skipped: int = 0
    #: Virtual seconds recovery spent reading/replaying (disk latency).
    elapsed: float = 0.0
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined, truncated or skipped."""
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "manifest": self.manifest,
            "wal_gen": self.wal_gen,
            "segments_loaded": self.segments_loaded,
            "segment_rows": self.segment_rows,
            "segments_quarantined": self.segments_quarantined,
            "rows_quarantined": self.rows_quarantined,
            "wal_records_replayed": self.wal_records_replayed,
            "wal_tail": self.wal_tail,
            "wal_tail_detail": self.wal_tail_detail,
            "manifests_skipped": self.manifests_skipped,
            "elapsed": self.elapsed,
            "findings": [f.format() for f in self.findings],
        }

    def format(self) -> str:
        lines = [
            f"recovery: manifest={self.manifest or '(fresh)'} wal_gen={self.wal_gen}",
            f"  segments loaded={self.segments_loaded} ({self.segment_rows} rows), "
            f"quarantined={self.segments_quarantined} ({self.rows_quarantined} rows)",
            f"  wal replayed={self.wal_records_replayed} records, tail={self.wal_tail}"
            + (f" ({self.wal_tail_detail})" if self.wal_tail_detail else ""),
        ]
        for finding in self.findings:
            lines.append("  " + finding.format())
        return "\n".join(lines)


@dataclass
class RecoveredState:
    """The durable state handed to :class:`~repro.storage.engine.HistoryEngine`."""

    segments: dict[str, list[Segment]] = field(default_factory=dict)
    #: group -> [(lsn, row)] replayed from the WAL, append order.
    memtable: dict[str, list[tuple[int, dict[str, Any]]]] = field(default_factory=dict)
    next_lsn: int = 1
    next_seg_seq: int = 1
    wal_gen: int = 1
    report: RecoveryReport = field(default_factory=RecoveryReport)


def _pick_manifest(disk: "SimDisk", report: RecoveryReport) -> dict[str, Any] | None:
    """Newest readable manifest: CURRENT's choice, else fall back by gen."""
    tried: set[str] = set()
    candidates: list[str] = []
    pointed = current_manifest(disk)
    if pointed:
        candidates.append(pointed)
    # Fall back to any other manifest on disk, newest generation first —
    # covers a corrupt CURRENT target caught inside the pre-GC window.
    candidates.extend(sorted(disk.list("MANIFEST-"), reverse=True))
    for path in candidates:
        if path in tried:
            continue
        tried.add(path)
        try:
            doc = read_manifest(disk, path)
        except ManifestError as exc:
            report.manifests_skipped += 1
            report.findings.append(
                Finding(
                    rule_id=RULE_MANIFEST_SKIPPED,
                    severity=Severity.WARNING,
                    message=f"skipped unreadable manifest: {exc}",
                    path=path,
                    symbol="manifest",
                )
            )
            continue
        report.manifest = path
        return doc
    return None


def _load_segments(
    disk: "SimDisk", doc: dict[str, Any], state: RecoveredState
) -> None:
    report = state.report
    # read_manifest checked every entry's types.
    for entry in doc["segments"]:
        group = entry["group"]
        path = segment_path(group, entry["seq"])
        try:
            seg = load_segment(disk, path)
        except FileNotFoundError:
            exc_msg = "segment file missing"
            seg = None
        except SegmentDecodeError as exc:
            exc_msg = str(exc)
            seg = None
        if seg is None:
            rows_lost = entry["rows"]
            report.segments_quarantined += 1
            report.rows_quarantined += rows_lost
            if disk.exists(path):
                disk.rename(path, QUARANTINE_PREFIX + path.replace("/", "_"))
            report.findings.append(
                Finding(
                    rule_id=RULE_SEGMENT_QUARANTINED,
                    severity=Severity.WARNING,
                    message=(
                        f"quarantined corrupt segment ({rows_lost} rows degraded): "
                        f"{exc_msg}"
                    ),
                    path=path,
                    symbol=group,
                )
            )
            continue
        state.segments.setdefault(seg.group, []).append(seg)
        state.next_seg_seq = max(state.next_seg_seq, seg.seq + 1)
        report.segments_loaded += 1
        report.segment_rows += seg.row_count
    for segs in state.segments.values():
        segs.sort(key=lambda s: s.seq)


def _replay_wal(disk: "SimDisk", state: RecoveredState) -> None:
    report = state.report
    path = wal_path(state.wal_gen)
    records, tail, detail = WriteAheadLog.read_records(disk, path)
    report.wal_tail = tail
    report.wal_tail_detail = detail
    for record in records:
        lsn = record.get("lsn")
        if isinstance(lsn, int):
            state.next_lsn = max(state.next_lsn, lsn + 1)
        if record.get("kind") == "rows":
            group = str(record.get("group", ""))
            rows = record.get("rows")
            if group and isinstance(rows, list):
                entries = state.memtable.setdefault(group, [])
                for row in rows:
                    if isinstance(row, dict):
                        entries.append((lsn if isinstance(lsn, int) else 0, row))
                report.wal_records_replayed += 1
        # Other kinds are skipped: forward compatibility over refusal.
    if tail != TAIL_CLEAN:
        report.findings.append(
            Finding(
                rule_id=RULE_WAL_TAIL_TRUNCATED,
                severity=Severity.INFO if tail == TAIL_TORN else Severity.WARNING,
                message=f"wal tail truncated ({tail}): {detail}; "
                f"replayed {report.wal_records_replayed} committed records",
                path=path,
                symbol="wal",
            )
        )


def recover_state(disk: "SimDisk") -> RecoveredState:
    """Rebuild durable history state from ``disk`` (never raises on damage)."""
    state = RecoveredState()
    report = state.report
    doc = _pick_manifest(disk, report)
    if doc is not None:
        state.wal_gen = max(1, doc["wal_gen"])
        state.next_lsn = max(1, doc["next_lsn"])
        state.next_seg_seq = max(1, doc["next_seg_seq"])
        _load_segments(disk, doc, state)
    report.wal_gen = state.wal_gen
    _replay_wal(disk, state)
    return state
