"""The durable history engine: WAL + memtable + sealed segments.

:class:`HistoryEngine` sits underneath
:class:`~repro.core.history.HistoryStore` and owns everything that
touches the :class:`~repro.storage.simdisk.SimDisk`:

* ``append_row`` — frame the row into the WAL (group commit per the
  policy's fsync interval) and keep it in a per-group memtable;
* ``append_trim`` — durably record a ``trim_older_than`` cutoff (synced
  immediately, and persisted in every later manifest so a checkpoint
  cannot resurrect trimmed rows);
* ``checkpoint`` — seal memtables into immutable segments, truncate the
  WAL, apply segment-granular retention, commit via the manifest
  protocol and garbage-collect;
* construction — run :func:`~repro.storage.recovery.recover_state`, then
  finish with a checkpoint so replayed rows regain a sealed home and
  quarantined segments leave the manifest (recovery is self-healing).

The acknowledgement boundary is ``wal.synced_lsn``: ``acked_rows`` is
the exact set of rows the engine promises will survive a crash, and the
crashtest harness holds recovery to it as an equality.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import MetricsRegistry, StatsView
from repro.storage.checkpoint import CheckpointResult, write_manifest
from repro.storage.recovery import RecoveryReport, recover_state
from repro.storage.segments import Segment, seal_segment
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.simnet.clock import VirtualClock
    from repro.storage.simdisk import SimDisk


class HistoryEngine:
    """Durable storage for history rows on one simulated disk."""

    def __init__(
        self,
        disk: "SimDisk",
        *,
        clock: "VirtualClock | None" = None,
        sync_interval: int = 8,
        max_rows_per_group: int = 100_000,
        retention_age: float = 0.0,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if max_rows_per_group < 1:
            raise ValueError(f"max_rows_per_group must be >= 1: {max_rows_per_group!r}")
        if retention_age < 0:
            raise ValueError(f"retention_age must be >= 0: {retention_age!r}")
        self.disk = disk
        self.clock = clock
        self.max_rows_per_group = max_rows_per_group
        self.retention_age = retention_age
        self.tracer = tracer
        # A standalone engine counts into a private registry.
        counters = registry if registry is not None else MetricsRegistry()
        self._recovery = StatsView(
            counters,
            "recovery",
            ("runs", "rows_replayed", "segments_quarantined", "truncated_tails"),
        )
        self._checkpoints = StatsView(
            counters, "checkpoint", ("runs", "rows_sealed", "segments_dropped")
        )
        self.checkpoints_run = 0
        self.last_checkpoint_at: float | None = None
        self._in_checkpoint = False

        started = clock.now() if clock is not None else 0.0
        with self._span("recovery") as span:
            state = recover_state(disk)
            self.segments: dict[str, list[Segment]] = state.segments
            self._memtable: dict[str, list[tuple[int, dict[str, Any]]]] = state.memtable
            self.trim_cutoff = state.trim_cutoff
            self.next_seg_seq = state.next_seg_seq
            self._manifest_gen = self._parse_manifest_gen(state.report.manifest)
            self.wal = WriteAheadLog(
                disk,
                gen=state.wal_gen,
                next_lsn=state.next_lsn,
                sync_interval=sync_interval,
                registry=registry,
            )
            self.recovery_report: RecoveryReport = state.report
            if span is not None:
                span.annotate(
                    segments=state.report.segments_loaded,
                    replayed=state.report.wal_records_replayed,
                    quarantined=state.report.segments_quarantined,
                    wal_tail=state.report.wal_tail,
                )
        # Self-healing finish: replayed rows get sealed, quarantined
        # segments drop out of the manifest, orphans are collected.
        self.checkpoint()
        self.recovery_report.elapsed = (
            (clock.now() - started) if clock is not None else 0.0
        )
        self._recovery.inc("runs", 1.0)
        self._recovery.inc(
            "rows_replayed", float(self.recovery_report.wal_records_replayed)
        )
        self._recovery.inc(
            "segments_quarantined", float(self.recovery_report.segments_quarantined)
        )
        if self.recovery_report.wal_tail != "clean":
            self._recovery.inc("truncated_tails", 1.0)

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_manifest_gen(path: str) -> int:
        try:
            return int(path.rpartition("-")[2])
        except ValueError:
            return 0

    @contextmanager
    def _span(self, name: str) -> Iterator[Any]:
        if self.tracer is None:
            yield None
            return
        with self.tracer.start_trace(name) as span:
            yield span

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append_row(self, group: str, row: dict[str, Any]) -> int:
        """WAL-append one history row; returns its LSN."""
        return self.append_rows(group, [row])

    def append_rows(self, group: str, rows: list[dict[str, Any]]) -> int:
        """WAL-append a batch of history rows as ONE framed record.

        The whole batch shares one LSN — it is acknowledged (or lost)
        atomically, which is exactly the granularity a poll result
        arrives at.  Batching is also the throughput lever: one encoded
        envelope, one CRC and one disk append per ``record()`` call
        instead of per row.

        Rows are kept by reference in the memtable (they are the same
        dicts the serving table holds), so the durable and serving
        copies can never drift between checkpoints.
        """
        if not rows:
            return self.wal.last_lsn
        lsn = self.wal.append({"kind": "rows", "group": group, "rows": rows})
        entries = self._memtable.setdefault(group, [])
        for row in rows:
            entries.append((lsn, row))
        return lsn

    def append_trim(self, cutoff: float) -> int:
        """Durably record a retention trim; synced immediately.

        Immediate sync matters: the WAL record vanishes at the next
        checkpoint's truncation, so the cutoff is also persisted in the
        manifest (``trim_cutoff``) — but between now and then, only the
        fsync keeps a crash from resurrecting trimmed rows.
        """
        lsn = self.wal.append({"kind": "trim", "cutoff": cutoff})
        self.wal.sync()
        if self.trim_cutoff is None or cutoff > self.trim_cutoff:
            self.trim_cutoff = cutoff
        for entries in self._memtable.values():
            entries[:] = [
                (lsn_, row)
                for lsn_, row in entries
                if row.get("RecordedAt") is None or row["RecordedAt"] >= cutoff
            ]
        return lsn

    def sync(self) -> None:
        """Flush the group-commit buffer (advance the ack boundary)."""
        self.wal.sync()

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> CheckpointResult:
        """Seal memtables, truncate the WAL, retain, commit, collect.

        Re-entrant calls no-op: fsync latency advances the virtual clock,
        which can fire a periodic-checkpoint callback *inside* a running
        checkpoint.
        """
        if self._in_checkpoint:
            return CheckpointResult(wal_gen=self.wal.gen)
        self._in_checkpoint = True
        try:
            with self._span("checkpoint") as span:
                result = self._checkpoint_locked()
                if span is not None:
                    span.annotate(
                        rows_sealed=result.rows_sealed,
                        segments_written=result.segments_written,
                        segments_dropped=result.segments_dropped,
                        manifest=result.manifest_path,
                    )
                return result
        finally:
            self._in_checkpoint = False

    def _checkpoint_locked(self) -> CheckpointResult:
        result = CheckpointResult()
        # 1. Seal every non-empty memtable (sorted: deterministic seqs).
        for group in sorted(self._memtable):
            entries = self._memtable[group]
            if not entries:
                continue
            seg = seal_segment(
                self.disk, group, self.next_seg_seq, [row for _, row in entries]
            )
            self.next_seg_seq += 1
            self.segments.setdefault(group, []).append(seg)
            result.segments_written += 1
            result.rows_sealed += len(entries)
            entries.clear()
        # 2. Segment-granular retention: drop whole head segments.
        self._apply_retention(result)
        # 3-4. Rotate the WAL and commit the new manifest.
        old_wal = self.wal.rotate()
        self._manifest_gen += 1
        live = [
            seg.manifest_entry()
            for group in sorted(self.segments)
            for seg in self.segments[group]
        ]
        result.manifest_path = write_manifest(
            self.disk,
            self._manifest_gen,
            {
                "wal_gen": self.wal.gen,
                "next_lsn": self.wal.next_lsn,
                "next_seg_seq": self.next_seg_seq,
                "trim_cutoff": self.trim_cutoff,
                "segments": live,
            },
        )
        result.wal_gen = self.wal.gen
        # 5. Garbage collection — pure cleanup once CURRENT is flipped.
        self.disk.delete(old_wal)
        referenced = {seg.path for segs in self.segments.values() for seg in segs}
        for path in self.disk.list("seg/"):
            if path not in referenced:
                self.disk.delete(path)
        for path in self.disk.list("wal/"):
            if path != self.wal.path:
                self.disk.delete(path)
        for path in self.disk.list("MANIFEST-"):
            if path != result.manifest_path:
                self.disk.delete(path)
        self.checkpoints_run += 1
        if self.clock is not None:
            self.last_checkpoint_at = self.clock.now()
        self._checkpoints.inc("runs", 1.0)
        self._checkpoints.inc("rows_sealed", float(result.rows_sealed))
        self._checkpoints.inc("segments_dropped", float(result.segments_dropped))
        return result

    def _apply_retention(self, result: CheckpointResult) -> None:
        now = self.clock.now() if self.clock is not None else 0.0
        age_cutoff = now - self.retention_age if self.retention_age > 0 else None
        for group in sorted(self.segments):
            segs = self.segments[group]
            total = sum(s.row_count for s in segs)
            while segs:
                head = segs[0]
                # Rows without RecordedAt are exempt from time retention
                # (mirroring trim_older_than), so a segment holding any
                # is only droppable by ring overflow.
                time_droppable = head.max_at is not None and all(
                    r.get("RecordedAt") is not None for r in head.rows
                )
                old_by_trim = (
                    time_droppable
                    and self.trim_cutoff is not None
                    and head.max_at < self.trim_cutoff
                )
                old_by_age = (
                    time_droppable
                    and age_cutoff is not None
                    and head.max_at < age_cutoff
                )
                ring_excess = total - head.row_count >= self.max_rows_per_group
                if not (old_by_trim or old_by_age or ring_excess):
                    break
                if old_by_age and not (old_by_trim or ring_excess):
                    # Serving tables still hold these rows — the store
                    # must re-sync this group from serving_rows().
                    result.serving_dirty.add(group)
                segs.pop(0)
                total -= head.row_count
                result.segments_dropped += 1
                result.rows_dropped += head.row_count
            if not segs:
                del self.segments[group]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _passes_cutoff(self, row: dict[str, Any]) -> bool:
        if self.trim_cutoff is None:
            return True
        at = row.get("RecordedAt")
        return at is None or at >= self.trim_cutoff

    def serving_rows(self, group: str) -> list[dict[str, Any]]:
        """All rows the engine would serve for ``group``, oldest first.

        Sealed segment rows (trim-cutoff filtered) then memtable rows,
        bounded to the newest ``max_rows_per_group`` — the content a
        fresh :class:`HistoryStore` loads after recovery.
        """
        rows = self._collect(group, lsn_bound=None, exclude=frozenset())
        if len(rows) > self.max_rows_per_group:
            rows = rows[-self.max_rows_per_group:]
        return rows

    def acked_rows(
        self, group: str, *, exclude_segments: frozenset[str] = frozenset()
    ) -> list[dict[str, Any]]:
        """The acknowledged prefix: rows guaranteed to survive a crash.

        Memtable rows count only up to ``wal.synced_lsn``; sealed
        segments are durable by construction.  ``exclude_segments`` lets
        the crashtest oracle subtract segments it deliberately corrupted
        (their quarantine is the *expected* outcome, not a loss).
        """
        rows = self._collect(
            group, lsn_bound=self.wal.synced_lsn, exclude=exclude_segments
        )
        if len(rows) > self.max_rows_per_group:
            rows = rows[-self.max_rows_per_group:]
        return rows

    def _collect(
        self, group: str, *, lsn_bound: int | None, exclude: frozenset[str]
    ) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for seg in self.segments.get(group, ()):
            if seg.path in exclude:
                continue
            rows.extend(r for r in seg.rows if self._passes_cutoff(r))
        for lsn, row in self._memtable.get(group, ()):
            if lsn_bound is not None and lsn > lsn_bound:
                break
            rows.append(row)
        return rows

    def groups(self) -> list[str]:
        """Every group with durable or pending rows, sorted."""
        names = set(self.segments)
        names.update(g for g, entries in self._memtable.items() if entries)
        return sorted(names)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        segment_rows = sum(
            seg.row_count for segs in self.segments.values() for seg in segs
        )
        memtable_rows = sum(len(entries) for entries in self._memtable.values())
        return {
            "enabled": True,
            "wal": {
                "gen": self.wal.gen,
                "next_lsn": self.wal.next_lsn,
                "synced_lsn": self.wal.synced_lsn,
                "unsynced_records": self.wal.unsynced_records,
                "sync_interval": self.wal.sync_interval,
            },
            "segments": {
                "count": sum(len(segs) for segs in self.segments.values()),
                "rows": segment_rows,
                "per_group": {
                    group: {"segments": len(segs), "rows": sum(s.row_count for s in segs)}
                    for group, segs in sorted(self.segments.items())
                },
            },
            "memtable_rows": memtable_rows,
            "trim_cutoff": self.trim_cutoff,
            "checkpoints_run": self.checkpoints_run,
            "last_checkpoint_at": self.last_checkpoint_at,
            "recovery": self.recovery_report.as_dict(),
            "disk": self.disk.stats.as_dict(),
        }
