"""The durable history engine: WAL + memtable + sealed segments.

:class:`HistoryEngine` sits underneath
:class:`~repro.core.history.HistoryStore` and owns everything that
touches the :class:`~repro.storage.simdisk.SimDisk`.  It makes rows
durable; which rows a group *keeps* is the store's ring, and the engine
only declines to hold on disk what that ring can never serve again:

* ``append_rows`` — frame a recorded batch (its layout once, its rows as
  tuples) into the WAL (group commit per the policy's fsync interval)
  and keep it in a per-group memtable;
* ``checkpoint`` — seal memtables into immutable segments, truncate the
  WAL, drop head segments below the ring, commit via the manifest
  protocol and garbage-collect;
* construction — run :func:`~repro.storage.recovery.recover_state`, then
  finish with a checkpoint so replayed rows regain a sealed home and
  quarantined segments leave the manifest (recovery is self-healing).

The acknowledgement boundary is ``wal.synced_lsn``: ``acked_rows`` is
the exact set of rows, in log order, the engine promises will survive a
crash; ``serving_rows`` is every row it holds, in the same order — both
in the layout the caller names, mapped by column name.  The crashtest
harness holds a reopened store to what the ring keeps of the
acknowledged rows, as an equality.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry, StatsView
from repro.storage.checkpoint import CheckpointResult, write_manifest
from repro.sql.database import Row
from repro.storage.recovery import MemtableRecord, RecoveryReport, recover_state
from repro.storage.segments import NULL_FIRST, Segment, recorded_key, remap, seal_segment
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
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if max_rows_per_group < 1:
            raise ValueError(f"max_rows_per_group must be >= 1: {max_rows_per_group!r}")
        self.disk = disk
        self.clock = clock
        #: The disk bound: the store's ring, which segments are dropped by.
        self.max_rows_per_group = max_rows_per_group
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
            self._memtable: dict[str, list[MemtableRecord]] = state.memtable
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
    def append_rows(self, group: str, rows: list[Row], columns: tuple[str, ...]) -> int:
        """WAL-append a batch of history rows, laid out as ``columns``, as
        ONE framed record.

        The whole batch shares one LSN — it is acknowledged (or lost)
        atomically, which is exactly the granularity a poll result
        arrives at.  Batching is also the throughput lever: one encoded
        envelope, one CRC and one disk append per ``record()`` call
        instead of per row.

        Rows are kept by reference in the memtable (they are the same
        tuples the serving table holds), so the durable and serving
        copies can never drift between checkpoints.
        """
        if not rows:
            return self.wal.last_lsn
        lsn = self.wal.append(
            {"kind": "rows", "group": group, "columns": columns, "rows": rows}
        )
        self._memtable.setdefault(group, []).append((lsn, columns, rows))
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
        # 1. Seal every non-empty memtable (sorted: deterministic seqs),
        #    one segment per run of records that share a layout.
        for group in sorted(self._memtable):
            records = self._memtable[group]
            for columns, run in groupby(records, key=itemgetter(1)):
                rows = [row for _, _, batch in run for row in batch]
                seg = seal_segment(self.disk, group, self.next_seg_seq, columns, rows)
                self.next_seg_seq += 1
                self.segments.setdefault(group, []).append(seg)
                result.segments_written += 1
                result.rows_sealed += len(rows)
            records.clear()
        # 2. Drop whole head segments the ring can never serve again.
        self._apply_ring(result)
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

    def _apply_ring(self, result: CheckpointResult) -> None:
        """Drop a group's head segments while every row of one sorts, by
        :func:`~repro.storage.segments.recorded_key`, strictly below the
        group's ``max_rows_per_group``-th newest row: the store's ring
        has evicted them and can never serve them again.  Ties are kept
        (arrival decides between them, and the store decides that)."""
        ring = self.max_rows_per_group
        for group in sorted(self.segments):
            segs = self.segments[group]
            if sum(seg.row_count for seg in segs) <= ring:
                continue
            floor = sorted(recorded_key(r) for seg in segs for r in seg.rows)[-ring]
            while max(map(recorded_key, segs[0].rows), default=NULL_FIRST) < floor:
                head = segs.pop(0)
                result.segments_dropped += 1
                result.rows_dropped += head.row_count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def serving_rows(self, group: str, layout: Sequence[str]) -> list[Row]:
        """Every row the engine holds for ``group``, in log order and in
        ``layout``: sealed segments, then the memtable.  A
        :class:`~repro.core.history.HistoryStore` opening on this engine
        applies its ring to them."""
        return self._collect(group, layout, lsn_bound=None, exclude=frozenset())

    def acked_rows(
        self, group: str, layout: Sequence[str], *, exclude_segments: frozenset[str] = frozenset()
    ) -> list[Row]:
        """The acknowledged prefix, in log order and in ``layout``: rows
        guaranteed to survive a crash.

        Memtable rows count only up to ``wal.synced_lsn``; sealed
        segments are durable by construction.  ``exclude_segments`` lets
        the crashtest oracle subtract segments it deliberately corrupted
        (their quarantine is the *expected* outcome, not a loss).
        """
        return self._collect(
            group, layout, lsn_bound=self.wal.synced_lsn, exclude=exclude_segments
        )

    def _collect(
        self, group: str, layout: Sequence[str], *, lsn_bound: int | None, exclude: frozenset[str]
    ) -> list[Row]:
        rows: list[Row] = []
        for seg in self.segments.get(group, ()):
            if seg.path not in exclude:
                rows.extend(remap(seg.rows, seg.columns, layout))
        for lsn, columns, batch in self._memtable.get(group, ()):
            if lsn_bound is not None and lsn > lsn_bound:
                break
            rows.extend(remap(batch, columns, layout))
        return rows

    def groups(self) -> list[str]:
        """Every group with durable or pending rows, sorted."""
        names = set(self.segments)
        names.update(g for g, records in self._memtable.items() if records)
        return sorted(names)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        segment_rows = sum(
            seg.row_count for segs in self.segments.values() for seg in segs
        )
        memtable_rows = sum(
            len(rows) for records in self._memtable.values() for _, _, rows in records
        )
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
            "checkpoints_run": self.checkpoints_run,
            "last_checkpoint_at": self.last_checkpoint_at,
            "recovery": self.recovery_report.as_dict(),
            "disk": self.disk.stats.as_dict(),
        }
