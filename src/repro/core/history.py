"""Historical data store (paper §3.1.1-§3.1.2).

"Historical data is retrieved from the Gateway's internal database": this
module is that database, built on the :mod:`repro.sql` engine.  Every
real-time result the RequestManager produces is recorded into a per-GLUE-
group table (the group's fields plus ``SourceUrl`` and ``RecordedAt``
provenance columns), so a client's historical query is *the same SQL*
executed against the same group name — only the mode flag differs.

Tables are ring-bounded per group to keep long-running gateways at a
fixed memory footprint.

Durability is optional and delegated: when constructed with a
:class:`~repro.storage.engine.HistoryEngine`, every recorded row is
WAL-appended before it is served and every ``trim_older_than`` is
durably logged, so the store's contents survive a gateway crash.  The
engine holds *references to the same row dicts* the serving tables
hold — the durable and serving copies cannot drift between checkpoints.
Without an engine the store is the original pure in-memory ring.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analysis import races
from repro.glue.schema import GlueSchema
from repro.sql.ast_nodes import ColumnDef
from repro.sql.database import Database, Table
from repro.sql.executor import SelectResult
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, compile_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import HistoryEngine

#: Provenance columns appended to every history table.
PROVENANCE = (
    ColumnDef("SourceUrl", "TEXT"),
    ColumnDef("RecordedAt", "TIMESTAMP"),
)


class HistoryStore:
    """Per-group historical tables with provenance and ring bounding."""

    def __init__(
        self,
        schema: GlueSchema,
        *,
        max_rows_per_group: int = 100_000,
        engine: "HistoryEngine | None" = None,
    ) -> None:
        if max_rows_per_group < 1:
            raise ValueError(
                f"max_rows_per_group must be >= 1: {max_rows_per_group!r}"
            )
        self.schema = schema
        self.max_rows_per_group = max_rows_per_group
        self.engine = engine
        self.db = Database()
        self.rows_recorded = 0
        self.rows_evicted = 0
        self.rows_recovered = 0
        if engine is not None:
            self._load_recovered()

    # ------------------------------------------------------------------
    def _load_recovered(self) -> None:
        """Populate serving tables from the engine's recovered rows."""
        assert self.engine is not None
        for group_name in self.engine.groups():
            if not self.schema.has_group(group_name):
                # A durable row for a group this schema no longer knows:
                # keep it durable (it stays in the engine's segments),
                # just don't serve it.
                continue
            table = self._ensure_table(group_name)
            columns = table.column_names
            for row in self.engine.serving_rows(group_name):
                table.rows.append({name: row.get(name) for name in columns})
                self.rows_recovered += 1

    def _ensure_table(self, group_name: str) -> Table:
        group = self.schema.group(group_name)
        if group.name not in self.db.tables:
            columns = [ColumnDef(f.name, f.type) for f in group.fields]
            columns.extend(PROVENANCE)
            self.db.create_table(group.name, columns)
        return self.db.table(group.name)

    def record(
        self,
        group_name: str,
        rows: Iterable[Mapping[str, Any]],
        *,
        source_url: str,
        recorded_at: float,
    ) -> int:
        """Record GLUE rows for a group; returns the number stored."""
        if races.ACTIVE is not None:
            # Registered COMMUTATIVE: sibling-branch appends to one group
            # interleave by launch order, but every row carries its own
            # SourceUrl/RecordedAt provenance, so time-windowed readers
            # (series, rollup, RecordedAt predicates) are insensitive to
            # the interleaving.  A read racing the appends is still
            # flagged (GRM552) — it would see a launch-order prefix.
            races.ACTIVE.note(
                "history", group_name, "w", site="HistoryStore.record"
            )
        table = self._ensure_table(group_name)
        known = set(table.column_names)
        engine = self.engine
        n = 0
        for row in rows:
            stored = {k: v for k, v in row.items() if k in known}
            stored["SourceUrl"] = source_url
            stored["RecordedAt"] = recorded_at
            table.insert_row(stored)
            n += 1
        if engine is not None and n:
            # One WAL record for the whole batch, referencing the coerced
            # dicts the table holds (atomic ack, one frame per call).
            engine.append_rows(table.name, table.rows[-n:])
        self.rows_recorded += n
        overflow = len(table.rows) - self.max_rows_per_group
        if overflow > 0:
            # Rows are appended in time order, so the oldest are first;
            # one slice-delete trims the whole batch's overflow at once.
            del table.rows[:overflow]
            self.rows_evicted += overflow
        return n

    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        *,
        source_url: str | None = None,
        plan: CompiledPlan | None = None,
    ) -> SelectResult:
        """Run a client SELECT against a group's history.

        ``source_url`` optionally narrows to one data source's records —
        the RequestManager passes the URL of the source the client
        addressed.  The WHERE clause may reference ``RecordedAt`` for
        time ranges.  ``plan`` hands down a plan already compiled for
        this exact ``sql`` (the gateway's plan cache does); without one
        the text is parsed and compiled here.  Either way the scan runs
        precompiled closures — column names resolved against the table
        layout once instead of once per row.
        """
        plan = plan or compile_plan(parse_select(sql))
        select = plan.select
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", select.table, "r", site="HistoryStore.query"
            )
        table = self._ensure_table(select.table)
        rows = table.rows
        if source_url is not None:
            rows = [r for r in rows if r.get("SourceUrl") == source_url]
        return plan.bind_mapping(tuple(table.column_names)).execute(rows)

    @staticmethod
    def _since_slice(rows: list[dict[str, Any]], since: float) -> list[dict[str, Any]]:
        """Rows recorded at or after ``since``, found by bisection.

        Rows are appended in ``RecordedAt`` order, so instead of scanning
        every row we bisect to the cutoff.  ``RecordedAt is None`` rows
        sort as -inf: they sit at the front and a time-filtered read
        skips them (same semantics as the old linear filter).
        """
        lo = bisect_left(
            rows,
            since,
            key=lambda r: r["RecordedAt"] if r.get("RecordedAt") is not None
            else float("-inf"),
        )
        return rows[lo:]

    def series(
        self,
        group_name: str,
        field: str,
        *,
        source_url: str | None = None,
        host: str | None = None,
        since: float | None = None,
    ) -> list[tuple[float, Any]]:
        """(RecordedAt, value) pairs for one field — the console's plots."""
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", group_name, "r", site="HistoryStore.series"
            )
        if group_name not in self.db.tables:
            return []
        rows = self.db.table(group_name).rows
        if since is not None:
            rows = self._since_slice(rows, since)
        out: list[tuple[float, Any]] = []
        for row in rows:
            if source_url is not None and row.get("SourceUrl") != source_url:
                continue
            if host is not None and row.get("HostName") != host:
                continue
            t = row.get("RecordedAt")
            if since is not None and t is None:
                continue
            out.append((t, row.get(field)))
        return out

    def rollup(
        self,
        group_name: str,
        field: str,
        *,
        bucket: float,
        host: str | None = None,
        source_url: str | None = None,
        since: float | None = None,
    ) -> list[dict[str, Any]]:
        """Downsample one field's history into fixed time buckets.

        Returns one dict per non-empty bucket with ``bucket_start``,
        ``n``, ``min``, ``avg`` and ``max`` — what the console's plots
        and capacity reports consume when the raw series outgrows the
        screen (a long-running gateway records thousands of samples per
        day even with caching).
        """
        if bucket <= 0:
            raise ValueError(f"bucket must be > 0: {bucket!r}")
        series = self.series(
            group_name, field, host=host, source_url=source_url, since=since
        )
        buckets: dict[int, list[float]] = {}
        for t, value in series:
            if t is None or not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            buckets.setdefault(int(t // bucket), []).append(float(value))
        out = []
        for index in sorted(buckets):
            values = buckets[index]
            out.append(
                {
                    "bucket_start": index * bucket,
                    "n": len(values),
                    "min": min(values),
                    "avg": sum(values) / len(values),
                    "max": max(values),
                }
            )
        return out

    def trim_older_than(self, cutoff: float) -> int:
        """Time-based retention: drop rows recorded before ``cutoff``.

        Complements the per-group ring bound: a site with bursty polling
        can cap history by age instead of (or as well as) by count.
        Returns the number of rows dropped.  With a durable engine the
        trim is WAL-logged (and fsynced) *before* the serving tables
        change, so a crash cannot resurrect trimmed rows.
        """
        if self.engine is not None:
            self.engine.append_trim(cutoff)
        dropped = 0
        for table in self.db.tables.values():
            before = len(table.rows)
            table.rows = [
                r
                for r in table.rows
                if r.get("RecordedAt") is None or r["RecordedAt"] >= cutoff
            ]
            dropped += before - len(table.rows)
        self.rows_evicted += dropped
        return dropped

    # ------------------------------------------------------------------
    # Durability passthroughs (no-ops without an engine)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush the WAL group-commit buffer (advance the ack boundary)."""
        if self.engine is not None:
            self.engine.sync()

    def checkpoint(self) -> None:
        """Seal the memtable and truncate the WAL; re-sync dirty groups."""
        if self.engine is None:
            return
        result = self.engine.checkpoint()
        for group_name in result.serving_dirty:
            self._resync_group(group_name)

    def _resync_group(self, group_name: str) -> None:
        """Rebuild one group's serving rows from the engine.

        Needed when checkpoint retention (``history_retention_age``)
        drops sealed segments whose rows the serving table still held.
        """
        assert self.engine is not None
        if not self.schema.has_group(group_name):
            return
        table = self._ensure_table(group_name)
        before = len(table.rows)
        columns = table.column_names
        table.rows = [
            {name: row.get(name) for name in columns}
            for row in self.engine.serving_rows(group_name)
        ]
        if len(table.rows) < before:
            self.rows_evicted += before - len(table.rows)

    def row_count(self, group_name: str | None = None) -> int:
        if group_name is not None:
            if group_name not in self.db.tables:
                return 0
            return len(self.db.table(group_name).rows)
        return sum(len(t.rows) for t in self.db.tables.values())

    def groups_recorded(self) -> list[str]:
        return sorted(self.db.tables)
