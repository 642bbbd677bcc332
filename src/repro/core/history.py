"""Historical data store (paper §3.1.1-§3.1.2).

"Historical data is retrieved from the Gateway's internal database": this
module is that database, built on the :mod:`repro.sql` engine.  Every
real-time result the RequestManager produces is recorded into a per-GLUE-
group table (the group's fields plus ``SourceUrl`` and ``RecordedAt``
provenance columns), so a client's historical query is *the same SQL*
executed against the same group name — only the mode flag differs.
A stored row is a tuple in that column order (:meth:`HistoryStore.layout`);
readers outside the store read it through :meth:`HistoryStore.query` or
:meth:`HistoryStore.since` plus that layout.

Every HISTORY-mode request names one data source and most name a time
window, so each group keeps one ordered index (:class:`_GroupIndex`):
its rows in stable ``(RecordedAt, arrival)`` order
(:func:`~repro.storage.segments.recorded_key`), group-wide
(``table.rows``) and per ``SourceUrl`` (lists of references to the same
tuples).  Rows do *not* arrive in that order — fan-out siblings record
the rows of one round a few microseconds out of ``RecordedAt`` order, and
recovery hands rows back in log order — so the index places each batch
by bisection (an append when it is the newest, which it almost always
is) and re-sorts stably when a group is rebuilt.  Readers then take a
source's partition by dict lookup and a ``RecordedAt`` range by bisect
instead of scanning the group.

This module is the one place that decides which rows a group keeps: the
newest ``max_rows_per_group`` in index order (the ring), so
long-running gateways stay at a fixed memory footprint.  Recording
evicts from the low end of the index; a rebuild after recovery sorts
every surviving row the same way and evicts the same rows, so a
reopened store serves what one that had recorded only the acknowledged
rows serves.  The index is derived state and never persisted.

Durability is optional and delegated: when constructed with a
:class:`~repro.storage.engine.HistoryEngine`, every recorded row is
WAL-appended before it is served, so the store's contents survive a
gateway crash.  The engine holds *references to the same row tuples*
the serving tables hold — the durable and serving copies cannot drift
between checkpoints.  Without an engine the store is the original pure
in-memory ring.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.analysis import races
from repro.glue.schema import GlueSchema
from repro.sql.ast_nodes import ColumnDef
from repro.sql.database import Database, Row, Table
from repro.sql.values import SelectResult
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, compile_plan
from repro.storage.segments import NULL_FIRST, PROVENANCE_NAMES, recorded_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import HistoryEngine

#: Provenance columns appended to every history table.
PROVENANCE = tuple(map(ColumnDef, PROVENANCE_NAMES, ("TEXT", "TIMESTAMP")))


class _GroupIndex:
    """One group's rows in stable ``(RecordedAt, arrival)`` order.

    ``table.rows`` is the group-wide list and ``by_source`` one list per
    ``SourceUrl`` (a row's last slot but one) over the same tuples in the
    same relative order.  Every row enters or leaves a history table
    through one of the three methods below, which is what keeps the
    lists sorted and in step.
    """

    __slots__ = ("table", "columns", "by_source")

    def __init__(self, table: Table) -> None:
        self.table = table
        self.columns = tuple(table.column_names)
        self.by_source: dict[Any, list[Row]] = {}

    def insert(self, batch: list[Row]) -> None:
        """Place one recorded batch (one source, one instant) after every
        row recorded at or before it — an append unless a sibling branch
        already recorded a later instant."""
        at = recorded_key(batch[0])
        partition = self.by_source.setdefault(batch[0][-2], [])
        for rows in (self.table.rows, partition):
            if rows and recorded_key(rows[-1]) > at:
                i = bisect_right(rows, at, key=recorded_key)
                rows[i:i] = batch
            else:
                rows.extend(batch)

    def evict_oldest(self, n: int) -> None:
        """Ring overflow: drop the ``n`` oldest rows.  The oldest rows of
        the group are the oldest of their sources, so each partition
        loses a prefix."""
        rows = self.table.rows
        heads: dict[Any, int] = {}
        for row in rows[:n]:
            url = row[-2]
            heads[url] = heads.get(url, 0) + 1
        del rows[:n]
        for url, k in heads.items():
            del self.by_source[url][:k]

    def rebuild(self, rows: list[Row], keep: int) -> None:
        """Replace the group's content with the newest ``keep`` of
        ``rows``, given in arrival order: the rows :meth:`insert` and
        :meth:`evict_oldest` would have left, one batch at a time."""
        rows.sort(key=recorded_key)
        del rows[: max(0, len(rows) - keep)]
        self.table.rows = rows
        self.by_source = {}
        for row in rows:
            self.by_source.setdefault(row[-2], []).append(row)

    def rows(self, source_url: str | None) -> list[Row]:
        """The group-wide list, or one source's partition."""
        if source_url is None:
            return self.table.rows
        return self.by_source.get(source_url, [])


def _window(
    rows: list[Row], bounds: tuple[tuple[str, float], ...]
) -> tuple[list[Row], int]:
    """The rows of a sorted list that can satisfy every ``RecordedAt
    <op> number`` bound: the NULL-``RecordedAt`` head (a bound is NULL
    there, not false) plus the bisected range, and the head's length.
    Every row of the range satisfies every bound: the list is sorted by
    ``RecordedAt`` and holds no NaN (:meth:`HistoryStore.record` and
    :func:`~repro.storage.segments.stored_relation` refuse one)."""
    nulls = bisect_right(rows, NULL_FIRST, key=recorded_key)
    lo, hi = nulls, len(rows)
    for op, value in bounds:
        if op == ">=":
            lo = max(lo, bisect_left(rows, value, key=recorded_key))
        elif op == ">":
            lo = max(lo, bisect_right(rows, value, key=recorded_key))
        elif op == "<":
            hi = min(hi, bisect_left(rows, value, key=recorded_key))
        else:
            hi = min(hi, bisect_right(rows, value, key=recorded_key))
    return (rows[:nulls] + rows[lo:hi] if nulls else rows[lo:hi]), nulls


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
        self._index: dict[str, _GroupIndex] = {}
        self.rows_recorded = 0
        self.rows_evicted = 0
        self.rows_recovered = 0
        #: Reads served by :meth:`query`, and the rows they handed to the
        #: bound plan (what a read *touched*, not what it returned).
        self.queries = 0
        self.rows_scanned = 0
        if engine is not None:
            # A durable row for a group this schema no longer knows stays
            # durable (in the engine's segments); it is just not served.
            for group_name in engine.groups():
                self._resync_group(group_name)
            self.rows_recovered = self.row_count()

    # ------------------------------------------------------------------
    def _group(self, group_name: str) -> _GroupIndex:
        group = self.schema.group(group_name)
        index = self._index.get(group.name)
        if index is None:
            columns = [ColumnDef(f.name, f.type) for f in group.fields]
            columns.extend(PROVENANCE)
            index = _GroupIndex(self.db.create_table(group.name, columns))
            self._index[group.name] = index
        return index

    def record(
        self,
        group_name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
        *,
        source_url: str,
        recorded_at: float,
        star_only: bool = False,
    ) -> int:
        """Record a relation's rows for a group; returns the number stored.

        ``rows`` hold one value per name of ``columns``, the relation a
        fetch produced.  Names the group lacks are dropped and fields
        the relation lacks are NULL; ``source_url`` and ``recorded_at``
        fill the provenance columns.  With ``star_only`` — a REALTIME
        fetch — a group the schema does not know, or a relation missing
        any of the group's fields (a narrow projection is not
        representative), records nothing.  The layout is compiled once:
        the table memoises one row builder per ``columns``, which also
        names the fields a layout lacks.  A ``recorded_at`` that stores
        as NaN is no instant: it raises :class:`ValueError` before any
        row is stored.
        """
        if star_only and not self.schema.has_group(group_name):
            return 0
        index = self._group(group_name)
        table = index.table
        build, missing = table.row_builder(tuple(columns), PROVENANCE_NAMES)
        if star_only and missing:
            return 0
        if races.ACTIVE is not None:
            # Registered COMMUTATIVE: sibling-branch appends to one group
            # interleave by launch order, but every row carries its own
            # SourceUrl/RecordedAt provenance and the index orders rows
            # by it, so time-windowed readers (query, since, series)
            # are insensitive to the interleaving.  A read
            # racing the appends is still flagged (GRM552) — it would
            # see a launch-order prefix.
            races.ACTIVE.note(
                "history", table.name, "w", site="HistoryStore.record"
            )
        batch = build(rows, (source_url, recorded_at))
        if not batch:
            return 0
        if batch[0][-1] != batch[0][-1]:
            # NaN is no instant and has no place in the index's order.
            raise ValueError(f"recorded_at is not an instant: {recorded_at!r}")
        index.insert(batch)
        if self.engine is not None:
            # One WAL record for the whole batch, referencing the coerced
            # tuples the table holds (atomic ack, one frame per call).
            self.engine.append_rows(table.name, batch, index.columns)
        self.rows_recorded += len(batch)
        overflow = len(table.rows) - self.max_rows_per_group
        if overflow > 0:
            index.evict_oldest(overflow)
            self.rows_evicted += overflow
        return len(batch)

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

        The plan sees the source's partition narrowed to the window its
        leading ``RecordedAt`` bounds allow (see
        :meth:`~repro.sql.plan.BoundPlan.leading_bounds`): the NULL-
        ``RecordedAt`` head, which runs the whole WHERE, then the
        bisected range, which the bounds' conjuncts have already judged
        and which runs only the rest of it (``execute(rows, window=…)``).
        Narrowing spares the plan rows it would have rejected, and the
        window spares it conjuncts it would have found true; the answer
        and the first error are the whole WHERE's over the window.
        """
        plan = plan or compile_plan(parse_select(sql))
        select = plan.select
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", select.table, "r", site="HistoryStore.query"
            )
        index = self._group(select.table)
        bound = plan.bind(index.columns)
        rows = index.rows(source_url)
        bounds = bound.leading_bounds("RecordedAt")
        window: tuple[str, int] | None = None
        if bounds:
            rows, head = _window(rows, bounds)
            window = ("RecordedAt", head)
        self.queries += 1
        self.rows_scanned += len(rows)
        return bound.execute(rows, window=window)

    def since(
        self,
        group_name: str,
        watermark: float | None,
        *,
        source_url: str | None = None,
    ) -> list[Row]:
        """A group's rows (one source's with ``source_url``) recorded at
        or after ``watermark``, oldest first, as stored: tuples laid out
        as :meth:`layout`.

        A row with a NULL ``RecordedAt`` is at no instant (it sorts
        before every finite one) and is never returned for a watermark;
        ``watermark=None`` asks for every row, those included.  The
        result is for reading only (it may be the index's own list).
        """
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", group_name, "r", site="HistoryStore.since"
            )
        index = self._index.get(group_name)
        if index is None:
            return []
        rows = index.rows(source_url)
        if watermark is None:
            return rows
        return rows[bisect_left(rows, watermark, key=recorded_key):]

    def layout(self, group_name: str) -> tuple[str, ...]:
        """The column order of a group's stored rows: its GLUE fields,
        then ``SourceUrl`` and ``RecordedAt``."""
        return (*self.schema.group(group_name).field_names(), *PROVENANCE_NAMES)

    def series(
        self,
        group_name: str,
        field: str,
        *,
        source_url: str | None = None,
        host: str | None = None,
        since: float | None = None,
    ) -> list[tuple[float, Any]]:
        """(RecordedAt, value) pairs for one field — the console's plots.
        A field the group lacks reads NULL."""
        rows = self.since(group_name, since, source_url=source_url)
        if not rows:
            return []
        at = {name: i for i, name in enumerate(self.layout(group_name))}
        value, host_at = at.get(field), at.get("HostName")
        return [
            (row[-1], None if value is None else row[value])
            for row in rows
            if host is None or (host_at is not None and row[host_at] == host)
        ]

    # ------------------------------------------------------------------
    # Durability passthroughs (no-ops without an engine)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush the WAL group-commit buffer (advance the ack boundary)."""
        if self.engine is not None:
            self.engine.sync()

    def checkpoint(self) -> None:
        """Seal the memtable and truncate the WAL."""
        if self.engine is not None:
            self.engine.checkpoint()

    def _resync_group(self, group_name: str) -> None:
        """Load one group's serving rows (and index) from the engine when
        the store opens: every surviving row, in log order, under the
        ring :meth:`record` applies."""
        assert self.engine is not None
        if not self.schema.has_group(group_name):
            return
        index = self._group(group_name)
        index.rebuild(
            self.engine.serving_rows(group_name, index.columns), self.max_rows_per_group
        )

    def row_count(self, group_name: str | None = None) -> int:
        if group_name is not None:
            if group_name not in self.db.tables:
                return 0
            return len(self.db.table(group_name).rows)
        return sum(len(t.rows) for t in self.db.tables.values())

    def groups_recorded(self) -> list[str]:
        return sorted(self.db.tables)
