"""Unit tests for the historical data store."""

import pytest

from repro.core.history import HistoryStore
from repro.glue.schema import standard_schema
from repro.sql.database import ROW_BUILDER_MEMO_SIZE
from repro.sql.errors import SqlExecutionError
from tests.history_rows import record_rows


@pytest.fixture
def store():
    return HistoryStore(standard_schema(), max_rows_per_group=100)


def proc_row(host="n0", load=1.0, **overrides):
    row = {
        "HostName": host,
        "SiteName": "s",
        "Timestamp": 1.0,
        "Vendor": None,
        "Model": None,
        "ClockSpeedMHz": None,
        "CPUCount": 2,
        "LoadAverage1Min": load,
        "LoadAverage5Min": load,
        "LoadAverage15Min": load,
        "CPUUtilization": 50.0,
        "CPUIdle": 50.0,
        "CPUUser": 35.0,
        "CPUSystem": 15.0,
    }
    row.update(overrides)
    return row


class TestRecord:
    def test_record_and_count(self, store):
        n = record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert n == 1
        assert store.row_count("Processor") == 1

    def test_provenance_columns_attached(self, store):
        record_rows(store, "Processor", [proc_row()], source_url="u1", recorded_at=5.0)
        result = store.query("SELECT SourceUrl, RecordedAt FROM Processor")
        assert result.rows == [["u1", 5.0]]

    def test_extra_keys_dropped(self, store):
        row = proc_row()
        row["NotAGlueField"] = 1
        record_rows(store, "Processor", [row], source_url="u", recorded_at=1.0)
        assert store.row_count("Processor") == 1

    def test_unknown_group_rejected(self, store):
        with pytest.raises(KeyError):
            record_rows(store, "Bogus", [{}], source_url="u", recorded_at=1.0)

    def test_ring_bound_evicts_oldest(self, store):
        for i in range(150):
            record_rows(
                store, "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        assert store.row_count("Processor") == 100
        assert store.rows_evicted == 50
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 50.0

    def test_groups_recorded(self, store):
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert store.groups_recorded() == ["Processor"]


class TestQuery:
    def test_same_sql_as_realtime(self, store):
        record_rows(store, "Processor", [proc_row(load=0.5)], source_url="u", recorded_at=1.0)
        record_rows(store, "Processor", [proc_row(load=2.5)], source_url="u", recorded_at=2.0)
        result = store.query("SELECT LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 1")
        assert result.rows == [[2.5]]

    def test_source_url_narrows(self, store):
        record_rows(store, "Processor", [proc_row()], source_url="u1", recorded_at=1.0)
        record_rows(store, "Processor", [proc_row()], source_url="u2", recorded_at=1.0)
        result = store.query("SELECT COUNT(*) FROM Processor", source_url="u1")
        assert result.rows == [[1]]

    def test_time_range_via_recorded_at(self, store):
        for t in (1.0, 2.0, 3.0):
            record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=t)
        result = store.query("SELECT COUNT(*) FROM Processor WHERE RecordedAt >= 2")
        assert result.rows == [[2]]

    def test_query_before_any_record_is_empty(self, store):
        assert store.query("SELECT * FROM Processor").rows == []


class TestRollup:
    def test_buckets_aggregate(self, store):
        for t, load in [(1.0, 1.0), (5.0, 3.0), (12.0, 10.0)]:
            record_rows(store, "Processor", [proc_row(load=load)], source_url="u", recorded_at=t)
        out = store.rollup("Processor", "LoadAverage1Min", bucket=10.0)
        assert len(out) == 2
        first = out[0]
        assert first["bucket_start"] == 0.0
        assert first["n"] == 2
        assert first["min"] == 1.0 and first["max"] == 3.0
        assert first["avg"] == pytest.approx(2.0)
        assert out[1]["avg"] == 10.0

    def test_empty_buckets_omitted(self, store):
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=0.0)
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=100.0)
        out = store.rollup("Processor", "LoadAverage1Min", bucket=10.0)
        assert [b["bucket_start"] for b in out] == [0.0, 100.0]

    def test_non_numeric_values_skipped(self, store):
        record_rows(store, "Processor", [proc_row(Vendor="Intel")], source_url="u", recorded_at=1.0)
        out = store.rollup("Processor", "Vendor", bucket=10.0)
        assert out == []

    def test_host_filter(self, store):
        record_rows(
            store, "Processor", [proc_row(host="a", load=1.0)], source_url="u",
            recorded_at=1.0,
        )
        record_rows(
            store, "Processor", [proc_row(host="b", load=9.0)], source_url="u",
            recorded_at=2.0,
        )
        out = store.rollup("Processor", "LoadAverage1Min", bucket=10.0, host="a")
        assert out[0]["max"] == 1.0

    def test_bad_bucket_rejected(self, store):
        with pytest.raises(ValueError):
            store.rollup("Processor", "LoadAverage1Min", bucket=0.0)


class TestRetention:
    """Time-based trimming is gone; the ring is the one retention rule.
    These ids are re-aimed at it."""

    def test_trim_older_than(self):
        """The ring drops the oldest instants and counts them."""
        store = HistoryStore(standard_schema(), max_rows_per_group=2)
        for t in (1.0, 5.0, 9.0):
            record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=t)
        assert [r["RecordedAt"] for r in store.since("Processor", None)] == [5.0, 9.0]
        assert store.rows_evicted == 1

    def test_trim_spans_all_groups(self):
        """The ring is per group: one group's overflow evicts nothing
        from another."""
        store = HistoryStore(standard_schema(), max_rows_per_group=1)
        host_row = {"HostName": "n0", "SiteName": "s", "Timestamp": 1.0,
                    "UniqueId": "x", "Reachable": True, "AgentName": "a"}
        record_rows(store, "Host", [host_row], source_url="u", recorded_at=1.0)
        for t in (1.0, 2.0):
            record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=t)
        assert (store.row_count("Host"), store.row_count("Processor")) == (1, 1)
        assert store.rows_evicted == 1

    def test_trim_noop_when_all_fresh(self, store):
        """Under capacity nothing is evicted, however old."""
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=-1e9)
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=10.0)
        assert store.row_count("Processor") == 2
        assert store.rows_evicted == 0


class TestSeries:
    def test_series_pairs(self, store):
        for t, load in [(1.0, 0.1), (2.0, 0.2)]:
            record_rows(store, "Processor", [proc_row(load=load)], source_url="u", recorded_at=t)
        series = store.series("Processor", "LoadAverage1Min")
        assert series == [(1.0, 0.1), (2.0, 0.2)]

    def test_series_filters_by_host(self, store):
        record_rows(store, "Processor", [proc_row(host="a")], source_url="u", recorded_at=1.0)
        record_rows(store, "Processor", [proc_row(host="b")], source_url="u", recorded_at=2.0)
        assert len(store.series("Processor", "LoadAverage1Min", host="a")) == 1

    def test_series_since(self, store):
        for t in (1.0, 5.0, 9.0):
            record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=t)
        assert len(store.series("Processor", "LoadAverage1Min", since=4.0)) == 2

    def test_series_unknown_group_empty(self, store):
        assert store.series("Job", "CPUSeconds") == []


class TestRetentionEdgeCases:
    def test_ring_and_trim_interact(self, store):
        """Re-aimed (no trim): the ring and late batches compose.  A late
        row older than everything kept is evicted as it arrives; one
        inside the window displaces the oldest instant."""
        for i in range(150):
            record_rows(
                store, "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        assert store.row_count("Processor") == 100  # ring kept 50..149
        record_rows(store, "Processor", [proc_row(load=-1.0)], source_url="u", recorded_at=10.0)
        assert store.rows_evicted == 51
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 50.0
        record_rows(store, "Processor", [proc_row(load=-2.0)], source_url="u", recorded_at=120.5)
        assert store.row_count("Processor") == 100
        assert store.rows_evicted == 52
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 51.0

    def test_recorded_at_none_rows_survive_trim(self):
        """Re-aimed (NULL rows are exempt from nothing): a NULL
        ``RecordedAt`` sorts before every instant, so it is the first row
        the ring evicts."""
        store = HistoryStore(standard_schema(), max_rows_per_group=1)
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=None)
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert [r["RecordedAt"] for r in store.since("Processor", None)] == [1.0]

    def test_series_since_skips_recorded_at_none(self, store):
        record_rows(store, "Processor", [proc_row(load=1.0)], source_url="u", recorded_at=None)
        record_rows(store, "Processor", [proc_row(load=2.0)], source_url="u", recorded_at=5.0)
        assert store.series("Processor", "LoadAverage1Min") == [
            (None, 1.0),
            (5.0, 2.0),
        ]
        assert store.series("Processor", "LoadAverage1Min", since=0.0) == [(5.0, 2.0)]

    def test_since_bisection_matches_linear_filter(self, store):
        for i in range(20):
            record_rows(
                store, "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        for since in (-1.0, 0.0, 7.5, 19.0, 25.0):
            got = store.series("Processor", "LoadAverage1Min", since=since)
            want = [
                (float(i), float(i)) for i in range(20) if float(i) >= since
            ]
            assert got == want, f"since={since}"

    def test_bool_values_excluded_from_rollup(self, store):
        record_rows(
            store, "Host",
            [{"HostName": "n0", "SiteName": "s", "Reachable": True}],
            source_url="u",
            recorded_at=1.0,
        )
        assert store.rollup("Host", "Reachable", bucket=10.0) == []
        # Sanity: the same row does roll up on a numeric field.
        record_rows(
            store, "Processor", [proc_row(load=3.0)], source_url="u", recorded_at=1.0
        )
        assert store.rollup("Processor", "LoadAverage1Min", bucket=10.0)[0]["n"] == 1


class TestDurableRoundTrip:
    def _durable_store(self, disk, ring=100):
        from repro.storage.engine import HistoryEngine

        engine = HistoryEngine(disk, sync_interval=4, max_rows_per_group=ring)
        return HistoryStore(standard_schema(), max_rows_per_group=ring, engine=engine)

    def test_record_crash_recover_serves_identical_answers(self):
        from repro.storage.simdisk import SimDisk

        disk = SimDisk()
        store = self._durable_store(disk)
        for i in range(12):
            record_rows(
                store, "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        store.sync()  # everything acked
        sql = "SELECT HostName, LoadAverage1Min, RecordedAt FROM Processor"
        want_query = store.query(sql).rows
        want_series = store.series("Processor", "LoadAverage1Min", since=3.0)
        want_rollup = store.rollup("Processor", "LoadAverage1Min", bucket=5.0)

        disk.crash(None)
        recovered = self._durable_store(disk)
        assert recovered.rows_recovered == 12
        assert recovered.query(sql).rows == want_query
        assert recovered.series("Processor", "LoadAverage1Min", since=3.0) == want_series
        assert recovered.rollup("Processor", "LoadAverage1Min", bucket=5.0) == want_rollup

    def test_unacked_suffix_lost_on_crash(self):
        from repro.storage.simdisk import SimDisk

        disk = SimDisk()
        store = self._durable_store(disk)
        for i in range(6):  # interval 4: rows 4 and 5 unacked
            record_rows(
                store, "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        disk.crash(None)
        recovered = self._durable_store(disk)
        assert recovered.row_count("Processor") == 4

    def test_trim_not_resurrected_by_crash(self):
        """Re-aimed (no trim): a row the ring evicted is not resurrected
        by a crash.  The late batch (t=0.5) is older than everything the
        ring keeps, so it is evicted as it arrives, yet it is among the
        newest arrivals on disk; reopening must serve t=3 again, not it."""
        from repro.storage.simdisk import SimDisk

        disk = SimDisk()
        store = self._durable_store(disk, ring=4)
        for i, at in enumerate((0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 0.5, 7.0)):
            record_rows(
                store, "Processor", [proc_row(load=float(i))], source_url="u", recorded_at=at
            )
            if i == 3:
                store.checkpoint()
        store.sync()
        sql = "SELECT LoadAverage1Min, RecordedAt FROM Processor"
        want = store.query(sql).rows
        assert [r[1] for r in want] == [3.0, 5.0, 6.0, 7.0]
        disk.crash(None)
        assert self._durable_store(disk, ring=4).query(sql).rows == want

    def test_checkpoint_then_recover_without_wal(self):
        from repro.storage.simdisk import SimDisk

        disk = SimDisk()
        store = self._durable_store(disk)
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at=1.0)
        store.checkpoint()  # seals the row; WAL is empty again
        disk.crash(None)
        recovered = self._durable_store(disk)
        assert recovered.row_count("Processor") == 1
        assert recovered.engine.recovery_report.wal_records_replayed == 0


# ----------------------------------------------------------------------
# The positional record path against an independent reference
# ----------------------------------------------------------------------
#: Declared type -> what a stored value of it is, written out here and
#: not read from ``repro.sql.database``.
COERCE = {"INTEGER": int, "REAL": float, "TEXT": str, "BOOLEAN": bool, "TIMESTAMP": float}
PROVENANCE_TYPES = (("SourceUrl", "TEXT"), ("RecordedAt", "TIMESTAMP"))


def reference_rows(group, columns, rows, *, source_url, recorded_at):
    """What ``record`` must store: ``dict(zip)`` of each row, provenance
    from the arguments, every table column in table order, coerced."""
    schema_group = standard_schema().group(group)
    layout = [(f.name, f.type) for f in schema_group.fields] + list(PROVENANCE_TYPES)
    out = []
    for values in rows:
        given = dict(zip(columns, values))
        given["SourceUrl"] = source_url
        given["RecordedAt"] = recorded_at
        stored = {}
        for name, type_ in layout:
            value = given.get(name)
            stored[name] = None if value is None else COERCE[type_](value)
        out.append(stored)
    return out


POSITIONAL_CASES = {
    "bool_into_integer": (("HostName", "CPUCount"), [["a", True], ["b", False]]),
    "int_into_real": (("HostName", "LoadAverage1Min"), [["a", 3]]),
    "numeric_text_into_real": (("HostName", "LoadAverage1Min", "CPUCount"), [["a", "2.5", "4"]]),
    "none": (("HostName", "LoadAverage1Min", "Vendor"), [[None, None, None]]),
    "missing_columns": (("LoadAverage5Min",), [[1.0], [2.0]]),
    "extra_columns": (("HostName", "NotAField", "Junk"), [["a", 1, object()]]),
    "duplicate_columns": (("HostName", "LoadAverage1Min", "HostName"), [["a", 1.0, "b"]]),
    "provenance_in_layout": (("HostName", "SourceUrl", "RecordedAt"), [["a", "x://y", 99.0]]),
    "text_from_number": (("HostName", "Vendor"), [[7, 1.5]]),
    "empty_batch": (("HostName",), []),
}


class TestPositionalRecord:
    """``record(group, columns, rows)`` stores what ``dict(zip)`` plus the
    coercion table above would, with the table's key order and the given
    value objects, cold (the layout's builder compiled) and warm (read
    from the table's memo)."""

    @pytest.mark.parametrize("case", sorted(POSITIONAL_CASES))
    def test_matches_the_reference_cold_and_warm(self, store, case):
        columns, rows = POSITIONAL_CASES[case]
        for at in (1.0, 2):  # cold, then warm through the same layout
            n = store.record("Processor", columns, rows, source_url="u", recorded_at=at)
            want = reference_rows("Processor", columns, rows, source_url="u", recorded_at=at)
            got = store.since("Processor", None)[-len(rows):] if rows else []
            assert n == len(rows)
            assert got == want
            for g, w in zip(got, want):
                assert list(g) == list(w)
                assert [type(v) for v in g.values()] == [type(v) for v in w.values()]
        assert len(store.db.table("Processor")._builders) == 1

    def test_value_objects_are_kept(self, store):
        host, site = "host-" + "x" * 3, "site-" + "y" * 3
        store.record("Processor", ("HostName", "SiteName"), [[host, site]],
                     source_url="u", recorded_at=1.0)
        (row,) = store.since("Processor", None)
        assert row["HostName"] is host and row["SiteName"] is site
        table = store.db.table("Processor")
        assert all(a is b for a, b in zip(row, table.column_names))

    @pytest.mark.parametrize("warm", [False, True])
    def test_uncoercible_value_gives_the_same_message(self, store, warm):
        columns = ("HostName", "LoadAverage1Min")
        if warm:
            store.record("Processor", columns, [["a", 1.0]], source_url="u", recorded_at=1.0)
        before = store.row_count("Processor")
        with pytest.raises(SqlExecutionError) as info:
            store.record("Processor", columns, [["a", 1.0], ["b", "high"]],
                         source_url="u", recorded_at=2.0)
        assert str(info.value) == "cannot coerce 'high' to REAL for Processor.LoadAverage1Min"
        assert store.row_count("Processor") == before  # all or nothing

    def test_star_only_records_whole_relations_only(self, store):
        fields = tuple(standard_schema().group("Processor").field_names())
        narrow = ("HostName", "LoadAverage1Min")
        row = [None] * len(fields)
        for _ in range(2):
            assert store.record("Processor", narrow, [["a", 1.0]], source_url="u",
                                recorded_at=1.0, star_only=True) == 0
            assert store.record("NoSuchGroup", fields, [row], source_url="u",
                                recorded_at=1.0, star_only=True) == 0
        assert store.row_count() == 0
        assert store.record("processor", (*fields, "Extra"), [[*row, 1]], source_url="u",
                            recorded_at=1.0, star_only=True) == 1
        assert store.row_count("Processor") == 1

    def test_memo_is_bounded(self, store):
        for i in range(ROW_BUILDER_MEMO_SIZE + 5):
            columns = ("HostName", f"Extra{i}")
            store.record("Processor", columns, [[f"h{i}", i]], source_url="u",
                         recorded_at=float(i))
        table = store.db.table("Processor")
        assert len(table._builders) == ROW_BUILDER_MEMO_SIZE
        assert [r["HostName"] for r in store.since("Processor", None)][-2:] == [
            f"h{ROW_BUILDER_MEMO_SIZE + 3}", f"h{ROW_BUILDER_MEMO_SIZE + 4}"
        ]
