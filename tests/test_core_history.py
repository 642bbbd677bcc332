"""Unit tests for the historical data store."""

import pytest

from repro.core.history import HistoryStore
from repro.glue.schema import standard_schema


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
        n = store.record("Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert n == 1
        assert store.row_count("Processor") == 1

    def test_provenance_columns_attached(self, store):
        store.record("Processor", [proc_row()], source_url="u1", recorded_at=5.0)
        result = store.query("SELECT SourceUrl, RecordedAt FROM Processor")
        assert result.rows == [["u1", 5.0]]

    def test_extra_keys_dropped(self, store):
        row = proc_row()
        row["NotAGlueField"] = 1
        store.record("Processor", [row], source_url="u", recorded_at=1.0)
        assert store.row_count("Processor") == 1

    def test_unknown_group_rejected(self, store):
        with pytest.raises(KeyError):
            store.record("Bogus", [{}], source_url="u", recorded_at=1.0)

    def test_ring_bound_evicts_oldest(self, store):
        for i in range(150):
            store.record(
                "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        assert store.row_count("Processor") == 100
        assert store.rows_evicted == 50
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 50.0

    def test_groups_recorded(self, store):
        store.record("Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert store.groups_recorded() == ["Processor"]


class TestQuery:
    def test_same_sql_as_realtime(self, store):
        store.record("Processor", [proc_row(load=0.5)], source_url="u", recorded_at=1.0)
        store.record("Processor", [proc_row(load=2.5)], source_url="u", recorded_at=2.0)
        result = store.query("SELECT LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 1")
        assert result.rows == [[2.5]]

    def test_source_url_narrows(self, store):
        store.record("Processor", [proc_row()], source_url="u1", recorded_at=1.0)
        store.record("Processor", [proc_row()], source_url="u2", recorded_at=1.0)
        result = store.query("SELECT COUNT(*) FROM Processor", source_url="u1")
        assert result.rows == [[1]]

    def test_time_range_via_recorded_at(self, store):
        for t in (1.0, 2.0, 3.0):
            store.record("Processor", [proc_row()], source_url="u", recorded_at=t)
        result = store.query("SELECT COUNT(*) FROM Processor WHERE RecordedAt >= 2")
        assert result.rows == [[2]]

    def test_query_before_any_record_is_empty(self, store):
        assert store.query("SELECT * FROM Processor").rows == []


class TestRollup:
    def test_buckets_aggregate(self, store):
        for t, load in [(1.0, 1.0), (5.0, 3.0), (12.0, 10.0)]:
            store.record("Processor", [proc_row(load=load)], source_url="u", recorded_at=t)
        out = store.rollup("Processor", "LoadAverage1Min", bucket=10.0)
        assert len(out) == 2
        first = out[0]
        assert first["bucket_start"] == 0.0
        assert first["n"] == 2
        assert first["min"] == 1.0 and first["max"] == 3.0
        assert first["avg"] == pytest.approx(2.0)
        assert out[1]["avg"] == 10.0

    def test_empty_buckets_omitted(self, store):
        store.record("Processor", [proc_row()], source_url="u", recorded_at=0.0)
        store.record("Processor", [proc_row()], source_url="u", recorded_at=100.0)
        out = store.rollup("Processor", "LoadAverage1Min", bucket=10.0)
        assert [b["bucket_start"] for b in out] == [0.0, 100.0]

    def test_non_numeric_values_skipped(self, store):
        store.record("Processor", [proc_row(Vendor="Intel")], source_url="u", recorded_at=1.0)
        out = store.rollup("Processor", "Vendor", bucket=10.0)
        assert out == []

    def test_host_filter(self, store):
        store.record("Processor", [proc_row(host="a", load=1.0)], source_url="u", recorded_at=1.0)
        store.record("Processor", [proc_row(host="b", load=9.0)], source_url="u", recorded_at=2.0)
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
            store.record("Processor", [proc_row()], source_url="u", recorded_at=t)
        assert [r["RecordedAt"] for r in store.since("Processor", None)] == [5.0, 9.0]
        assert store.rows_evicted == 1

    def test_trim_spans_all_groups(self):
        """The ring is per group: one group's overflow evicts nothing
        from another."""
        store = HistoryStore(standard_schema(), max_rows_per_group=1)
        host_row = {"HostName": "n0", "SiteName": "s", "Timestamp": 1.0,
                    "UniqueId": "x", "Reachable": True, "AgentName": "a"}
        store.record("Host", [host_row], source_url="u", recorded_at=1.0)
        for t in (1.0, 2.0):
            store.record("Processor", [proc_row()], source_url="u", recorded_at=t)
        assert (store.row_count("Host"), store.row_count("Processor")) == (1, 1)
        assert store.rows_evicted == 1

    def test_trim_noop_when_all_fresh(self, store):
        """Under capacity nothing is evicted, however old."""
        store.record("Processor", [proc_row()], source_url="u", recorded_at=-1e9)
        store.record("Processor", [proc_row()], source_url="u", recorded_at=10.0)
        assert store.row_count("Processor") == 2
        assert store.rows_evicted == 0


class TestSeries:
    def test_series_pairs(self, store):
        for t, load in [(1.0, 0.1), (2.0, 0.2)]:
            store.record("Processor", [proc_row(load=load)], source_url="u", recorded_at=t)
        series = store.series("Processor", "LoadAverage1Min")
        assert series == [(1.0, 0.1), (2.0, 0.2)]

    def test_series_filters_by_host(self, store):
        store.record("Processor", [proc_row(host="a")], source_url="u", recorded_at=1.0)
        store.record("Processor", [proc_row(host="b")], source_url="u", recorded_at=2.0)
        assert len(store.series("Processor", "LoadAverage1Min", host="a")) == 1

    def test_series_since(self, store):
        for t in (1.0, 5.0, 9.0):
            store.record("Processor", [proc_row()], source_url="u", recorded_at=t)
        assert len(store.series("Processor", "LoadAverage1Min", since=4.0)) == 2

    def test_series_unknown_group_empty(self, store):
        assert store.series("Job", "CPUSeconds") == []


class TestRetentionEdgeCases:
    def test_ring_and_trim_interact(self, store):
        """Re-aimed (no trim): the ring and late batches compose.  A late
        row older than everything kept is evicted as it arrives; one
        inside the window displaces the oldest instant."""
        for i in range(150):
            store.record(
                "Processor",
                [proc_row(load=float(i))],
                source_url="u",
                recorded_at=float(i),
            )
        assert store.row_count("Processor") == 100  # ring kept 50..149
        store.record("Processor", [proc_row(load=-1.0)], source_url="u", recorded_at=10.0)
        assert store.rows_evicted == 51
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 50.0
        store.record("Processor", [proc_row(load=-2.0)], source_url="u", recorded_at=120.5)
        assert store.row_count("Processor") == 100
        assert store.rows_evicted == 52
        oldest = store.query("SELECT MIN(RecordedAt) FROM Processor").rows[0][0]
        assert oldest == 51.0

    def test_recorded_at_none_rows_survive_trim(self):
        """Re-aimed (NULL rows are exempt from nothing): a NULL
        ``RecordedAt`` sorts before every instant, so it is the first row
        the ring evicts."""
        store = HistoryStore(standard_schema(), max_rows_per_group=1)
        store.record("Processor", [proc_row()], source_url="u", recorded_at=None)
        store.record("Processor", [proc_row()], source_url="u", recorded_at=1.0)
        assert [r["RecordedAt"] for r in store.since("Processor", None)] == [1.0]

    def test_series_since_skips_recorded_at_none(self, store):
        store.record("Processor", [proc_row(load=1.0)], source_url="u", recorded_at=None)
        store.record("Processor", [proc_row(load=2.0)], source_url="u", recorded_at=5.0)
        assert store.series("Processor", "LoadAverage1Min") == [
            (None, 1.0),
            (5.0, 2.0),
        ]
        assert store.series("Processor", "LoadAverage1Min", since=0.0) == [(5.0, 2.0)]

    def test_since_bisection_matches_linear_filter(self, store):
        for i in range(20):
            store.record(
                "Processor",
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
        store.record(
            "Host",
            [{"HostName": "n0", "SiteName": "s", "Reachable": True}],
            source_url="u",
            recorded_at=1.0,
        )
        assert store.rollup("Host", "Reachable", bucket=10.0) == []
        # Sanity: the same row does roll up on a numeric field.
        store.record(
            "Processor", [proc_row(load=3.0)], source_url="u", recorded_at=1.0
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
            store.record(
                "Processor",
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
            store.record(
                "Processor",
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
            store.record(
                "Processor", [proc_row(load=float(i))], source_url="u", recorded_at=at
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
        store.record("Processor", [proc_row()], source_url="u", recorded_at=1.0)
        store.checkpoint()  # seals the row; WAL is empty again
        disk.crash(None)
        recovered = self._durable_store(disk)
        assert recovered.row_count("Processor") == 1
        assert recovered.engine.recovery_report.wal_records_replayed == 0
