"""E16 — Durability overhead: what the WAL costs, in counts.

The durable history engine promises crash safety for the price of one
encoded frame + CRC per recorded batch and one fsync per group-commit
interval.  What is asserted is that price, in counts:

* **one frame per batch**: every ``record()`` call takes exactly one WAL
  LSN, whatever the batch size;
* **one fsync per group commit**: at ``sync_interval=8`` the disk sees
  one fsync per eight records, no more;
* **bounded frame size**: WAL bytes per row stay under
  :data:`WAL_BYTES_PER_ROW` (a frame per row costs more than a frame per
  poll batch);
* **recovery replays the WAL half and serves the ring**: rebuilding from
  segments + WAL replays one record per unsealed batch and serves n rows.

The wall-clock costs are the e2e harness's (``benchmarks/e2e``):
``storage.wal.self_us_per_record`` per recorded batch and
``storage.engine.recovery_ms`` per recovery.
"""

from repro.core.history import HistoryStore
from repro.glue.schema import standard_schema
from repro.storage.engine import HistoryEngine
from repro.storage.simdisk import SimDisk

N_ROWS = 6000
SYNC_INTERVAL = 8
#: Upper bound on WAL bytes per row by batch size (measured: 382 and 173).
WAL_BYTES_PER_ROW = {1: 400, 6: 200}

#: The relation a Processor poll hands ``HistoryStore.record``.
PROC_COLUMNS = (
    "HostName", "SiteName", "Timestamp", "CPUCount", "LoadAverage1Min",
    "LoadAverage5Min", "LoadAverage15Min", "CPUUtilization", "CPUIdle", "CPUUser",
    "CPUSystem",
)


def proc_row(i: int) -> list:
    return [f"n{i % 8}", "s", 1.0, 2, float(i), 1.0, 1.0, 50.0, 50.0, 35.0, 15.0]


def _wal_counts(batch: int) -> dict:
    """What recording N_ROWS rows in ``batch``-row calls puts on the disk."""
    disk = SimDisk()
    engine = HistoryEngine(disk, sync_interval=SYNC_INTERVAL, max_rows_per_group=N_ROWS)
    store = HistoryStore(standard_schema(), max_rows_per_group=N_ROWS, engine=engine)
    lsn, fsyncs, written = engine.wal.last_lsn, disk.stats.fsyncs, disk.stats.bytes_written
    records = 0
    for i in range(0, N_ROWS, batch):
        store.record(
            "Processor",
            PROC_COLUMNS,
            [proc_row(i + j) for j in range(batch)],
            source_url="u",
            recorded_at=float(i),
        )
        records += 1
    return {
        "records": records,
        "lsns": engine.wal.last_lsn - lsn,
        "fsyncs": disk.stats.fsyncs - fsyncs,
        "wal_bytes_per_row": (disk.stats.bytes_written - written) / N_ROWS,
    }


def test_e16_wal_overhead_within_budget():
    """Durable recording costs one frame per batch and one fsync per group
    commit.  The name is kept from when this asserted a wall-time ratio
    (<= 2x in-memory); the wall cost of a record is now the e2e
    harness's ``storage.wal.self_us_per_record``."""
    for batch in (1, 6):
        counts = _wal_counts(batch)
        assert counts["lsns"] == counts["records"] == N_ROWS // batch, counts
        assert counts["fsyncs"] == counts["records"] // SYNC_INTERVAL, counts
        assert counts["wal_bytes_per_row"] <= WAL_BYTES_PER_ROW[batch], counts


def test_e16_recovery_time_linear_and_fast():
    """Recovery replays one record per unsealed batch and serves the ring.
    The name is kept from when this asserted recovery under 2 s; the
    replayed-record count (linear in the WAL half) is asserted, and the
    wall time is the e2e harness's ``storage.engine.recovery_ms``."""
    for n in (1000, 4000):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=SYNC_INTERVAL, max_rows_per_group=n)
        store = HistoryStore(standard_schema(), max_rows_per_group=n, engine=engine)
        for i in range(0, n, 6):
            store.record(
                "Processor",
                PROC_COLUMNS,
                [proc_row(i + j) for j in range(6)],
                source_url="u",
                recorded_at=float(i),
            )
        store.checkpoint()  # half sealed...
        live = 0
        for i in range(n, n + n // 2, 6):
            store.record(
                "Processor",
                PROC_COLUMNS,
                [proc_row(i + j) for j in range(6)],
                source_url="u",
                recorded_at=float(i),
            )
            live += 1
        store.sync()  # ...half live in the WAL
        disk.crash(None)

        recovered = HistoryEngine(disk, sync_interval=SYNC_INTERVAL, max_rows_per_group=n)
        assert recovered.recovery_report.wal_records_replayed == live
        assert recovered.recovery_report.wal_tail == "clean"
        # The engine keeps every row the ring might still serve; the
        # store it opens under serves the ring's n, nothing acked lost.
        rows = HistoryStore(
            standard_schema(), max_rows_per_group=n, engine=recovered
        ).row_count()
        assert rows == n
