"""E16 — Durability overhead: WAL-on vs WAL-off record throughput.

The durable history engine promises crash safety for the price of one
encoded frame + CRC per recorded batch and one fsync per group-commit
interval.  The claims to measure:

* **WAL overhead <= 2x**: recording through the WAL costs at most twice
  the pure in-memory path on the workload the gateway actually runs
  (per-source row batches, as a poll round produces);
* **recovery is fast**: rebuilding the engine from segments + WAL replay
  is linear in the recovered rows and takes milliseconds at history-ring
  scale.

Wall-clock timing lives here (benchmarks/, not src/ — the GRM101 lint keeps
``time`` out of the simulation); each sample is a best-of-N minimum to
damp CI noise.  Numbers land in ``BENCH_durability.json`` at the repo
root so the ``crash-smoke`` CI job archives them run over run.
"""

import json
import pathlib
import time

from repro.core.history import HistoryStore
from repro.glue.schema import standard_schema
from repro.storage.engine import HistoryEngine
from repro.storage.simdisk import SimDisk

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_durability.json"

N_ROWS = 6000
BEST_OF = 5

_RESULTS: dict = {}


def _record(key: str, payload: dict) -> None:
    """Accumulate one section of BENCH_durability.json and (re)write it."""
    _RESULTS[key] = payload
    BENCH_JSON.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def proc_row(i: int) -> dict:
    return {
        "HostName": f"n{i % 8}",
        "SiteName": "s",
        "Timestamp": 1.0,
        "CPUCount": 2,
        "LoadAverage1Min": float(i),
        "LoadAverage5Min": 1.0,
        "LoadAverage15Min": 1.0,
        "CPUUtilization": 50.0,
        "CPUIdle": 50.0,
        "CPUUser": 35.0,
        "CPUSystem": 15.0,
    }


def _record_run(engine: HistoryEngine | None, batch: int) -> float:
    """Wall seconds to record N_ROWS rows in ``batch``-row calls."""
    store = HistoryStore(
        standard_schema(), max_rows_per_group=N_ROWS, engine=engine
    )
    batches = [
        [proc_row(i + j) for j in range(batch)] for i in range(0, N_ROWS, batch)
    ]
    t0 = time.perf_counter()
    for i, rows in enumerate(batches):
        store.record("Processor", rows, source_url="u", recorded_at=float(i))
    return time.perf_counter() - t0


def _best(thunk) -> float:
    return min(thunk() for _ in range(BEST_OF))


def test_e16_wal_overhead_within_budget():
    """Durable recording costs <= 2x in-memory on the poll workload."""
    _record_run(None, 1)  # warm caches before timing
    ratios = {}
    for batch in (1, 6):
        off = _best(lambda b=batch: _record_run(None, b))
        on = _best(
            lambda b=batch: _record_run(
                HistoryEngine(SimDisk(), sync_interval=8, max_rows_per_group=N_ROWS),
                b,
            )
        )
        ratios[batch] = {
            "wal_off_s": off,
            "wal_on_s": on,
            "ratio": on / off,
            "rows_per_s_wal_on": N_ROWS / on,
        }
    _record(
        "record_throughput",
        {
            "rows": N_ROWS,
            "fsync_interval": 8,
            "single_row_batches": ratios[1],
            "poll_batches_of_6": ratios[6],
            "wal_overhead_ratio": ratios[6]["ratio"],
        },
    )
    # The poll workload (a ganglia/scms source records one multi-row
    # batch per round) is the acceptance number; single-row batches pay
    # a frame per row and sit near the budget (~1.7-2.2x measured), so
    # they get a sanity bound loose enough for a loaded CI runner.
    assert ratios[6]["ratio"] <= 2.0, ratios
    assert ratios[1]["ratio"] <= 3.5, ratios


def test_e16_recovery_time_linear_and_fast():
    """Recovering the ring-size history takes milliseconds."""
    samples = {}
    for n in (1000, 4000):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=8, max_rows_per_group=n)
        store = HistoryStore(standard_schema(), max_rows_per_group=n, engine=engine)
        for i in range(0, n, 6):
            store.record(
                "Processor",
                [proc_row(i + j) for j in range(6)],
                source_url="u",
                recorded_at=float(i),
            )
        store.checkpoint()  # half sealed...
        for i in range(n, n + n // 2, 6):
            store.record(
                "Processor",
                [proc_row(i + j) for j in range(6)],
                source_url="u",
                recorded_at=float(i),
            )
        store.sync()  # ...half live in the WAL
        disk.crash(None)

        t0 = time.perf_counter()
        recovered = HistoryEngine(disk, sync_interval=8, max_rows_per_group=n)
        elapsed = time.perf_counter() - t0
        # The engine keeps every row the ring might still serve; the
        # store it opens under serves the ring's n, nothing acked lost.
        rows = HistoryStore(
            standard_schema(), max_rows_per_group=n, engine=recovered
        ).row_count()
        assert rows == n
        samples[n] = {"recovery_s": elapsed, "rows": rows, "rows_per_s": rows / elapsed}
    _record("recovery_time", samples)
    # Fast in absolute terms at ring scale (generous CI bound).
    assert samples[4000]["recovery_s"] < 2.0, samples
