"""Unit tests for segments, checkpoints, recovery and the engine
(repro.storage.segments / checkpoint / recovery / engine)."""

import random

import pytest

from repro.core.history import HistoryStore
from repro.core.policy import production
from repro.glue.schema import standard_schema
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.storage.checkpoint import (
    CURRENT_PATH,
    current_manifest,
    read_manifest,
    write_manifest,
)
from repro.storage.engine import HistoryEngine
from repro.storage.recovery import (
    RULE_MANIFEST_SKIPPED,
    RULE_SEGMENT_QUARANTINED,
    RULE_WAL_TAIL_TRUNCATED,
    recover_state,
)
from repro.storage.segments import load_segment, seal_segment, segment_path
from repro.storage.simdisk import SimDisk
from repro.testbed import build_site

from .test_core_history import proc_row


def row(i, at=None, **extra):
    r = {"HostName": f"h{i % 3}", "RecordedAt": at, "Load": float(i)}
    r.update(extra)
    return r


class TestSegments:
    def test_seal_and_load_round_trip(self):
        disk = SimDisk()
        rows = [row(i, at=10.0 + i) for i in range(5)]
        seg = seal_segment(disk, "Processor", 1, rows)
        assert seg.path == segment_path("Processor", 1)
        assert seg.min_at == 10.0
        assert seg.max_at == 14.0
        loaded = load_segment(disk, seg.path)
        assert loaded.rows == rows
        assert loaded.group == "Processor"
        assert loaded.seq == 1

    def test_seal_is_durable_without_explicit_fsync(self):
        disk = SimDisk()
        seal_segment(disk, "G", 1, [row(0)])
        disk.crash(None)
        assert load_segment(disk, segment_path("G", 1)).row_count == 1

    def test_none_recorded_at_excluded_from_bounds(self):
        disk = SimDisk()
        seg = seal_segment(disk, "G", 1, [row(0, at=None), row(1, at=5.0)])
        assert seg.min_at == 5.0
        assert seg.max_at == 5.0
        seg2 = seal_segment(disk, "G", 2, [row(0, at=None)])
        assert seg2.min_at is None
        assert seg2.max_at is None


class TestEngineBasics:
    def test_fresh_disk_boots_clean(self):
        engine = HistoryEngine(SimDisk(), sync_interval=2)
        assert engine.recovery_report.clean
        assert engine.groups() == []

    def test_append_checkpoint_recover_round_trip(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=2)
        rows = [row(i, at=float(i)) for i in range(6)]
        for r in rows:
            engine.append_rows("Processor", [r])
        engine.checkpoint()
        successor = HistoryEngine(disk, sync_interval=2)
        assert successor.recovery_report.clean
        assert successor.serving_rows("Processor") == rows

    def test_crash_keeps_exactly_the_acked_prefix(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=4)
        for i in range(10):  # synced through lsn 8, rows 8..9 unacked
            engine.append_rows("G", [row(i, at=float(i))])
        expected = [dict(r) for r in engine.acked_rows("G")]
        assert len(expected) == 8
        disk.crash(None)
        successor = HistoryEngine(disk, sync_interval=4)
        assert successor.serving_rows("G") == expected

    def test_torn_tail_truncated_with_finding(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=2)
        for i in range(5):
            engine.append_rows("G", [row(i, at=float(i))])
        acked = [dict(r) for r in engine.acked_rows("G")]
        disk.crash(random.Random(3))  # may tear the in-flight record
        successor = HistoryEngine(disk, sync_interval=2)
        assert successor.serving_rows("G") == acked
        if successor.recovery_report.wal_tail != "clean":
            assert any(
                f.rule_id == RULE_WAL_TAIL_TRUNCATED
                for f in successor.recovery_report.findings
            )

    def test_bit_flip_quarantines_segment_and_keeps_serving(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1)
        engine.append_rows("G", [row(0, at=1.0)])
        engine.checkpoint()
        engine.append_rows("G", [row(1, at=2.0)])
        engine.checkpoint()
        victim = engine.segments["G"][0].path
        disk.flip_bit(victim, rng=random.Random(0))
        successor = HistoryEngine(disk, sync_interval=1)
        report = successor.recovery_report
        assert report.segments_quarantined == 1
        assert any(
            f.rule_id == RULE_SEGMENT_QUARANTINED for f in report.findings
        )
        # Degraded serving: the undamaged segment's row survives.
        assert [r["Load"] for r in successor.serving_rows("G")] == [1.0]
        # The damaged file moved into quarantine/, out of seg/.
        assert not disk.exists(victim)
        assert any(p.startswith("quarantine/") for p in disk.list())

    def test_recovery_is_deterministic(self):
        def build():
            disk = SimDisk()
            engine = HistoryEngine(disk, sync_interval=3)
            for i in range(7):
                engine.append_rows("G", [row(i, at=float(i))])
            engine.checkpoint()
            for i in range(7, 11):
                engine.append_rows("G", [row(i, at=float(i))])
            disk.crash(random.Random(42))
            return HistoryEngine(disk, sync_interval=3).serving_rows("G")

        assert build() == build()


class TestManifestProtocol:
    def test_current_points_at_latest_manifest(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1)
        engine.append_rows("G", [row(0)])
        engine.checkpoint()
        assert current_manifest(disk) is not None
        assert disk.exists(CURRENT_PATH)

    def test_stale_manifests_collected(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1)
        for i in range(3):
            engine.append_rows("G", [row(i)])
            engine.checkpoint()
        manifests = [p for p in disk.list() if p.startswith("MANIFEST-")]
        assert len(manifests) == 1

    def test_unreadable_current_falls_back_to_manifest_scan(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1)
        engine.append_rows("G", [row(0, at=1.0)])
        engine.checkpoint()
        disk.flip_bit(CURRENT_PATH, rng=random.Random(1))
        state = recover_state(disk)
        assert state.segments  # found via the manifest scan
        assert state.report.manifests_skipped >= 0  # never raises

    def test_wal_truncated_after_checkpoint(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1)
        for i in range(5):
            engine.append_rows("G", [row(i)])
        engine.checkpoint()
        wals = disk.list("wal/")
        assert wals == [engine.wal.path]
        assert disk.size(engine.wal.path) == 0


class TestRetention:
    def test_ring_drops_whole_head_segments(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1, max_rows_per_group=4)
        for batch in range(3):  # three sealed segments of 2 rows each
            for i in range(2):
                engine.append_rows("G", [row(batch * 2 + i, at=float(batch * 2 + i))])
            engine.checkpoint()
        # 6 rows, ring 4: the head segment (rows 0-1) is droppable.
        assert sum(s.row_count for s in engine.segments["G"]) == 4
        assert [r["Load"] for r in engine.serving_rows("G")] == [2.0, 3.0, 4.0, 5.0]

    def test_ring_never_drops_below_capacity(self):
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1, max_rows_per_group=4)
        for i in range(3):
            engine.append_rows("G", [row(i, at=float(i))])
        engine.checkpoint()
        engine.checkpoint()
        assert len(engine.serving_rows("G")) == 3  # under capacity: kept

    def test_trim_cutoff_survives_crash(self):
        """Re-aimed (time trims are gone): what survives a crash is the
        ring's choice, the same before and after.  Ring 3 over a@10,
        b@5 (late), c@11, d@12 keeps a, c, d; slicing the newest three
        arrivals on reopen served b instead of a."""
        disk = SimDisk()
        store = _durable_store(disk, ring=3)
        for host, at in (("a", 10.0), ("b", 5.0), ("c", 11.0), ("d", 12.0)):
            store.record("Processor", [proc_row(host=host)], source_url="u", recorded_at=at)
        store.sync()
        assert _hosts(store) == ["a", "c", "d"]
        disk.crash(None)
        assert _hosts(_durable_store(disk, ring=3)) == ["a", "c", "d"]

    def test_trim_persisted_in_manifest_not_resurrected(self):
        """Re-aimed (the manifest has no trim cutoff any more): a segment
        the ring dropped at a checkpoint leaves the manifest, so a crash
        cannot resurrect its rows."""
        disk = SimDisk()
        engine = HistoryEngine(disk, sync_interval=1, max_rows_per_group=2)
        for i in range(4):
            engine.append_rows("G", [row(i, at=float(i))])
            engine.checkpoint()
        disk.crash(None)
        successor = HistoryEngine(disk, sync_interval=1, max_rows_per_group=2)
        assert [r["Load"] for r in successor.serving_rows("G")] == [2.0, 3.0]
        assert "trim_cutoff" not in read_manifest(disk, current_manifest(disk))

    def test_age_retention_drops_old_segments_and_flags_serving(self):
        """Re-aimed (no age retention, no serving flag): a checkpoint
        drops segments by the rows' instants, not by arrival count.  The
        head segment arrived first but holds newer instants than a late
        one behind it, so the ring still serves it and it stays."""
        engine = HistoryEngine(SimDisk(), sync_interval=1, max_rows_per_group=4)
        for loads in ((20, 21), (1, 2), (22, 23)):
            engine.append_rows("G", [row(i, at=float(i)) for i in loads])
            engine.checkpoint()
        assert [[r["Load"] for r in s.rows] for s in engine.segments["G"]] == [
            [20.0, 21.0], [1.0, 2.0], [22.0, 23.0]
        ]

    def test_none_recorded_at_segment_exempt_from_age_drop(self):
        """Re-aimed (NULL rows are no longer exempt from anything): a NULL
        ``RecordedAt`` sorts before every instant, so under ring overflow
        its segment is the first a checkpoint drops."""
        engine = HistoryEngine(SimDisk(), sync_interval=1, max_rows_per_group=2)
        for at in (None, 1.0, 2.0):
            engine.append_rows("G", [row(0, at=at)])
            engine.checkpoint()
        assert [r["RecordedAt"] for r in engine.serving_rows("G")] == [1.0, 2.0]


class TestAckedRows:
    def test_unsynced_suffix_not_acked(self):
        engine = HistoryEngine(SimDisk(), sync_interval=10)
        for i in range(3):
            engine.append_rows("G", [row(i)])
        assert engine.acked_rows("G") == []
        assert len(engine.serving_rows("G")) == 3
        engine.sync()
        assert len(engine.acked_rows("G")) == 3

    def test_exclude_segments_subtracts_their_rows(self):
        engine = HistoryEngine(SimDisk(), sync_interval=1)
        engine.append_rows("G", [row(0)])
        engine.checkpoint()
        engine.append_rows("G", [row(1)])
        path = engine.segments["G"][0].path
        acked = engine.acked_rows("G", exclude_segments=frozenset([path]))
        assert [r["Load"] for r in acked] == [1.0]

    def test_validation(self):
        """The ring is the only retention the engine is told about."""
        with pytest.raises(ValueError):
            HistoryEngine(SimDisk(), max_rows_per_group=0)
        with pytest.raises(TypeError):
            HistoryEngine(SimDisk(), retention_age=1.0)


# ----------------------------------------------------------------------
# A manifest is untrusted input: wrong field types are a skipped manifest
# ----------------------------------------------------------------------
def _drop_segment_file(disk, doc):
    entry = doc["segments"][0]
    disk.delete(segment_path(entry["group"], entry["seq"]))
    entry["rows"] = "many"


def _set(key, value, *, entry=False):
    def mutate(disk, doc):
        (doc["segments"][0] if entry else doc)[key] = value

    return mutate


ILL_TYPED_MANIFESTS = {
    "segment seq is a string": _set("seq", "x", entry=True),
    "segments holds a number": lambda disk, doc: doc.update(segments=[5]),
    "wal_gen is a string": _set("wal_gen", "two"),
    "missing segment, rows is a string": _drop_segment_file,
    "next_lsn is a float": _set("next_lsn", 1.5),
    "next_seg_seq is null": _set("next_seg_seq", None),
    "wal_gen is a bool": _set("wal_gen", True),
    "segment group is a number": _set("group", 7, entry=True),
    "segment group is absent": lambda disk, doc: doc["segments"][0].pop("group"),
    "segment rows is a float": _set("rows", 1.0, entry=True),
    "segment min_at is a string": _set("min_at", "early", entry=True),
    "segment max_at is a list": _set("max_at", [1], entry=True),
}


@pytest.mark.parametrize("mutate", ILL_TYPED_MANIFESTS.values(), ids=list(ILL_TYPED_MANIFESTS))
def test_ill_typed_manifest_is_skipped_and_the_gateway_boots(mutate):
    """A manifest whose CRC holds but whose fields have the wrong types
    raised a raw ValueError / AttributeError out of recovery, and so out
    of ``Gateway(...)``.  It is skipped with a GRM403 finding like a torn
    one, start-up succeeds, and the next honest record is served and
    survives a crash."""
    disk = SimDisk()
    engine = HistoryEngine(disk, sync_interval=1)
    engine.append_rows("Processor", [{"HostName": "old", "RecordedAt": 1.0}])
    engine.checkpoint()
    path = current_manifest(disk)
    doc = read_manifest(disk, path)
    mutate(disk, doc)
    write_manifest(disk, int(path.rpartition("-")[2]), doc)

    network = Network(VirtualClock(), seed=3)
    site = build_site(
        network, name="m", n_hosts=1, agents=("snmp",), policy=production(), disk=disk
    )
    gw = site.gateway
    assert RULE_MANIFEST_SKIPPED in [f.rule_id for f in gw.startup_findings]
    gw.history.record("Processor", [proc_row(host="new")], source_url="u", recorded_at=9.0)
    assert [r["HostName"] for r in gw.history.since("Processor", 9.0)] == ["new"]
    gw.history.sync()
    disk.crash(None)
    reopened = HistoryEngine(disk, sync_interval=1)
    assert reopened.recovery_report.clean
    assert [r["HostName"] for r in reopened.serving_rows("Processor")] == ["new"]


def _durable_store(disk, *, ring):
    engine = HistoryEngine(disk, sync_interval=1, max_rows_per_group=ring)
    return HistoryStore(standard_schema(), max_rows_per_group=ring, engine=engine)


def _hosts(store):
    return [r["HostName"] for r in store.since("Processor", None)]
