"""The history store's ordered index against the scan it replaced.

``HistoryStore`` keeps each group's rows in stable ``(RecordedAt,
arrival)`` order, group-wide and per ``SourceUrl``, and answers
``query(source_url=…)`` from the source's partition narrowed by bisect
on the leading ``RecordedAt`` bounds of the WHERE clause.  The reference
is what it did before: filter the group's rows by ``SourceUrl`` one by
one and hand the bound plan all of them.  Same rows, same order, same
``SqlError`` — after any sequence of the four ways rows enter or leave a
table (record, ring overflow, checkpoint, crash and recover).

After every crash the reopened store is also held to the durability
contract at the level clients see: it serves exactly what a fresh,
engine-less store with the same ring serves after one ``record()`` per
acknowledged row, in log order.  The acknowledged rows are the test's
own log of what it recorded, cut at the WAL's sync boundary — not the
engine's account of itself.

CI runs this module under the fixed, derandomized ``history-crash``
Hypothesis profile.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryStore
from repro.glue.schema import standard_schema
from repro.scenario import run
from repro.scenarios import STREAM
from repro.simnet.clock import VirtualClock
from repro.sql.errors import SqlError
from repro.sql.parser import parse_select
from repro.sql.plan import compile_plan
from repro.storage.engine import HistoryEngine
from repro.storage.segments import recorded_key
from repro.storage.simdisk import SimDisk
from tests.history_rows import as_dicts, record_rows

from .test_core_history import proc_row

SOURCES = ("jdbc:snmp://n0/x", "jdbc:snmp://n1/x", "jdbc:ganglia://n0/y")
COLUMNS = (*standard_schema().group("Processor").field_names(), "SourceUrl", "RecordedAt")
#: Where a stored row (a tuple laid out as ``COLUMNS``) keeps its provenance.
URL, AT = COLUMNS.index("SourceUrl"), COLUMNS.index("RecordedAt")
MAX_ROWS = 12

#: ``{a}`` / ``{b}`` are drawn from the instants rows are recorded at
#: (and the halves between them), so bounds land on, between and beyond
#: stored values.  They are never negative; the statements that test the
#: sign fold write their own ``-``.
STATEMENTS = (
    "SELECT * FROM Processor",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt > {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt >= {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt < {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt <= {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE {a} < RecordedAt",
    "SELECT HostName, RecordedAt FROM Processor WHERE {a} >= RecordedAt",
    "SELECT LoadAverage1Min FROM Processor WHERE recordedat >= {a} AND Processor.RecordedAt < {b}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt >= {b} AND RecordedAt < {a}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt BETWEEN {a} AND {b}",
    "SELECT LoadAverage1Min FROM Processor WHERE recordedat BETWEEN {b} AND {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt = {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE {b} = RecordedAt AND RecordedAt <= {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt >= -1 AND RecordedAt < {a}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt BETWEEN - -{a} AND {b}",
    "SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt <= -{a}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt NOT BETWEEN {a} AND {b}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt != {a}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt BETWEEN {a} AND '{b}'",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt < {a} OR RecordedAt >= {b}",
    "SELECT LoadAverage1Min FROM Processor WHERE NOT RecordedAt < {a}",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt >= '{a}'",
    "SELECT LoadAverage1Min FROM Processor WHERE RecordedAt > NULL",
    # A conjunct that raises on every row it is evaluated on, before and
    # after the range: only *leading* bounds may prune, and rows with a
    # NULL RecordedAt (bound is NULL, evaluation continues) never are.
    "SELECT HostName FROM Processor WHERE HostName > 3 AND RecordedAt >= {a}",
    "SELECT HostName FROM Processor WHERE RecordedAt >= {a} AND HostName > 3",
    "SELECT HostName FROM Processor WHERE RecordedAt >= {a} AND LoadAverage1Min >= 1 AND RecordedAt < {b}",
    "SELECT COUNT(*), MAX(LoadAverage1Min), MIN(RecordedAt) FROM Processor WHERE RecordedAt >= {a}",
    "SELECT HostName, AVG(LoadAverage1Min) FROM Processor WHERE RecordedAt < {b} GROUP BY HostName",
    "SELECT HostName, LoadAverage1Min FROM Processor WHERE RecordedAt > {a} "
    "ORDER BY LoadAverage1Min DESC LIMIT 3",
    # The window proves its bounds and runs only what follows them: a
    # pure range before SUM / AVG, residual conjuncts after the bounds,
    # and one that raises on every row it is evaluated on.
    "SELECT SUM(LoadAverage1Min), AVG(CPUCount), COUNT(*) FROM Processor "
    "WHERE RecordedAt >= {a} AND RecordedAt < {b}",
    "SELECT HostName, SUM(CPUCount), AVG(LoadAverage1Min) FROM Processor "
    "WHERE RecordedAt > {a} AND LoadAverage1Min >= 1 GROUP BY HostName",
    "SELECT AVG(LoadAverage5Min) FROM Processor WHERE RecordedAt BETWEEN {b} AND {a} "
    "AND RecordedAt != {a}",
    "SELECT HostName FROM Processor WHERE RecordedAt = {a} AND HostName > 3",
    # Two residual conjuncts that raise on different rows: stage by
    # stage, a later row's error at the first would come out before an
    # earlier row's at the second, so a raising window replays the whole
    # WHERE row by row — over the head too, whose rows raise their own
    # error in the second statement.
    "SELECT HostName FROM Processor WHERE RecordedAt >= {a} "
    "AND (LoadAverage1Min < 1 OR HostName > 3) AND CPUCount > 'x'",
    "SELECT HostName FROM Processor WHERE RecordedAt >= {a} "
    "AND (RecordedAt IS NOT NULL OR HostName > 3) AND CPUCount > 'x'",
)

#: Statements whose whole WHERE is leading ``RecordedAt`` bounds
#: (``BETWEEN`` is its two bounds, ``=`` is ``>=`` and ``<=``, and a
#: sign in front of a number is part of the number).
PURE_RANGES = range(1, 16)

_instants = st.integers(-1, 40).map(lambda n: n / 2)
_bounds = st.integers(0, 40).map(lambda n: n / 2)
#: One operation: its kind, then every kind's parameters (each kind reads
#: its own).  Records dominate so tables fill, overflow and interleave;
#: checkpoints under overflow drop sealed segments.
_ops = st.tuples(
    st.sampled_from(("record",) * 6 + ("tick",) * 2 + ("checkpoint", "checkpoint", "crash")),
    st.integers(0, len(SOURCES) - 1),  # record: which source
    st.integers(1, 3),  # record: rows in the batch
    st.sampled_from(("now", "now", "late", "null", "nan")),  # record: RecordedAt
    st.integers(1, 6),  # record: how late a "late" batch is, in half-instants
    st.sampled_from((0.5, 1.0, 8.0)),  # tick
)


class _Fixture:
    """A store on a clocked disk that can crash and reopen, and the log
    of every batch it recorded that a crash has not yet taken back."""

    def __init__(self, durable: bool, ring: int) -> None:
        self.clock = VirtualClock()
        self.disk = SimDisk(clock=self.clock) if durable else None
        self.ring = ring
        #: (lsn, source_url, recorded_at, rows) per recorded batch.
        self.log: list[tuple] = []
        self.open()

    def open(self) -> None:
        engine = None
        if self.disk is not None:
            engine = HistoryEngine(
                self.disk,
                clock=self.clock,
                sync_interval=2,
                max_rows_per_group=self.ring,
            )
        self.store = HistoryStore(
            standard_schema(), max_rows_per_group=self.ring, engine=engine
        )

    def apply(self, op: tuple) -> None:
        kind, source, n, when, lateness, tick = op
        if kind == "record":
            at = {
                "now": self.clock.now(),
                "late": self.clock.now() - lateness / 2,
                "null": None,
                "nan": float("nan"),
            }[when]
            rows = [proc_row(host=f"n{i}", load=float(source + i)) for i in range(n)]
            if when == "nan":
                # No instant: refused whole, before anything is stored.
                served, recorded = list(self.store.since("Processor", None)), self.store.rows_recorded
                with pytest.raises(ValueError):
                    record_rows(
                        self.store, "Processor", rows, source_url=SOURCES[source], recorded_at=at
                    )
                assert self.store.since("Processor", None) == served
                assert self.store.rows_recorded == recorded
                return
            record_rows(
                self.store, "Processor", rows, source_url=SOURCES[source], recorded_at=at
            )
            if self.store.engine is not None:
                self.log.append((self.store.engine.wal.last_lsn, SOURCES[source], at, rows))
        elif kind == "tick":
            self.clock.advance(tick)
        elif kind == "checkpoint":
            self.store.checkpoint()
        elif self.store.engine is not None:
            synced = self.store.engine.wal.synced_lsn
            self.log = [batch for batch in self.log if batch[0] <= synced]
            self.disk.crash(None)
            self.open()
            assert self.store.since("Processor", None) == self.acked_through_a_fresh_ring()

    def acked_through_a_fresh_ring(self) -> list:
        """What an engine-less store with this ring serves after one
        ``record()`` per acknowledged row, in log order."""
        reference = HistoryStore(standard_schema(), max_rows_per_group=self.ring)
        for _, url, at, rows in self.log:
            for row in rows:
                record_rows(reference, "Processor", [row], source_url=url, recorded_at=at)
        return reference.since("Processor", None)


def _outcome(run_query):
    try:
        result = run_query()
    except SqlError as exc:
        return type(exc), str(exc)
    return result.columns, result.rows


def _check(store: HistoryStore, plans: dict) -> None:
    """Re-aimed from stored dicts: the rows are the tuples the table
    stores, read at their ``COLUMNS`` slots, and the reference scan
    binds the plan with ``bind`` over them (the mapping binding is
    gone)."""
    assert store.layout("Processor") == COLUMNS
    rows = store.db.table("Processor").rows if "Processor" in store.db.tables else []
    keys = [recorded_key(r) for r in rows]
    assert keys == sorted(keys)
    for url in (*SOURCES, "jdbc:snmp://never/recorded"):
        mine = [r for r in rows if r[URL] == url]
        assert store.since("Processor", None, source_url=url) == mine
        nulls = sum(r[AT] is None for r in mine)
        for i, (sql, (served, reference)) in enumerate(plans.items()):
            before = store.rows_scanned
            got = _outcome(lambda: store.query(sql, source_url=url, plan=served))
            scanned = store.rows_scanned - before
            want = _outcome(lambda: reference.bind(COLUMNS).execute(mine))
            assert got == want, (sql, url)
            if i in PURE_RANGES:
                # The window is exact, not merely sufficient: the rows
                # the bounds accept plus the NULLs they cannot judge.
                assert scanned == len(got[1]) + nulls, (sql, url)
    for watermark in sorted({k for k in keys if k > float("-inf")} | {0.25}):
        for url in (None, SOURCES[0]):
            assert store.since("Processor", watermark, source_url=url) == [
                r
                for r in rows
                if (url is None or r[URL] == url)
                and r[AT] is not None
                and r[AT] >= watermark
            ]


def _op(kind, *, source=0, n=1, when="now", lateness=1, tick=0.5):
    return (kind, source, n, when, lateness, tick)


settings.register_profile(
    "history-crash", max_examples=100, derandomize=True, deadline=None, database=None
)


@settings(settings.get_profile("history-crash"))
@given(
    durable=st.booleans(),
    ring=st.sampled_from((3, MAX_ROWS)),
    ops=st.lists(_ops, min_size=8, max_size=40),
    a=_bounds,
    b=_bounds,
)
# The ring, a checkpoint and a crash, spelled out: the second checkpoint
# drops the first segment (every row in it is below the ring), a late
# batch and a NULL one are evicted as they arrive, and the crash takes
# back the unacknowledged last batch.
@example(
    durable=True,
    ring=3,
    ops=[
        _op("record", n=2),
        _op("checkpoint"),
        _op("tick", tick=1.0),
        _op("record", source=1),
        _op("tick", tick=1.0),
        _op("record", source=2, n=2),
        _op("checkpoint"),
        _op("record", source=0, when="late", lateness=3),
        _op("record", source=1, when="null"),
        _op("record", source=1),
        _op("record", source=2, when="late", lateness=1),
        _op("crash"),
    ],
    a=1.0,
    b=1.5,
)
# The minimal case: ring 3 over a@10, b@5 (late), c@11, d@12 serves
# {a, c, d}; reopening by the newest *arrivals* served {b, c, d}.
@example(
    durable=True,
    ring=3,
    ops=[
        _op("tick", tick=8.0),
        _op("tick", tick=1.0),
        _op("tick", tick=1.0),
        _op("record"),
        _op("record", when="late", lateness=10),
        _op("tick", tick=1.0),
        _op("record"),
        _op("tick", tick=1.0),
        _op("record"),
        _op("crash"),
    ],
    a=10.0,
    b=5.0,
)
# NULL-RecordedAt rows in front of a residual conjunct that raises: the
# head runs the whole WHERE (``RecordedAt >= 1.0 AND HostName > 3``
# raises there), the range only what follows the bounds, and a NaN
# instant is refused between them.  Source 0 reads a range with no head
# first, where the residual conjuncts raise on different rows.
@example(
    durable=False,
    ring=MAX_ROWS,
    ops=[
        _op("record", source=1, n=2, when="null"),
        _op("tick", tick=1.0),
        _op("record", source=0, n=2),
        _op("record", source=1, n=2),
        _op("record", source=0, when="nan"),
        _op("tick", tick=1.0),
        _op("record", source=0, n=3),
        _op("record", source=0, when="null"),
    ],
    a=1.0,
    b=2.0,
)
def test_indexed_reads_equal_the_linear_scan(durable, ring, ops, a, b):
    """(Re-aimed: stored rows are tuples, read at their ``COLUMNS``
    slots, and the reference scan binds with ``bind``.)"""
    fixture = _Fixture(durable, ring)
    # Two compilations per text: the served plan keeps its extracted
    # bounds across the whole sequence, the reference shares no state.
    plans = {
        sql: (compile_plan(parse_select(sql)), compile_plan(parse_select(sql)))
        for sql in (s.format(a=a, b=b) for s in STATEMENTS)
    }
    for op in ops:
        fixture.apply(op)
        _check(fixture.store, plans)


def test_ring_overflow_takes_the_oldest_instants_not_the_oldest_arrivals():
    """(Stored rows are read through ``as_dicts``: they are tuples now.)"""
    store = HistoryStore(standard_schema(), max_rows_per_group=3)
    for at, url in ((5.0, "u"), (6.0, "v"), (7.0, "u"), (1.0, "v")):
        record_rows(store, "Processor", [proc_row()], source_url=url, recorded_at=at)
    # The late batch (t=1) was the oldest instant the moment it arrived.
    assert [r["RecordedAt"] for r in as_dicts(store, "Processor")] == [5.0, 6.0, 7.0]
    assert [r["RecordedAt"] for r in as_dicts(store, "Processor", source_url="v")] == [6.0]
    assert store.rows_evicted == 1


# ----------------------------------------------------------------------
# Observability: what a read touched
# ----------------------------------------------------------------------
def test_one_source_window_scans_the_window_not_the_group():
    store = HistoryStore(standard_schema())
    urls = [f"jdbc:snmp://n{i}/system" for i in range(8)]
    for round_ in range(256):
        for i, url in enumerate(urls):
            record_rows(
                store, "Processor",
                [proc_row(host=f"n{i}", load=float(round_))],
                source_url=url,
                recorded_at=1000.0 + round_ + i * 1e-5,
            )
    assert store.row_count("Processor") >= 2000
    result = store.query(
        "SELECT HostName, LoadAverage1Min FROM Processor "
        "WHERE RecordedAt >= 1100 AND RecordedAt < 1110 AND LoadAverage1Min >= 0",
        source_url=urls[3],
    )
    assert [r[1] for r in result.rows] == [float(r) for r in range(100, 110)]
    assert (store.queries, store.rows_scanned) == (1, 10)
    # No usable bound: the source's partition, still not the group.
    store.query("SELECT COUNT(*) FROM Processor WHERE CPUCount >= 0", source_url=urls[3])
    assert (store.queries, store.rows_scanned) == (2, 10 + 256)


def _counting_stages(bound, calls):
    """Wrap each WHERE stage of ``bound`` so that it logs ``(stage, rows
    in)`` to ``calls``: a test-side count of the work a read did."""

    def counted(index, stage):
        def run(rows):
            calls.append((index, len(rows)))
            return stage(rows)
        return run

    bound._stages[:] = [counted(i, stage) for i, stage in enumerate(bound._stages)]


def test_a_window_runs_only_the_conjuncts_its_bounds_do_not_prove():
    """Over the bisected range, the conjuncts the ``RecordedAt`` bounds
    came from are not run again: a pure range runs no stage on range
    rows, one residual conjunct runs one.  NULL-``RecordedAt`` rows (the
    window's head) still run the whole WHERE.  ``rows_scanned`` counts
    the window either way."""
    store = HistoryStore(standard_schema())
    url = SOURCES[0]
    for at in range(1, 11):
        record_rows(store, "Processor", [proc_row(load=float(at))], source_url=url, recorded_at=float(at))

    def read(sql):
        plan = compile_plan(parse_select(sql))
        calls = []
        _counting_stages(plan.bind(COLUMNS), calls)
        before = store.rows_scanned
        result = store.query(sql, source_url=url, plan=plan)
        return result.rows, calls, store.rows_scanned - before

    pure = "SELECT COUNT(*), SUM(LoadAverage1Min) FROM Processor WHERE RecordedAt >= 3 AND RecordedAt < 7"
    residual = "SELECT HostName FROM Processor WHERE RecordedAt BETWEEN 3 AND 10 AND LoadAverage1Min > 4"
    assert read(pure) == ([[4, 18.0]], [], 4)
    assert read(residual) == ([["n0"]] * 6, [(1, 8)], 8)
    record_rows(store, "Processor", [proc_row(), proc_row()], source_url=url, recorded_at=None)
    # The head's two rows meet the first bound, which is NULL there; the
    # later conjuncts run on them inside that stage and reject them.
    assert read(pure) == ([[4, 18.0]], [(0, 2)], 6)
    assert read(residual) == ([["n0"]] * 6, [(0, 2), (1, 8)], 10)


def test_a_nan_instant_is_refused_and_never_served():
    """NaN is no instant: it breaks the index's order, and a store that
    took one answered ``since("Processor", 1.5)`` after recording 1, 2,
    NaN, 3, 4, 5 with the NaN row.  ``record`` refuses it whole."""
    store = HistoryStore(standard_schema())
    for at in (1.0, 2.0, float("nan"), 3.0, 4.0, 5.0):
        rows = [proc_row(load=at)]
        if at != at:
            with pytest.raises(ValueError, match="not an instant"):
                record_rows(store, "Processor", rows, source_url="u", recorded_at=at)
        else:
            record_rows(store, "Processor", rows, source_url="u", recorded_at=at)
    with pytest.raises(ValueError):
        record_rows(store, "Processor", [proc_row()], source_url="u", recorded_at="nan")
    assert [r[AT] for r in store.since("Processor", 1.5)] == [2.0, 3.0, 4.0, 5.0]
    answer = store.query("SELECT RecordedAt FROM Processor WHERE RecordedAt >= 1.5")
    assert answer.rows == [[2.0], [3.0], [4.0], [5.0]]
    assert store.rows_recorded == store.row_count("Processor") == 5


# ----------------------------------------------------------------------
# ``stream`` seed 3: a watermark inside a round
# ----------------------------------------------------------------------
def test_history_reregistration_replays_exactly_the_rows_since_its_watermark(monkeypatch):
    """Fan-out siblings record one round's rows a few microseconds out of
    ``RecordedAt`` order.  The watermark of a post-partition
    re-registration is the newest ``published_at`` the consumer saw,
    which falls *inside* the last pre-partition round; bisecting rows in
    arrival order returned an arbitrary share of that round (none of it
    on this seed).

    Run on the in-memory ring: the default durable store charges
    the WAL append (0.2 ms on the scenario disk) between recording a row
    and publishing it, so there every ``published_at`` — hence every
    watermark — is later than the whole round and the case cannot arise.
    (Stored rows are tuples now: ``RecordedAt`` is read at its slot.)"""
    in_memory = dataclasses.replace(
        STREAM,
        policy=lambda k: dataclasses.replace(STREAM.policy(k), history_durable=False),
    )
    calls = []
    inner = HistoryStore.since

    def spy(self, group_name, watermark, *, source_url=None):
        got = inner(self, group_name, watermark, source_url=source_url)
        if watermark:
            rows = self.db.table(group_name).rows
            calls.append((watermark, got, [r[AT] for r in rows]))
        return got

    monkeypatch.setattr(HistoryStore, "since", spy)
    report = run(in_memory, seed=3, hosts=4, agents=("snmp", "ganglia"))
    assert report.ok
    assert calls, "no history re-registration carried a watermark"
    inside_a_round = 0
    for watermark, got, instants in calls:
        assert [r[AT] for r in got] == [t for t in instants if t >= watermark]
        earlier_in_round = [t for t in instants if watermark - 0.01 < t < watermark]
        inside_a_round += bool(got and earlier_in_round)
    assert inside_a_round
