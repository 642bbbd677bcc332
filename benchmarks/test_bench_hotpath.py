"""E17 — The compiled hot path of a repeated query.

The gateway answers the same handful of monitoring queries over and over
(every portlet refresh, every alert sweep re-issues its SELECT).  PR 8
moved parse + validate + closure construction out of that loop: the
PlanCache compiles a statement once and warm queries replay pre-built
closures over positional rows.

Workload: one realistic SELECT (predicate + LIKE + ORDER BY + LIMIT)
executed repeatedly over a 16-row Processor relation: a PlanCache hit +
the bound plan's closures over slot rows.

What is asserted is what repeats exactly: the warm path is one
plan-cache miss and then only hits, it never calls the parser again, and
(PR 17) over typed rows its column kernels never reach ``coerce_pair`` —
a numeric-string row costs exactly the one coercion that row needs.  Its
wall cost is the e2e harness's ``sql.plan.self_us_per_execute``
(``benchmarks/e2e``), not a number this file times.  There is no
interpreted arm: the tree-walking interpreter is the tests' reference
(``tests/reference_sql.py``), that the plans answer as it does is
``tests/test_sql_plan.py``'s job, and the last recorded wall ratio
against it is dated prose in EXPERIMENTS.md (E17).
"""

import collections

from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.dbapi import url as url_module
from repro.dbapi.url import JdbcUrl
from repro.glue.schema import standard_schema
from repro.obs.metrics import MetricsRegistry
from repro.sql.parser import parse_select
from repro.sql.values import coerce_pair
from conftest import fresh_site, fmt_table

SQL = (
    "SELECT HostName, LoadAverage1Min, CPUCount FROM Processor "
    "WHERE CPUCount >= 2 AND HostName LIKE 'host-%' "
    "ORDER BY LoadAverage1Min DESC LIMIT 10"
)
N_ROWS = 16
REPEAT = 400


def make_relation():
    schema = standard_schema()
    columns = schema.group("Processor").field_names()
    dict_rows = []
    for i in range(N_ROWS):
        row = {c: None for c in columns}
        row["HostName"] = f"host-{i:03d}"
        row["SiteName"] = "bench"
        row["CPUCount"] = 1 + i % 8
        row["LoadAverage1Min"] = (i * 37 % 100) / 10.0
        row["CPUUtilization"] = (i * 13 % 100) * 1.0
        dict_rows.append(row)
    slot_rows = [[r[c] for c in columns] for r in dict_rows]
    return schema, columns, slot_rows


def test_e17_warm_queries_replay_one_compiled_plan(report, monkeypatch):
    schema, columns, slot_rows = make_relation()
    cols = tuple(columns)
    parses = []

    def counting_parse(sql):
        parses.append(sql)
        return parse_select(sql)

    monkeypatch.setattr("repro.core.plans.parse_select", counting_parse)

    plans = PlanCache(schema)
    for _ in range(1 + REPEAT):  # one cold compile, then REPEAT warm replays
        plans.get(SQL).plan.bind(cols).execute(slot_rows)

    report(
        f"E17: repeated query over {N_ROWS} rows ({REPEAT} iterations)",
        f"plan cache: {plans.hits} hits / {plans.misses} miss",
    )
    assert plans.misses == 1 and plans.hits >= REPEAT
    assert parses == [SQL], "the warm path parsed again"


def test_e17_typed_rows_take_the_kernels_fast_path(monkeypatch):
    """Counted, not timed: the warm plan over typed rows makes no
    coercion call at all; one numeric-string cell makes the one call its
    row needs, and that row is kept and sorted as its typed self was."""
    schema, columns, slot_rows = make_relation()
    bound = PlanCache(schema).get(SQL).plan.bind(tuple(columns))
    bound.execute(slot_rows)  # warm

    calls = []

    def counting_coerce(a, b):
        calls.append((a, b))
        return coerce_pair(a, b)

    monkeypatch.setattr("repro.sql.plan.coerce_pair", counting_coerce)

    typed = bound.execute(slot_rows)
    assert calls == []

    # One agent reported CPUCount as text (native agents return text).
    odd, cpus = 5, columns.index("CPUCount")
    slot_rows[odd][cpus] = str(slot_rows[odd][cpus])
    got = bound.execute(slot_rows)
    assert calls == [(slot_rows[odd][cpus], 2)]
    assert got.columns == typed.columns
    assert [[str(v) for v in r] for r in got.rows] == [[str(v) for v in r] for r in typed.rows]
    assert [f"host-{odd:03d}", 8.5, "6"] in got.rows


def test_e17_gateway_warm_queries_hit_plan_cache(report):
    """End-to-end: the gateway's own repeated queries ride the cache."""
    site = fresh_site(name="e17", n_hosts=4, agents=("snmp",))
    gw = site.gateway
    url = site.url_for("snmp")

    def query():
        return gw.query(url, SQL, mode=QueryMode.REALTIME)

    first = query()
    assert first.ok_sources == 1, first.statuses
    repeat = 50
    for _ in range(repeat):
        query()

    hits, misses = gw.plans.hits, gw.plans.misses
    report(
        f"E17: end-to-end warm gateway query ({repeat} iterations)",
        f"plan cache: {hits} hits / {misses} misses",
    )
    # Every query after the first is a plan-cache hit; the driver-side
    # execution reuses the same compiled plan (no per-source recompile).
    assert misses <= 2  # realtime + at most one history/extra variant
    assert hits >= repeat


# ----------------------------------------------------------------------
# E26 — the envelope of a warm dashboard read (the cost of observing)
# ----------------------------------------------------------------------
DASHBOARD_SQL = "SELECT HostName, LoadAverage1Min FROM Processor"


def _nine_sources(*, tracing):
    site = fresh_site(
        name="e26", n_hosts=8, agents=("snmp", "ganglia"), seed=5,
        policy=GatewayPolicy(tracing_enabled=tracing),
    )
    assert len(site.source_urls) == 9
    return site


def test_e26_envelope_of_a_warm_dashboard_read(report, monkeypatch):
    """A cache-backed dashboard read costs the agents nothing, so all of
    its cost is the gateway's fixed per-query work.  Counted: a warm
    nine-source ``CACHED_OK`` read matches no URL regex, renders no URL
    text, looks no instrument up by name and opens 12 spans (3 + one per
    source), and returns the rows the cold read fetched; with tracing off
    it answers all nine as well.  What tracing costs is the e2e harness's
    ``obs.trace.overhead_ratio`` (``benchmarks/e2e``)."""
    site = _nine_sources(tracing=True)
    gw, urls = site.gateway, site.source_urls

    def read():
        return gw.query(urls, DASHBOARD_SQL, mode=QueryMode.CACHED_OK)

    cold = read()
    assert cold.ok_sources == 9 and not any(s.from_cache for s in cold.statuses)

    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    class CountingPattern:
        def match(self, text, _pattern=url_module._URL_RE):
            counts["url_regex"] += 1
            return _pattern.match(text)

    with monkeypatch.context() as spies:
        spies.setattr(url_module, "_URL_RE", CountingPattern())
        spies.setattr(JdbcUrl, "_render", counting("url_render", JdbcUrl._render))
        spies.setattr(
            MetricsRegistry,
            "_instrument",
            counting("instrument_lookup", MetricsRegistry._instrument),
        )
        warm = read()
    assert [s.from_cache for s in warm.statuses] == [True] * 9
    assert (warm.columns, warm.rows) == (cold.columns, cold.rows)
    assert counts == {}
    assert len(gw.tracer.get(warm.trace_id).spans) == 12

    untraced_site = _nine_sources(tracing=False)
    untraced = untraced_site.gateway.query(
        untraced_site.source_urls, DASHBOARD_SQL, mode=QueryMode.CACHED_OK
    )
    assert untraced.ok_sources == 9
    report(
        "E26: envelope of a warm nine-source CACHED_OK read",
        *fmt_table(
            ["quantity", "value"],
            [
                ["URL regex matches / renders / by-name lookups", "0 / 0 / 0"],
                ["spans per read", 12],
            ],
        ),
    )
