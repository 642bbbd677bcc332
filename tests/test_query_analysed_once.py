"""A query text is analysed once — counts, not clocks.

One ``PlanCache.get`` per ``Gateway.query`` is the only place a
serving-path text is lexed, parsed or normalised: the entry it returns
authorises the query, keys the result cache and the single-flight table,
and names the group the tree view prints.  ``CACHED_OK`` probes the
cache for every source before it dispatches anything, so only misses
become fan-out branches.

The same goes for the rest of a query's fixed envelope
(:class:`TestEnvelope`): a warm read matches no URL regex, renders no
URL text, looks no instrument up by name and opens exactly the spans of
its shape — the budget a dashboard read is held to.

Everything here is a count or a byte-for-byte comparison with
``golden_query_analysed_once.json``, which was produced by running this
module's scenario functions against the commit *before* the change
(``python tests/test_query_analysed_once.py > tests/golden_…json``) —
rows, statuses and the rendered tree must not move.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import cache as cache_module
from repro.core.plans import PlanCache
from repro.core.request_manager import QueryMode
from repro.dbapi import url as url_module
from repro.dbapi.url import JdbcUrl
from repro.obs.metrics import MetricsRegistry
from repro.sql import parser as parser_module
from repro.testbed import build_testbed
from repro.web.console import Console

GOLDEN_PATH = Path(__file__).with_name("golden_query_analysed_once.json")
#: The memoised function itself (the ``calls`` fixture rebinds the name).
NORMALISE_SQL = cache_module.normalise_sql


def parent_answer(name):
    return json.loads(GOLDEN_PATH.read_text())[name]


SQL = "SELECT HostName, LoadAverage1Min FROM Processor"
#: What a dashboard keeps warm: several texts over three groups.
DASHBOARD = (
    SQL,
    "select  hostname, loadaverage1min from processor;",  # same cache key
    "SELECT * FROM Processor",
    "SELECT HostName, RAMSizeMB, RAMAvailableMB FROM MainMemory",
    "SELECT HostName, Name, Release FROM OperatingSystem",
)
#: Which of the nine sources hold an expired entry in each miss scenario.
EXPIRED = {0: (), 1: (4,), 3: (1, 4, 8)}


def nine_sources(policy=None):
    """8 SNMP agents + 1 Ganglia agent behind one gateway, seeded."""
    _, (site,) = build_testbed(
        n_hosts=8, agents=("snmp", "ganglia"), seed=5, policy=policy
    )
    site.clock.advance(5.0)
    return site


def warm_site():
    site = nine_sources()
    site.gateway.query(site.source_urls, SQL, mode=QueryMode.REALTIME)
    site.clock.advance(1.0)
    return site


def read_with_expired(n_expired):
    """A CACHED_OK read over nine sources of which ``n_expired`` hold an
    entry older than the TTL; returns (site, result)."""
    site = nine_sources()
    gw = site.gateway
    old = [site.source_urls[i] for i in EXPIRED[n_expired]]
    fresh = [u for u in site.source_urls if u not in old]
    if old:
        gw.query(old, SQL, mode=QueryMode.REALTIME)
    site.clock.advance(20.0)
    gw.query(fresh, SQL, mode=QueryMode.REALTIME)
    site.clock.advance(15.0)  # old entries: 35 s > ttl 30 s; fresh: 15 s
    return site, gw.query(site.source_urls, SQL, mode=QueryMode.CACHED_OK)


def populated_tree():
    """The tree view over a cache holding every dashboard text."""
    site = nine_sources()
    gw = site.gateway
    for i, sql in enumerate(DASHBOARD):
        urls = site.source_urls if i % 2 == 0 else site.source_urls[:3]
        gw.query(urls, sql, mode=QueryMode.CACHED_OK)
        site.clock.advance(2.5)
    return site


def summarise(result):
    return {
        "columns": result.columns,
        "rows": result.rows,
        "statuses": [
            [s.url, s.ok, s.rows, s.from_cache, s.degraded, s.coalesced, s.error]
            for s in result.statuses
        ],
        "elapsed": result.elapsed,
    }


def golden():
    out = {"tree": Console(populated_tree().gateway).tree_view()}
    for n in EXPIRED:
        out[f"read_{n}_expired"] = summarise(read_with_expired(n)[1])
    return out


def counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def calls(monkeypatch):
    """Call counts of ``parse_select``, ``normalise_sql`` (wherever a
    ``repro`` module bound them by name) and ``PlanCache.get``."""
    counts = Counter()
    for name, fn in (
        ("parse_select", parser_module.parse_select),
        ("normalise_sql", cache_module.normalise_sql),
    ):
        wrapped = counting(counts, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapped)
    monkeypatch.setattr(
        PlanCache, "get", counting(counts, "PlanCache.get", PlanCache.get)
    )
    return counts


class TestCounts:
    def test_warm_cached_read_over_nine_sources(self, calls):
        site = warm_site()
        calls.clear()
        result = site.gateway.query(
            site.source_urls, SQL, mode=QueryMode.CACHED_OK
        )
        assert [s.from_cache for s in result.statuses] == [True] * 9
        assert calls == {"normalise_sql": 1, "PlanCache.get": 1}

    def test_cold_read_parses_once(self, calls):
        site = nine_sources()
        calls.clear()
        result = site.gateway.query(
            site.source_urls, SQL, mode=QueryMode.CACHED_OK
        )
        assert result.ok_sources == 9
        assert calls == {"parse_select": 1, "normalise_sql": 1, "PlanCache.get": 1}

    def test_warm_history_query_never_parses(self, calls):
        site = nine_sources()
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        history = "SELECT HostName, RecordedAt FROM Processor"
        gw.query(url, history, mode=QueryMode.HISTORY)
        calls.clear()
        result = gw.query(url, history, mode=QueryMode.HISTORY)
        assert result.rows
        assert calls == {"normalise_sql": 1, "PlanCache.get": 1}

    def test_plan_counters_count_each_query_once(self):
        site = warm_site()
        plans = site.gateway.plans
        before = plans.hits + plans.misses
        site.gateway.query(site.source_urls, SQL, mode=QueryMode.CACHED_OK)
        assert plans.hits + plans.misses == before + 1


@pytest.fixture
def envelope(monkeypatch):
    """Counts of the per-query bookkeeping a warm read must not repeat:
    ``url_regex`` (``_URL_RE.match``), ``url_render``
    (``JdbcUrl._render``) and ``instrument_lookup`` (a registry
    instrument resolved by name)."""
    counts = Counter()

    class CountingPattern:
        def match(self, text, _pattern=url_module._URL_RE):
            counts["url_regex"] += 1
            return _pattern.match(text)

    monkeypatch.setattr(url_module, "_URL_RE", CountingPattern())
    monkeypatch.setattr(
        JdbcUrl, "_render", counting(counts, "url_render", JdbcUrl._render)
    )
    monkeypatch.setattr(
        MetricsRegistry,
        "_instrument",
        counting(counts, "instrument_lookup", MetricsRegistry._instrument),
    )
    return counts


def span_names(site, result):
    return [s.name for s in site.gateway.tracer.get(result.trace_id).spans]


class TestEnvelope:
    """The fixed cost of a warm query, under the default policy (the
    span lists gained ``admit`` when admission control became a default)."""

    def test_warm_dashboard_read(self, calls, envelope):
        site = warm_site()
        calls.clear()
        envelope.clear()
        bodies_run = NORMALISE_SQL.cache_info().misses
        result = site.gateway.query(
            site.source_urls, SQL, mode=QueryMode.CACHED_OK
        )
        assert [s.from_cache for s in result.statuses] == [True] * 9
        assert envelope == {}
        # The text is still handed to normalise_sql once per query; a
        # repeated raw text does not re-run its body.
        assert calls == {"normalise_sql": 1, "PlanCache.get": 1}
        assert NORMALISE_SQL.cache_info().misses == bodies_run
        # The span budget of a dashboard read: 4 + one per source.
        assert span_names(site, result) == (
            ["query", "plan.cache_hit", "admit", "execute"] + ["source"] * 9
        )

    def test_warm_single_source_realtime_read(self, envelope):
        site = warm_site()
        url = site.source_urls[0]
        site.gateway.query(url, SQL, mode=QueryMode.REALTIME)
        site.clock.advance(40.0)
        envelope.clear()
        result = site.gateway.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1
        assert envelope == {}
        assert span_names(site, result) == [
            "query", "plan.cache_hit", "admit", "execute",
            "source", "attempt", "conn.acquire", "native",
        ]


class TestTreeView:
    def test_reads_the_stored_group_and_never_parses(self, calls):
        site = populated_tree()
        calls.clear()
        tree = Console(site.gateway).tree_view()
        assert calls == {}
        assert tree == parent_answer("tree")

    def test_entry_stored_without_a_group_renders_unknown(self):
        site = nine_sources()
        url = site.source_urls[0]
        site.gateway.cache.store(url, "not sql at all", ["A"], [[1]])
        assert "|    cached: ? rows=1 age=0.0s" in Console(site.gateway).tree_view()


class TestProbeBeforeDispatch:
    @pytest.mark.parametrize("n_expired", sorted(EXPIRED))
    def test_only_misses_are_dispatched(self, n_expired):
        site, result = read_with_expired(n_expired)
        gw = site.gateway
        assert summarise(result) == parent_answer(f"read_{n_expired}_expired")
        assert [s.url for s in result.statuses] == site.source_urls
        assert [i for i, s in enumerate(result.statuses) if not s.from_cache] == (
            list(EXPIRED[n_expired])
        )
        trace = gw.tracer.get(result.trace_id)
        fanouts = [s for s in trace.spans if s.name == "fanout"]
        if n_expired < 2:
            assert fanouts == []
        else:
            assert [s.attrs["branches"] for s in fanouts] == [n_expired]
        sources = [s for s in trace.spans if s.name == "source"]
        assert sorted(s.attrs["url"] for s in sources) == sorted(site.source_urls)
        answered = Counter(s.attrs["cache"] for s in sources)
        assert (answered["hit"], answered["miss"]) == (9 - n_expired, n_expired)

    def test_lookup_counters_match_the_parent(self):
        site, _ = read_with_expired(3)
        cache = site.gateway.cache
        assert (cache.hits, cache.misses) == (6, 3)
        assert site.gateway.request_manager.stats["cache_served"] == 6


if __name__ == "__main__":
    print(json.dumps(golden(), indent=1, sort_keys=True))
