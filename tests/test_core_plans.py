"""Unit + end-to-end tests for the PlanCache."""

import pytest

from repro.core.plans import MAX_ENTRIES, PlanCache
from repro.core.request_manager import QueryMode
from repro.glue.schema import standard_schema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlError
from repro.testbed import build_site

SQL = "SELECT HostName FROM Host"


@pytest.fixture
def schema():
    return standard_schema()


class TestHitMiss:
    def test_miss_then_hit_same_entry(self, schema):
        cache = PlanCache(schema)
        first = cache.get(SQL)
        second = cache.get(SQL)
        assert second is first
        assert cache.misses == 1 and cache.hits == 1

    def test_key_is_normalised_sql(self, schema):
        cache = PlanCache(schema)
        a = cache.get("SELECT  HostName\nFROM   Host")
        b = cache.get("select HostName from Host;")
        assert b is a
        assert cache.misses == 1 and cache.hits == 1

    def test_literal_case_keeps_entries_apart(self, schema):
        cache = PlanCache(schema)
        a = cache.get("SELECT * FROM Host WHERE HostName = 'A'")
        b = cache.get("SELECT * FROM Host WHERE HostName = 'a'")
        assert b is not a
        assert b.select.where == ast.BinOp(
            "=", ast.Column("HostName"), ast.Literal("a")
        )
        assert len(cache) == 2

    def test_extra_fields_split_entries(self, schema):
        cache = PlanCache(schema)
        realtime = cache.get(SQL)
        history = cache.get(SQL, extra_fields=("SourceUrl", "RecordedAt"))
        assert history is not realtime
        assert cache.misses == 2

    def test_valid_query_gets_compiled_plan(self, schema):
        entry = PlanCache(schema).get(SQL)
        assert entry.findings == []
        assert entry.plan is not None
        assert entry.select.table == "Host"

    def test_findings_cached_without_plan(self, schema):
        cache = PlanCache(schema)
        entry = cache.get("SELECT Nope FROM Host")
        assert entry.findings
        assert entry.plan is None
        assert cache.get("SELECT Nope FROM Host") is entry
        assert cache.hits == 1

    def test_parse_error_propagates_and_is_not_cached(self, schema):
        cache = PlanCache(schema)
        with pytest.raises(SqlError):
            cache.get("SELECT FROM WHERE")
        with pytest.raises(SqlError):
            cache.get("SELECT FROM WHERE")
        assert len(cache) == 0
        assert cache.misses == 2

    def test_counters_surface_in_registry(self, schema):
        registry = MetricsRegistry()
        cache = PlanCache(schema, registry=registry)
        cache.get(SQL)
        cache.get(SQL)
        snapshot = registry.snapshot()
        assert snapshot["plans.misses"] == 1
        assert snapshot["plans.hits"] == 1


class TestInvalidation:
    def test_version_bump_drops_entries(self, schema):
        version = [1]
        cache = PlanCache(schema, version_fn=lambda: version[0])
        first = cache.get(SQL)
        version[0] += 1
        second = cache.get(SQL)
        assert second is not first
        assert cache.invalidations == 1
        assert cache.misses == 2

    def test_unchanged_version_keeps_entries(self, schema):
        version = [1]
        cache = PlanCache(schema, version_fn=lambda: version[0])
        first = cache.get(SQL)
        assert cache.get(SQL) is first
        assert cache.invalidations == 0

    def test_explicit_invalidate(self, schema):
        cache = PlanCache(schema)
        cache.get(SQL)
        cache.get("SELECT * FROM Host")
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_invalidate_empty_is_free(self, schema):
        cache = PlanCache(schema)
        assert cache.invalidate() == 0
        assert cache.invalidations == 0


def nth(i):
    """The ``i``-th of as many distinct query texts as a test needs, each
    of a shape of its own (a text that differed from another only in a
    literal would be instantiated, not compiled)."""
    return f"SELECT HostName AS h{i} FROM Host"


class TestLru:
    """The shipped bound, ``plans.MAX_ENTRIES`` entries."""

    def test_eviction_past_capacity(self, schema):
        cache = PlanCache(schema)
        for i in range(MAX_ENTRIES + 1):
            cache.get(nth(i))
        assert len(cache) == MAX_ENTRIES
        assert cache.evictions == 1
        cache.get(nth(0))  # evicted: a fresh miss
        assert cache.misses == MAX_ENTRIES + 2

    def test_hit_refreshes_recency(self, schema):
        cache = PlanCache(schema)
        first = cache.get(nth(0))
        for i in range(1, MAX_ENTRIES):
            cache.get(nth(i))
        cache.get(nth(0))                      # refresh
        cache.get(nth(MAX_ENTRIES))            # evicts nth(1) instead
        assert cache.get(nth(0)) is first
        assert cache.hits == 2
        assert len(cache) == MAX_ENTRIES

    def test_zero_capacity_means_unbounded(self, schema):
        """No capacity means unbounded any more (the "0 = unbounded"
        branch went with the keyword): a cache at its bound holds every
        entry and has evicted none."""
        cache = PlanCache(schema)
        for i in range(MAX_ENTRIES):
            cache.get(nth(i))
        assert len(cache) == MAX_ENTRIES
        assert cache.evictions == 0

    def test_negative_capacity_rejected(self, schema):
        """The capacity is a constant now, not a keyword to refuse: it
        meets the bound the constructor checked, and holds an entry."""
        assert MAX_ENTRIES >= 1


class TestTraceSpans:
    def test_cold_get_shows_compile_with_parse_and_validate(self, schema):
        tracer = Tracer(VirtualClock())
        cache = PlanCache(schema, tracer=tracer)
        with tracer.start_trace("q"):
            cache.get(SQL)
        names = [s.name for s in tracer.last().spans]
        assert "plan.compile" in names
        assert "parse" in names and "validate" in names
        assert "plan.cache_hit" not in names

    def test_warm_get_shows_cache_hit_only(self, schema):
        tracer = Tracer(VirtualClock())
        cache = PlanCache(schema, tracer=tracer)
        with tracer.start_trace("cold"):
            cache.get(SQL)
        with tracer.start_trace("warm"):
            cache.get(SQL)
        names = [s.name for s in tracer.last().spans]
        assert "plan.cache_hit" in names
        assert "parse" not in names and "validate" not in names


class TestGatewayEndToEnd:
    @pytest.fixture
    def rig(self):
        clock = VirtualClock()
        network = Network(clock, seed=11)
        site = build_site(network, name="pc", n_hosts=2, agents=("snmp",), seed=11)
        clock.advance(5.0)
        return site, site.gateway

    def test_warm_query_skips_parse_and_validate(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        cold = [s.name for s in gw.tracer.last().spans]
        assert "plan.compile" in cold and "parse" in cold
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        warm = [s.name for s in gw.tracer.last().spans]
        assert "plan.cache_hit" in warm
        assert "parse" not in warm and "validate" not in warm
        assert gw.plans.hits >= 1

    @pytest.mark.parametrize("mode", [QueryMode.REALTIME, QueryMode.CACHED_OK])
    def test_labels_do_not_depend_on_what_another_client_asked_first(
        self, rig, mode
    ):
        """A column's label is its spelling in the query: an earlier
        ``hostname`` must not name a later ``HostName``'s column, neither
        through the plan cache nor through the result cache."""
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, "SELECT hostname FROM Processor", mode=mode)
        result = gw.query(url, "SELECT HostName FROM Processor", mode=mode)
        assert result.columns == ["HostName"]

    def test_schema_change_invalidates_plans(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        misses = gw.plans.misses
        gw.schema_manager.version += 1  # what set_mapping() does
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert gw.plans.invalidations >= 1
        assert gw.plans.misses == misses + 1

    def test_results_identical_cold_and_warm(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        sql = "SELECT HostName, LoadAverage1Min FROM Processor WHERE CPUCount >= 0 ORDER BY HostName"
        cold = gw.query(url, sql, mode=QueryMode.REALTIME)
        warm = gw.query(url, sql, mode=QueryMode.REALTIME)
        assert warm.columns == cold.columns
        assert warm.rows == cold.rows
