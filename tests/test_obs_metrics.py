"""Observability plane: registry, compat views, self-monitoring driver.

The contract under test is threefold: the :class:`MetricsRegistry` is a
correct home for counters and histograms; the managers' historical
``stats`` surfaces still read and write the exact keys they always did
(now as views over registry instruments); and ``SELECT * FROM
GatewayMetrics`` through the *normal* driver stack returns the same live
numbers, because the self-monitoring driver's "agent" is the registry
itself.
"""

from __future__ import annotations

import pytest

from repro.core.request_manager import QueryMode
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, StatsView
from repro.web.servlet import GatewayServlet, http_get

GRM_URL = "jdbc:grm://localhost/gateway"


def grm_rows(gateway, sql="SELECT Name, Kind, Value FROM GatewayMetrics"):
    """Run a self-monitoring query and return {name: value} per row."""
    result = gateway.query([GRM_URL], sql, mode=QueryMode.REALTIME)
    assert result.failed_sources == 0, [s.error for s in result.statuses]
    idx = {c: i for i, c in enumerate(result.columns)}
    return {row[idx["Name"]]: row[idx["Value"]] for row in result.rows}


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_instruments_minted_once(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.histogram("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        for name in ("z.last", "a.first", "m.mid"):
            reg.counter(name)
        assert reg.names() == ["a.first", "m.mid", "z.last"]

    def test_get_returns_none_for_unknown(self):
        """There is no lookup by name (``get`` is gone: a serving path
        holds its instruments); an instrument nobody bound is not listed."""
        reg = MetricsRegistry()
        reg.counter("a")
        assert "nope" not in reg.names()
        assert "nope" not in reg.snapshot()

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").add(3)
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["h"]["count"] == 3
        assert snap["h"]["mean"] == pytest.approx(2.0)
        assert set(snap["h"]) == {"count", "mean", "p50", "p95", "p99"}

    def test_as_rows_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").record(4.0)
        rows = {row["name"]: row for row in reg.as_rows()}
        assert rows["c"]["kind"] == "counter"
        assert rows["c"]["value"] == 1
        assert rows["c"]["count"] is None and rows["c"]["p99"] is None
        assert rows["h"]["kind"] == "histogram"
        assert rows["h"]["count"] == 1
        assert rows["h"]["p50"] == pytest.approx(4.0)


class TestInstruments:
    def test_counter_is_monotone(self):
        c = Counter("c")
        c.inc()
        c.add(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.add(-1)
        c.reset()
        assert c.value == 0

    def test_gauge_moves_both_ways(self):
        """The registry has no gauge; a value that moves both ways is
        recorded as histogram samples, whose extremes follow it."""
        h = Histogram("h")
        h.record(10)
        h.record(6)
        assert (h.min, h.max, h.mean) == (6, 10, 8)

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("h").record(-0.1)

    def test_histogram_quantile_domain(self):
        h = Histogram("h")
        h.record(1.0)
        for bad in (0, -5, 101):
            with pytest.raises(ValueError):
                h.quantile(bad)

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(50) == 0.0

    def test_all_zero_samples(self):
        h = Histogram("h")
        for _ in range(5):
            h.record(0.0)
        assert h.p50 == 0.0 and h.p99 == 0.0 and h.mean == 0.0


# ---------------------------------------------------------------------------
# StatsView: the read-only view every manager's ``stats`` is
# ---------------------------------------------------------------------------
class TestStatsView:
    def test_iterates_in_declaration_order(self):
        reg = MetricsRegistry()
        view = StatsView(reg, "p", ("zulu", "alpha", "mike"))
        assert list(view) == ["zulu", "alpha", "mike"]
        assert dict(view) == {"zulu": 0, "alpha": 0, "mike": 0}

    def test_writes_land_on_registry_counters(self):
        reg = MetricsRegistry()
        view = StatsView(reg, "p", ("hits",))
        view.inc("hits")
        view.inc("hits", 2)
        assert view["hits"] == view.hits == 3
        assert view.as_dict() == dict(view) == {"hits": 3}
        assert reg.counter("p.hits").value == 3
        view.reset()
        assert view["hits"] == reg.counter("p.hits").value == 0

    def test_registry_writes_visible_through_view(self):
        reg = MetricsRegistry()
        view = StatsView(reg, "p", ("hits",))
        reg.counter("p.hits").add(7)
        assert view["hits"] == 7

    def test_decrease_raises(self):
        reg = MetricsRegistry()
        view = StatsView(reg, "p", ("hits",))
        view.inc("hits", 5)
        with pytest.raises(ValueError, match="cannot decrease"):
            view.inc("hits", -1)
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("p.hits").add(-1)
        assert view["hits"] == 5

    def test_unknown_key_raises(self):
        view = StatsView(MetricsRegistry(), "p", ("hits",))
        with pytest.raises(KeyError):
            view["misses"]
        with pytest.raises(KeyError):
            view.inc("misses")
        with pytest.raises(AttributeError):
            view.misses

    def test_new_key_appends(self):
        """The key set is fixed at construction: the view takes no item
        or attribute assignment, so nothing appends a key."""
        view = StatsView(MetricsRegistry(), "p", ("hits",))
        with pytest.raises(TypeError):
            view["late"] = 1
        with pytest.raises(TypeError):
            del view["hits"]
        with pytest.raises(AttributeError):
            view.hits = 1
        assert list(view) == ["hits"]


# ---------------------------------------------------------------------------
# Manager stats kept their historical key names (compat acceptance)
# ---------------------------------------------------------------------------
class TestManagerCompat:
    def test_request_manager_keys_and_liveness(self, site):
        stats = site.gateway.request_manager.stats
        before = stats["queries"]
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        assert stats["queries"] == before + 1
        assert site.gateway.metrics.counter("requests.queries").value == before + 1

    def test_cache_attribute_shim(self, site):
        """``cache.hits`` reads the registry counter; it is read-only
        (the setter no shipped caller used is gone), so a hit is the
        only thing that moves it."""
        cache = site.gateway.cache
        before = cache.hits
        with pytest.raises(AttributeError):
            cache.hits = before + 2
        cache.store("u", "SELECT 1", ["a"], [])
        cache.lookup("u", "SELECT 1")
        assert cache.hits == before + 1
        assert site.gateway.metrics.counter("cache.hits").value == before + 1

    def test_network_stats_registry_backed(self, site):
        net = site.network
        before = net.stats.requests
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        assert net.stats.requests > before
        assert net.metrics.counter("net.requests").value == net.stats.requests

    def test_dispatcher_stats_in_registry(self, site):
        stats = site.gateway.dispatcher.stats.as_dict()
        assert "hedges_fired" in stats and "singleflight_joins" in stats


# ---------------------------------------------------------------------------
# The self-monitoring driver: the monitor monitors itself
# ---------------------------------------------------------------------------
class TestSelfMonitoringDriver:
    def test_select_returns_live_registry_values(self, site):
        gw = site.gateway
        gw.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        v1 = grm_rows(gw)["requests.queries"]
        assert v1 >= 1
        for _ in range(3):
            gw.query(
                [site.url_for("snmp")], "SELECT HostName FROM Host",
                mode=QueryMode.REALTIME,
            )
        v2 = grm_rows(gw)["requests.queries"]
        assert v2 >= v1 + 3  # live values, not a stale snapshot

    def test_history_reads_say_what_they_scanned(self):
        """``history.queries`` / ``history.rows_scanned`` (rows handed to
        the bound plan) on every surface: registry, ``stats()``, the
        ``grm://`` relation, the durability panel and the trace."""
        from repro.simnet.clock import VirtualClock
        from repro.simnet.network import Network
        from repro.testbed import build_site
        from repro.web.console import Console

        network = Network(VirtualClock(), seed=5)
        site = build_site(
            network, name="site-a", n_hosts=3, agents=("snmp",)
        )
        gw = site.gateway
        urls = list(site.source_urls)
        marks = []
        for _ in range(4):
            marks.append(site.clock.now())
            gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
            site.clock.advance(30.0)
        assert gw.history.row_count("Processor") == 12
        result = gw.query(
            urls[:1],
            f"SELECT HostName, RecordedAt FROM Processor WHERE RecordedAt >= {marks[2]!r}",
            mode=QueryMode.HISTORY,
        )
        assert len(result.rows) == 2
        span = next(s for s in gw.tracer.last().spans if s.name == "history")
        assert (span.attrs["scanned"], span.attrs["rows"]) == (2, 2)
        gw.query(urls[1:2], "SELECT HostName FROM Processor", mode=QueryMode.HISTORY)
        assert gw.metrics.counter("history.queries").value == 2
        assert gw.metrics.counter("history.rows_scanned").value == 2 + 4
        stats = gw.stats()
        assert (stats["history_queries"], stats["history_rows_scanned"]) == (2, 6)
        assert stats["history_rows"] == 12
        rows = grm_rows(gw, "SELECT Name, Value FROM GatewayMetrics WHERE Name LIKE 'history.%'")
        assert rows == {"history.queries": 2, "history.rows_scanned": 6}
        assert "reads: 2 queries handed 6 rows to their plans (12 rows serving)" in (
            Console(gw).durability_panel()
        )

    def test_network_counters_folded_in(self, site):
        names = grm_rows(site.gateway)
        assert any(name.startswith("net.") for name in names)

    def test_where_filter_narrows_rows(self, site):
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        names = grm_rows(
            site.gateway,
            "SELECT Name, Value FROM GatewayMetrics "
            "WHERE Name LIKE 'requests.%'",
        )
        assert names
        assert all(name.startswith("requests.") for name in names)

    def test_each_scan_counts_itself(self, site):
        gw = site.gateway
        grm_rows(gw)
        first = gw.metrics.counter("obs.self_scans").value
        grm_rows(gw)
        assert gw.metrics.counter("obs.self_scans").value == first + 1

    def test_histogram_quantiles_served(self, site):
        gw = site.gateway
        gw.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        result = gw.query(
            [GRM_URL],
            "SELECT Name, Kind, P50, P99 FROM GatewayMetrics "
            "WHERE Name = 'gateway.query_elapsed'",
            mode=QueryMode.REALTIME,
        )
        idx = {c: i for i, c in enumerate(result.columns)}
        (row,) = result.rows
        assert row[idx["Kind"]] == "histogram"
        assert 0 < row[idx["P50"]] <= row[idx["P99"]]


# ---------------------------------------------------------------------------
# Console panels and servlet endpoints
# ---------------------------------------------------------------------------
@pytest.fixture
def servlet(site):
    return GatewayServlet(site.gateway)


def get(site, servlet, target):
    return http_get(site.network, site.host_names()[0], servlet.address, target)


class TestSurfaces:
    def test_metrics_endpoint(self, site, servlet):
        code, body = get(site, servlet, "/metrics")
        assert code == 200
        assert "Gateway metrics" in body
        assert "requests.queries (counter):" in body

    def test_trace_digest_endpoint(self, site, servlet):
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        code, body = get(site, servlet, "/trace")
        assert code == 200
        trace_id = site.gateway.tracer.last().trace_id
        assert f"- {trace_id}: query" in body

    def test_trace_detail_endpoint(self, site, servlet):
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        trace_id = site.gateway.tracer.last().trace_id
        code, body = get(site, servlet, f"/trace/{trace_id}")
        assert code == 200
        assert body.startswith(f"trace {trace_id} · query")
        assert "└─" in body  # rendered tree, not the digest

    def test_trace_unknown_id_404(self, site, servlet):
        code, body = get(site, servlet, "/trace/q999999")
        assert code == 404

    def test_metrics_panel_histogram_line(self, site, servlet):
        site.gateway.query(
            [site.url_for("snmp")], "SELECT HostName FROM Host",
            mode=QueryMode.REALTIME,
        )
        body = servlet.console.metrics_panel()
        assert "gateway.query_elapsed (histogram):" in body
        assert "p95=" in body

    def test_gateway_stats_counts_observability(self, site):
        stats = site.gateway.stats()
        assert stats["metrics"]["instruments"] > 0
