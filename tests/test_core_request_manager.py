"""Unit tests for the RequestManager: modes, consolidation, failures."""

import pytest

from repro.core.errors import GridRmError
from repro.core.request_manager import Cause, QueryMode
from repro.testbed import build_site
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=11)
    site = build_site(network, name="rq", n_hosts=3, agents=("snmp", "ganglia"), seed=11)
    clock.advance(30.0)
    return network, site, site.gateway.request_manager


class TestRealtime:
    def test_single_source(self, rig):
        network, site, rm = rig
        r = rm.execute(site.url_for("snmp"), "SELECT HostName FROM Host")
        assert r.ok_sources == 1 and len(r.rows) == 1

    def test_multi_source_consolidation(self, rig):
        network, site, rm = rig
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")]
        r = rm.execute(urls, "SELECT HostName, LoadAverage1Min FROM Processor")
        assert r.ok_sources == 3
        assert len(r.rows) == 3
        assert {row["HostName"] for row in r.dicts()} == set(site.host_names())

    def test_bad_sql_raises_before_any_fetch(self, rig):
        network, site, rm = rig
        before = rm.stats["realtime_fetches"]
        with pytest.raises(GridRmError):
            rm.execute(site.url_for("snmp"), "SELEKT nonsense")
        assert rm.stats["realtime_fetches"] == before

    def test_empty_url_list_rejected(self, rig):
        _, _, rm = rig
        with pytest.raises(GridRmError):
            rm.execute([], "SELECT * FROM Host")

    def test_failed_source_reported_not_raised(self, rig):
        network, site, rm = rig
        dead = site.host_names()[0]
        network.set_host_up(dead, False)
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")]
        r = rm.execute(urls, "SELECT HostName FROM Host")
        assert r.ok_sources == 2 and r.failed_sources == 1
        failed = [s for s in r.statuses if not s.ok][0]
        assert dead in failed.url and failed.error
        assert failed.cause is Cause.ERROR

    def test_elapsed_uses_virtual_time(self, rig):
        network, site, rm = rig
        r = rm.execute(site.url_for("snmp"), "SELECT * FROM Host")
        assert r.elapsed > 0.0

    def test_result_set_adapter(self, rig):
        _, site, rm = rig
        rs = rm.execute(site.url_for("snmp"), "SELECT HostName FROM Host").result_set()
        assert rs.next() and rs.get("HostName")


class TestCachedOk:
    def test_second_query_served_from_cache(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        before = rm.stats["realtime_fetches"]
        r = rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        assert rm.stats["realtime_fetches"] == before
        assert r.statuses[0].from_cache
        assert r.statuses[0].cause is Cause.CACHE

    def test_realtime_mode_bypasses_cache(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Host")
        r = rm.execute(url, "SELECT * FROM Host", mode=QueryMode.REALTIME)
        assert not r.statuses[0].from_cache

    def test_cache_expiry_falls_through(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        network.clock.advance(60.0)  # > default ttl 30
        r = rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        assert not r.statuses[0].from_cache

    def test_max_age_insists_on_freshness(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        network.clock.advance(10.0)
        r = rm.execute(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK, max_age=5.0)
        assert not r.statuses[0].from_cache


class TestHistory:
    def test_star_queries_recorded(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Processor")
        h = rm.execute(url, "SELECT HostName FROM Processor", mode=QueryMode.HISTORY)
        assert h.ok_sources == 1 and len(h.rows) == 1
        assert h.statuses[0].cause is Cause.HISTORY

    def test_narrow_projections_not_recorded(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT HostName FROM Processor")
        h = rm.execute(url, "SELECT HostName FROM Processor", mode=QueryMode.HISTORY)
        assert len(h.rows) == 0

    def test_history_accumulates_samples(self, rig):
        network, site, rm = rig
        url = site.url_for("snmp")
        for _ in range(3):
            rm.execute(url, "SELECT * FROM Processor")
            network.clock.advance(5.0)
        h = rm.execute(url, "SELECT COUNT(*) FROM Processor", mode=QueryMode.HISTORY)
        assert h.rows[0][0] == 3

    def test_history_isolated_per_source(self, rig):
        network, site, rm = rig
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")][:2]
        rm.execute(urls[0], "SELECT * FROM Processor")
        h = rm.execute(urls[1], "SELECT COUNT(*) FROM Processor", mode=QueryMode.HISTORY)
        assert h.rows[0][0] == 0

    def test_history_disabled_by_policy(self):
        """Re-aimed: ``history_enabled`` is gone (no shipped caller ever
        turned history off), so this id now holds that no configuration
        does — the paper's gateway and the deployed one both record."""
        from repro.core.policy import GatewayPolicy
        from tests.conftest import paper_policy

        for policy in (paper_policy(), GatewayPolicy()):
            clock = VirtualClock()
            network = Network(clock, seed=2)
            site = build_site(
                network, name="hist", n_hosts=1, agents=("snmp",), policy=policy
            )
            clock.advance(10.0)
            rm = site.gateway.request_manager
            rm.execute(site.url_for("snmp"), "SELECT * FROM Processor")
            h = rm.execute(
                site.url_for("snmp"), "SELECT * FROM Processor", mode=QueryMode.HISTORY
            )
            assert len(h.rows) == 1

    def test_mixed_columns_align_by_name(self, rig):
        """History results carry provenance columns; consolidation with a
        real-time result aligns shared columns by name."""
        network, site, rm = rig
        url = site.url_for("snmp")
        rm.execute(url, "SELECT * FROM Processor")
        r = rm.execute(url, "SELECT * FROM Processor", mode=QueryMode.HISTORY)
        assert "SourceUrl" in r.columns
