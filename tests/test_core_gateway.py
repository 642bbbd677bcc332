"""Unit tests for the Gateway facade and the ACIL."""

import pytest

from repro.core.acil import ClientRequest
from repro.core.errors import GridRmError, SecurityError, SessionError
from repro.core.gateway import Gateway
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.core.security import AccessRule, Principal
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.errors import SqlError
from repro.sql.parser import MAX_EXPR_DEPTH
from repro.testbed import build_site


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=21)
    site = build_site(network, name="gwt", n_hosts=2, agents=("snmp", "ganglia"), seed=21)
    clock.advance(20.0)
    return network, site, site.gateway


class TestSources:
    def test_sources_configured_by_testbed(self, rig):
        _, site, gw = rig
        assert len(gw.sources()) == len(site.source_urls)

    def test_add_source_idempotent(self, rig):
        _, site, gw = rig
        n = len(gw.sources())
        gw.add_source(site.url_for("snmp"))
        assert len(gw.sources()) == n

    def test_remove_source_invalidates_cache(self, rig):
        _, site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        assert gw.cache.entries_for(url)
        assert gw.remove_source(url)
        assert not gw.cache.entries_for(url)

    def test_remove_missing_source(self, rig):
        _, _, gw = rig
        assert not gw.remove_source("jdbc:snmp://ghost/x")

    def test_poll_status_tracked(self, rig):
        network, site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        source = gw.source(url)
        assert source.last_ok is True
        assert source.last_polled == network.clock.now()

    def test_poll_failure_recorded(self, rig):
        network, site, gw = rig
        url = site.url_for("snmp")
        network.set_host_up(site.host_names()[0], False)
        gw.query(url, "SELECT * FROM Host")
        source = gw.source(url)
        assert source.last_ok is False and source.last_error

    def test_query_all_sources(self, rig):
        _, site, gw = rig
        r = gw.query_all_sources("SELECT * FROM Host", mode=QueryMode.REALTIME)
        assert r.ok_sources == len(site.source_urls)

    def test_query_all_sources_empty_raises(self, rig):
        network, _, _ = rig
        empty = Gateway(network, "lonely-gw", site="lonely")
        with pytest.raises(GridRmError):
            empty.query_all_sources("SELECT * FROM Host")


class TestSecurityIntegration:
    @pytest.fixture
    def secure(self):
        clock = VirtualClock()
        network = Network(clock, seed=31)
        site = build_site(
            network,
            name="sec",
            n_hosts=2,
            agents=("snmp",),
            policy=GatewayPolicy(security_enabled=True),
        )
        clock.advance(10.0)
        gw = site.gateway
        gw.fgsl.add_rule(
            AccessRule(allow=False, who="role:student", group_pattern="Processor")
        )
        return site, gw

    def test_fgsl_blocks_group(self, secure):
        site, gw = secure
        eve = Principal.with_roles("eve", "student")
        with pytest.raises(SecurityError):
            gw.query(site.url_for("snmp"), "SELECT * FROM Processor", principal=eve)

    def test_fgsl_allows_other_groups(self, secure):
        site, gw = secure
        eve = Principal.with_roles("eve", "student")
        r = gw.query(site.url_for("snmp"), "SELECT * FROM Host", principal=eve)
        assert r.ok_sources == 1

    def test_admin_ops_gated(self, secure):
        site, gw = secure
        eve = Principal.with_roles("eve", "student")
        with pytest.raises(SecurityError):
            gw.set_driver_preference(site.url_for("snmp"), ["JDBC-SNMP"], principal=eve)
        admin = Principal.with_roles("ops", "admin")
        gw.set_driver_preference(site.url_for("snmp"), ["JDBC-SNMP"], principal=admin)

    def test_acil_requires_session_when_secured(self, secure):
        site, gw = secure
        with pytest.raises(SessionError):
            gw.acil.query(ClientRequest(urls=[site.url_for("snmp")], sql="SELECT * FROM Host"))

    def test_acil_with_session(self, secure):
        site, gw = secure
        session = gw.login(Principal.with_roles("bob", "user"))
        resp = gw.acil.query(
            ClientRequest(
                urls=[site.url_for("snmp")],
                sql="SELECT HostName FROM Host",
                session_token=session.token,
            )
        )
        assert resp.rows and resp.statuses[0]["ok"]


class TestAcil:
    def test_anonymous_when_security_off(self, rig):
        _, site, gw = rig
        resp = gw.acil.query(
            ClientRequest(urls=[site.url_for("snmp")], sql="SELECT * FROM Host")
        )
        assert resp.rows[0]["HostName"]

    def test_bad_mode_rejected(self, rig):
        _, site, gw = rig
        with pytest.raises(SecurityError):
            gw.acil.query(
                ClientRequest(
                    urls=[site.url_for("snmp")], sql="SELECT * FROM Host", mode="psychic"
                )
            )

    def test_response_carries_statuses_and_elapsed(self, rig):
        _, site, gw = rig
        resp = gw.acil.query(
            ClientRequest(urls=[site.url_for("snmp")], sql="SELECT * FROM Host")
        )
        assert resp.elapsed > 0
        assert resp.statuses[0]["url"] == site.url_for("snmp")


class TestHostileNesting:
    """A query nested past the parser's bound reaches the client as a
    typed error from every entry point; one at the bound runs."""

    WHERE = "SELECT * FROM Processor WHERE "
    PARENS = WHERE + "(" * 300 + "LoadAverage1Min > 1" + ")" * 300
    NOTS = WHERE + "NOT " * 2000 + "LoadAverage1Min > 1"

    @pytest.mark.parametrize("sql", [PARENS, NOTS], ids=["parens", "nots"])
    def test_typed_error_through_query_and_acil(self, rig, sql):
        _, site, gw = rig
        url = site.url_for("snmp")
        with pytest.raises((SqlError, GridRmError), match="nested deeper"):
            gw.query(url, sql)
        with pytest.raises((SqlError, GridRmError), match="nested deeper"):
            gw.query(url, sql, mode=QueryMode.HISTORY)
        with pytest.raises((SqlError, GridRmError), match="nested deeper"):
            gw.acil.query(ClientRequest(urls=[url], sql=sql))

    def test_deepest_legal_query_binds_and_executes(self, rig):
        _, site, gw = rig
        url = site.url_for("snmp")
        n = MAX_EXPR_DEPTH - 1
        for sql in (
            self.WHERE + "(" * n + "LoadAverage1Min >= 0" + ")" * n,
            self.WHERE + "NOT " * ((n - 1) // 2 * 2) + "LoadAverage1Min >= 0",
            self.WHERE + " OR ".join(["LoadAverage1Min >= 0"] * n),
        ):
            assert gw.query(url, sql).rows
            assert gw.query(url, sql, mode=QueryMode.HISTORY).rows


class TestDriverAdmin:
    def test_runtime_register_unregister(self, rig):
        network, site, gw = rig
        from repro.drivers.nws_driver import NwsDriver

        class CustomDriver(NwsDriver):
            protocol = "customproto"
            display_name = "JDBC-Custom"

        extra = CustomDriver(network, gateway_host=gw.host)
        gw.register_driver(extra)
        assert "JDBC-Custom" in gw.driver_manager.driver_names()
        assert gw.unregister_driver(extra)
        assert "JDBC-Custom" not in gw.driver_manager.driver_names()

    def test_queries_keep_working_during_registration_churn(self, rig):
        network, site, gw = rig
        from repro.drivers.nws_driver import NwsDriver

        url = site.url_for("snmp")
        for _ in range(3):
            extra = NwsDriver(network, gateway_host=gw.host)
            gw.register_driver(extra)
            r = gw.query(url, "SELECT * FROM Host")
            assert r.ok_sources == 1
            gw.unregister_driver(extra)

    def test_stats_snapshot_shape(self, rig):
        _, site, gw = rig
        gw.query(site.url_for("snmp"), "SELECT * FROM Host")
        stats = gw.stats()
        assert stats["requests"]["queries"] >= 1
        assert "connections" in stats and "events" in stats

    def test_persistent_store_restores_drivers(self, rig):
        network, _, gw = rig
        store = dict(gw.driver_manager.persistent_store)
        reborn = Gateway(
            network,
            "reborn-gw",
            site="gwt",
            register_default_drivers=False,
            install_event_drivers=False,
            persistent_store=store,
        )
        assert set(reborn.driver_manager.driver_names()) == set(
            gw.driver_manager.driver_names()
        )
