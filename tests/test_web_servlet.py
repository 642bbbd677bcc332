"""Unit tests for the gateway servlet (paper Figure 1)."""

import pytest

from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site
from repro.web.servlet import GatewayServlet, http_get


@pytest.fixture
def servlet(site):
    return GatewayServlet(site.gateway)


def get(site, servlet, target):
    return http_get(site.network, site.host_names()[0], servlet.address, target)


class TestRouting:
    def test_index_serves_html(self, site, servlet):
        code, body = get(site, servlet, "/")
        assert code == 200 and body.startswith("<html>")

    def test_tree(self, site, servlet):
        code, body = get(site, servlet, "/tree")
        assert code == 200 and "GridRM Gateway" in body

    def test_drivers(self, site, servlet):
        code, body = get(site, servlet, "/drivers")
        assert code == 200 and "JDBC-SNMP" in body

    def test_sources(self, site, servlet):
        code, body = get(site, servlet, "/sources")
        assert code == 200
        assert set(body.splitlines()) == set(site.source_urls)

    def test_stats(self, site, servlet):
        code, body = get(site, servlet, "/stats")
        assert code == 200 and "requests" in body

    def test_unknown_path_404(self, site, servlet):
        code, _ = get(site, servlet, "/nope")
        assert code == 404

    def test_non_get_rejected(self, site, servlet):
        raw = site.network.request(
            site.host_names()[0], servlet.address, "POST /tree"
        )
        assert "400" in raw.splitlines()[0]

    def test_garbage_rejected(self, site, servlet):
        raw = site.network.request(site.host_names()[0], servlet.address, "")
        assert "400" in raw.splitlines()[0]


class TestOverloadEndpoint:
    def test_overload_panel_with_admission_on(self):
        network = Network(VirtualClock(), seed=7)
        site = build_site(
            network,
            name="site-o",
            n_hosts=2,
            agents=("snmp",),
            seed=7,
            policy=GatewayPolicy(
                admission_enabled=True,
                adaptive_concurrency=True,
                admission_queue_limit=12,
            ),
        )
        network.clock.advance(30)
        servlet = GatewayServlet(site.gateway)
        site.gateway.query(
            site.source_urls, "SELECT HostName FROM Host", mode=QueryMode.REALTIME
        )
        code, body = get(site, servlet, "/overload")
        assert code == 200
        assert "adaptive concurrency enabled" in body
        assert "pressure: NORMAL" in body
        assert "queue: 0/12" in body
        assert "admitted: 1 " in body
        for url in site.source_urls:
            assert f"  - {url}: limit=4, baseline=" in body

    def test_overload_panel_says_so_when_admission_is_off(self, site, servlet):
        code, body = get(site, servlet, "/overload")
        assert code == 200
        assert "DISABLED" in body and "admission_enabled=False" in body


class TestQueryEndpoint:
    def test_query_returns_tsv(self, site, servlet):
        url = site.url_for("snmp").replace(":", "%3A").replace("/", "%2F")
        sql = "SELECT%20HostName%20FROM%20Host"
        code, body = get(site, servlet, f"/query?url={url}&sql={sql}")
        assert code == 200
        lines = body.splitlines()
        assert lines[0] == "HostName"
        assert lines[1] == site.host_names()[0]
        assert any(l.startswith("# sources ok=1") for l in lines)

    def test_query_missing_params_400(self, site, servlet):
        code, body = get(site, servlet, "/query?sql=SELECT%20*%20FROM%20Host")
        assert code == 400

    def test_query_bad_mode_400(self, site, servlet):
        url = site.url_for("snmp").replace(":", "%3A")
        code, _ = get(site, servlet, f"/query?url={url}&sql=SELECT%201%20FROM%20Host&mode=psychic")
        assert code == 400

    def test_query_bad_sql_500(self, site, servlet):
        url = site.url_for("snmp").replace(":", "%3A")
        code, body = get(site, servlet, f"/query?url={url}&sql=SELEKT")
        assert code == 500

    def test_unreadable_number_is_a_typed_500(self, site, servlet):
        """A superscript digit passes ``str.isdigit`` and used to escape the
        servlet as a raw ValueError out of ``int()``."""
        url = site.url_for("snmp").replace(":", "%3A")
        sql = "SELECT%20HostName%20FROM%20Host%20WHERE%20CPUCount%20%3E%20%C2%B2"
        code, body = get(site, servlet, f"/query?url={url}&sql={sql}")
        assert code == 500
        position = len("SELECT HostName FROM Host WHERE CPUCount > ")
        assert body.startswith(f"SqlParseError: unexpected character '\u00b2' at position {position}")

    def test_hostile_url_port_is_a_typed_500(self, site, servlet):
        """A port past Python's int-conversion limit used to escape the
        servlet as a raw ValueError, into the caller's stack."""
        sql = "SELECT%20HostName%20FROM%20Host"
        hostile = "jdbc%3Asnmp%3A%2F%2Fh%3A" + "9" * 5000 + "%2Fx"
        code, body = get(site, servlet, f"/query?url={hostile}&sql={sql}")
        assert code == 500
        assert body.startswith("SQLException: malformed JDBC URL")
        url = site.url_for("snmp").replace(":", "%3A").replace("/", "%2F")
        code, body = get(site, servlet, f"/query?url={url}&sql={sql}")
        assert code == 200 and body.splitlines()[1] == site.host_names()[0]

    def test_failed_source_reported_in_comments(self, site, servlet):
        site.network.set_host_up(site.host_names()[0], False)
        url = site.url_for("snmp", host=site.host_names()[0]).replace(":", "%3A")
        code, body = get(site, servlet, f"/query?url={url}&sql=SELECT%20*%20FROM%20Host")
        assert code == 200
        assert "# failed" in body


class TestReportEndpoint:
    def test_report_without_history(self, site, servlet):
        code, body = get(site, servlet, "/report")
        assert code == 200
        assert "Site capacity:" in body and "no Processor history" in body

    def test_report_with_history(self, site, servlet):
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")]
        site.gateway.query(urls, "SELECT * FROM Processor")
        site.gateway.query(urls, "SELECT * FROM MainMemory")
        code, body = get(site, servlet, "/report")
        assert code == 200
        assert f"hosts={len(site.hosts)}" in body
        assert site.host_names()[0] in body


class TestShutdown:
    def test_shutdown_stops_background_work(self, site):
        gw = site.gateway
        from repro.core.alerts import AlertRule

        gw.alerts.add_rule(
            AlertRule(
                name="r",
                urls=[site.url_for("snmp")],
                sql="SELECT HostName FROM Processor WHERE CPUCount >= 1",
                period=10.0,
                use_cache=False,
            )
        )
        gw.query(site.url_for("snmp"), "SELECT * FROM Host")
        gw.shutdown()
        polls = gw.alerts.stats["polls"]
        traffic = site.network.stats.requests
        site.clock.advance(120.0)
        assert gw.alerts.stats["polls"] == polls
        # No background traffic from this gateway (agents still tick).
        assert gw.connection_manager.idle_count() == 0
        assert len(gw.cache) == 0

    def test_trap_port_unbound_after_shutdown(self, site):
        gw = site.gateway
        gw.shutdown()
        assert not site.network.is_listening(gw.trap_sink_address)


class TestPlotEndpoint:
    def test_plot_after_history(self, site, servlet):
        for _ in range(10):
            site.gateway.query(site.url_for("snmp"), "SELECT * FROM Processor")
            site.clock.advance(10.0)
        host = site.host_names()[0]
        code, body = get(
            site, servlet, f"/plot?group=Processor&field=LoadAverage1Min&host={host}"
        )
        assert code == 200 and "Processor.LoadAverage1Min" in body

    def test_plot_missing_params_400(self, site, servlet):
        code, _ = get(site, servlet, "/plot?group=Processor")
        assert code == 400

    def test_request_counter(self, site, servlet):
        get(site, servlet, "/tree")
        get(site, servlet, "/tree")
        assert servlet.requests_served == 2
