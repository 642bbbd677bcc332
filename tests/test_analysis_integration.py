"""End-to-end wiring of the analysis passes into the gateway stack."""

import pytest

from repro.analysis.query_check import validate_sql
from repro.core.alerts import AlertRule
from repro.core.errors import QueryValidationError
from repro.core.gateway import Gateway
from repro.core.request_manager import QueryMode
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site
from repro.web.console import Console
from repro.web.servlet import SERVLET_PORT, GatewayServlet, http_get


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=7)
    site = build_site(
        network, name="an", n_hosts=2, agents=("snmp",), seed=7
    )
    clock.advance(30.0)
    return network, site, site.gateway


class TestRequestManagerRejection:
    def test_unknown_attribute_rejected_before_any_connect(self, rig):
        network, site, gw = rig
        connects_before = gw.connection_manager.stats["created"]
        selections_before = gw.driver_manager.stats["selections"]
        with pytest.raises(QueryValidationError) as err:
            gw.query(site.url_for("snmp"), "SELECT Bogus FROM Processor")
        assert [f.rule_id for f in err.value.findings] == ["GRM202"]
        assert gw.connection_manager.stats["created"] == connects_before
        assert gw.driver_manager.stats["selections"] == selections_before
        assert gw.request_manager.stats["validation_rejects"] == 1

    def test_unknown_group_rejected(self, rig):
        _, site, gw = rig
        with pytest.raises(QueryValidationError) as err:
            gw.query(site.url_for("snmp"), "SELECT * FROM NopeGroup")
        assert [f.rule_id for f in err.value.findings] == ["GRM201"]

    def test_type_mismatch_rejected(self, rig):
        _, site, gw = rig
        with pytest.raises(QueryValidationError):
            gw.query(
                site.url_for("snmp"),
                "SELECT HostName FROM Processor WHERE Vendor > 5",
            )

    def test_valid_query_unaffected(self, rig):
        _, site, gw = rig
        r = gw.query(site.url_for("snmp"), "SELECT HostName FROM Host")
        assert r.ok_sources == 1

    def test_history_mode_allows_provenance_columns(self, rig):
        _, site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")  # record some history
        r = gw.query(
            url,
            "SELECT HostName, SourceUrl, RecordedAt FROM Host",
            mode=QueryMode.HISTORY,
        )
        assert r.ok_sources == 1
        # ... but REALTIME does not know those columns.
        with pytest.raises(QueryValidationError):
            gw.query(url, "SELECT HostName, SourceUrl FROM Host")

    def test_runtime_added_group_is_queryable(self, rig):
        _, site, gw = rig
        from repro.glue.schema import GlueField, GlueGroup

        gw.schema_manager.schema.add_group(
            GlueGroup(
                "Weather",
                fields=(GlueField("HostName", "TEXT"), GlueField("TempC", "REAL")),
            )
        )
        with pytest.raises(QueryValidationError) as err:
            gw.query(site.url_for("snmp"), "SELECT Nope FROM Weather")
        # The new group resolves; only the bogus column is reported.
        assert [f.rule_id for f in err.value.findings] == ["GRM202"]


class TestAlertRuleValidation:
    def test_bad_alert_sql_rejected_at_install(self, rig):
        _, site, gw = rig
        with pytest.raises(QueryValidationError):
            gw.alerts.add_rule(
                AlertRule(
                    name="bogus",
                    urls=[site.url_for("snmp")],
                    sql="SELECT * FROM NoSuchGroup",
                )
            )
        assert gw.alerts.rules() == []

    def test_good_alert_sql_accepted(self, rig):
        _, site, gw = rig
        gw.alerts.add_rule(
            AlertRule(
                name="load",
                urls=[site.url_for("snmp")],
                sql=(
                    "SELECT HostName, LoadAverage1Min FROM Processor "
                    "WHERE LoadAverage1Min > 4"
                ),
            )
        )
        assert [r.name for r in gw.alerts.rules()] == ["load"]


class TestGatewayAnalyze:
    def test_clean_gateway_is_clean(self, rig):
        _, _, gw = rig
        report = gw.analyze()
        assert report.findings == []
        assert report.files_scanned == len(gw.registry.drivers())

    def test_unloadable_persisted_spec_is_grm301(self):
        clock = VirtualClock()
        network = Network(clock)
        network.add_host("gw2", site="s")
        store = {"no.such.module:Ghost": "GhostDriver"}
        gw = Gateway(network, "gw2", persistent_store=store)
        assert [f.rule_id for f in gw.startup_findings] == ["GRM301"]
        report = gw.analyze()
        assert "GRM301" in report.rule_ids()
        assert any("no.such.module:Ghost" == f.symbol for f in report.findings)

    def test_invalid_alert_sql_reported_by_analyze(self, rig):
        _, site, gw = rig
        # Installed before validation existed (simulated by going around
        # add_rule): analyze() still surfaces it.
        rule = AlertRule(
            name="legacy",
            urls=[site.url_for("snmp")],
            sql="SELECT Bogus FROM Processor",
        )
        gw.alerts._rules["legacy"] = rule
        report = gw.analyze()
        assert "GRM202" in report.rule_ids()
        assert any(f.path == "<alert:legacy>" for f in report.findings)

    def test_schema_manager_convenience(self, rig):
        """``SchemaManager.validate_sql`` was a wrapper and is gone; the
        check runs against the schema the manager holds."""
        _, _, gw = rig
        schema = gw.schema_manager.schema
        assert validate_sql("SELECT * FROM Host", schema) == []
        findings = validate_sql("SELECT * FROM Nope", schema)
        assert [f.rule_id for f in findings] == ["GRM201"]


class TestConsoleAndServlet:
    def test_analysis_panel_renders(self, rig):
        _, _, gw = rig
        text = Console(gw).analysis_panel()
        assert text.startswith("Static analysis")
        assert "(clean)" in text

    def test_servlet_analyze_route(self, rig):
        network, _, gw = rig
        network.add_host("client", site=gw.site)
        servlet = GatewayServlet(gw, port=SERVLET_PORT + 1)
        code, body = http_get(network, "client", servlet.address, "/analyze")
        assert code == 200
        assert "Static analysis" in body

    def test_servlet_rejects_invalid_query_cleanly(self, rig):
        network, site, gw = rig
        network.add_host("client2", site=gw.site)
        servlet = GatewayServlet(gw, port=SERVLET_PORT + 2)
        url = site.url_for("snmp").replace(":", "%3A").replace("/", "%2F")
        code, body = http_get(
            network,
            "client2",
            servlet.address,
            f"/query?url={url}&sql=SELECT%20Bogus%20FROM%20Processor",
        )
        assert code == 500
        assert "QueryValidationError" in body
