"""Unit tests for the threshold AlertMonitor (paper Figure 3)."""

import pytest

from repro.core.alerts import AlertRule
from repro.core.events import Event
from repro.testbed import build_site
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=61)
    site = build_site(network, name="al", n_hosts=3, agents=("snmp",), seed=61)
    clock.advance(10.0)
    return network, site, site.gateway


def alerts_into(got):
    """A gateway-event listener keeping only the alerts."""
    return lambda event: got.append(event) if event.name.startswith("alert.") else None


def always_rule(urls, **kw):
    defaults = dict(
        name="load-any",
        urls=urls,
        sql="SELECT HostName, LoadAverage1Min FROM Processor WHERE LoadAverage1Min >= 0",
        period=10.0,
        rearm_after=0.0,
        use_cache=False,
    )
    defaults.update(kw)
    return AlertRule(**defaults)


def never_rule(urls, **kw):
    return always_rule(
        urls,
        name=kw.pop("name", "load-never"),
        sql="SELECT HostName FROM Processor WHERE LoadAverage1Min > 1e9",
        **kw,
    )


class TestRuleValidation:
    def test_bad_sql_rejected_at_definition(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", urls=["jdbc:snmp://h/x"], sql="SELEKT nope")

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", urls=["u"], sql="SELECT a FROM b", period=0)

    def test_empty_urls_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", urls=[], sql="SELECT a FROM b")

    def test_negative_rearm_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", urls=["u"], sql="SELECT a FROM b", rearm_after=-1)


class TestFiring:
    def test_violation_emits_event(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(alerts_into(got))
        gw.alerts.add_rule(always_rule([site.url_for("snmp")]))
        network.clock.advance(10.5)
        assert len(got) == 1
        event = got[0]
        assert event.name == "alert.load-any"
        assert event.native_kind == "gateway-alert"
        assert event.source_host == site.host_names()[0]
        assert "LoadAverage1Min" in event.fields

    def test_no_violation_no_event(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(alerts_into(got))
        gw.alerts.add_rule(never_rule([site.url_for("snmp")]))
        network.clock.advance(50.0)
        assert got == []
        assert gw.alerts.stats["polls"] >= 4

    def test_rule_fires_per_host(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(alerts_into(got))
        gw.alerts.add_rule(always_rule(site.source_urls))
        network.clock.advance(10.5)
        assert {e.source_host for e in got} == set(site.host_names())

    def test_alert_recorded_to_history(self, rig):
        network, site, gw = rig
        gw.alerts.add_rule(always_rule([site.url_for("snmp")]))
        network.clock.advance(10.5)
        result = gw.history.query(
            "SELECT EventName FROM LogEvent WHERE EventName = 'alert.load-any'"
        )
        assert len(result.rows) == 1

    def test_severity_configurable(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(got.append)
        gw.alerts.add_rule(
            always_rule([site.url_for("snmp")], severity="error")
        )
        network.clock.advance(10.5)
        assert got[0].severity == "error"


class TestHysteresis:
    def test_sustained_condition_fires_once(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(alerts_into(got))
        gw.alerts.add_rule(
            always_rule([site.url_for("snmp")], rearm_after=1e9)
        )
        network.clock.advance(100.0)  # ten polls, condition always true
        assert len(got) == 1
        assert gw.alerts.stats["suppressed"] >= 8

    def test_zero_rearm_fires_every_poll(self, rig):
        network, site, gw = rig
        got = []
        gw.events.register_listener(alerts_into(got))
        gw.alerts.add_rule(always_rule([site.url_for("snmp")], rearm_after=0.0))
        network.clock.advance(50.0)
        assert len(got) == 5

    def test_firing_state_visible(self, rig):
        network, site, gw = rig
        gw.alerts.add_rule(always_rule([site.url_for("snmp")], rearm_after=1e9))
        network.clock.advance(10.5)
        assert gw.alerts.firing() == [("load-any", site.host_names()[0])]


class TestManagement:
    def test_duplicate_rule_rejected(self, rig):
        network, site, gw = rig
        gw.alerts.add_rule(never_rule([site.url_for("snmp")]))
        with pytest.raises(ValueError):
            gw.alerts.add_rule(never_rule([site.url_for("snmp")]))

    def test_remove_rule_stops_polling(self, rig):
        network, site, gw = rig
        gw.alerts.add_rule(never_rule([site.url_for("snmp")]))
        network.clock.advance(20.0)
        polls = gw.alerts.stats["polls"]
        assert gw.alerts.remove_rule("load-never")
        assert not gw.alerts.remove_rule("load-never")
        network.clock.advance(50.0)
        assert gw.alerts.stats["polls"] == polls

    def test_rules_listing(self, rig):
        network, site, gw = rig
        gw.alerts.add_rule(never_rule([site.url_for("snmp")], name="b"))
        gw.alerts.add_rule(never_rule([site.url_for("snmp")], name="a"))
        assert [r.name for r in gw.alerts.rules()] == ["a", "b"]

    def test_cached_polls_limit_intrusion(self, rig):
        network, site, gw = rig
        agent = site.agents["snmp"][0]
        # Two rules against the same source sharing the cache.
        gw.alerts.add_rule(
            always_rule([site.url_for("snmp")], name="r1", use_cache=True)
        )
        gw.alerts.add_rule(
            always_rule([site.url_for("snmp")], name="r2", use_cache=True)
        )
        before = agent.requests_served
        network.clock.advance(10.5)
        # Both rules polled, but the second was served from the cache.
        assert agent.requests_served - before <= 2  # probe + fetch at most
