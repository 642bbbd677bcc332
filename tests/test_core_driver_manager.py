"""Unit tests for the GridRMDriverManager: selection, caching, failover."""

import pytest

from repro.agents.ganglia import GangliaAgent
from repro.agents.snmp import SnmpAgent
from repro.core.driver_manager import (
    GridRmDriverManager,
    driver_spec,
    load_driver,
)
from repro.core.errors import DataSourceError, NoSuitableDriverError
from repro.core.policy import FailureAction, GatewayPolicy
from repro.dbapi.registry import DriverRegistry
from repro.dbapi.url import JdbcUrl
from repro.drivers.ganglia_driver import GangliaDriver
from repro.drivers.snmp_driver import SnmpDriver


@pytest.fixture
def agents(network, hosts):
    return {
        "snmp": [SnmpAgent(h, network) for h in hosts],
        "ganglia": GangliaAgent("cl", hosts, network),
    }


def make_manager(network, policy=None, drivers=None):
    registry = DriverRegistry()
    manager = GridRmDriverManager(registry, policy or GatewayPolicy())
    for d in drivers if drivers is not None else [
        SnmpDriver(network, gateway_host="gateway"),
        GangliaDriver(network, gateway_host="gateway"),
    ]:
        manager.register(d)
    return manager


class TestRegistration:
    def test_register_persists_spec(self, network):
        manager = make_manager(network)
        specs = set(manager.persistent_store)
        assert any("SnmpDriver" in s for s in specs)

    def test_unregister_clears_persistence_and_cache(self, network, agents):
        manager = make_manager(network)
        conn = manager.open_connection("jdbc:snmp://n0/x")
        conn.close()
        snmp = manager.driver_by_name("JDBC-SNMP")
        assert manager.unregister(snmp)
        assert not any("SnmpDriver" in s for s in manager.persistent_store)
        assert manager.cached_driver(JdbcUrl.parse("jdbc:snmp://n0/x")) is None

    def test_driver_spec_and_load_round_trip(self, network):
        driver = SnmpDriver(network, gateway_host="gateway")
        spec = driver_spec(driver)
        loaded = load_driver(spec, network, gateway_host="gateway")
        assert type(loaded) is SnmpDriver

    def test_load_driver_bad_spec(self, network):
        with pytest.raises(NoSuitableDriverError):
            load_driver("nope", network, gateway_host="g")
        with pytest.raises(NoSuitableDriverError):
            load_driver("os:path", network, gateway_host="g")
        with pytest.raises(NoSuitableDriverError):
            load_driver("repro.drivers:missing", network, gateway_host="g")

    def test_restore_persisted(self, network):
        manager = make_manager(network)
        store = manager.persistent_store
        # A "restarted" manager with the same persistent store.
        fresh = GridRmDriverManager(DriverRegistry(), GatewayPolicy(), persistent_store=store)
        restored = fresh.restore_persisted(network, gateway_host="gateway")
        assert {type(d).__name__ for d in restored} == {"SnmpDriver", "GangliaDriver"}
        assert restored.skipped == []

    def test_restore_persisted_skips_malformed_specs(self, network):
        """One rotten store entry must not abort gateway start-up."""
        manager = make_manager(network)
        store = dict(manager.persistent_store)
        store["no.such.module:Driver"] = "JDBC-Ghost"
        store["garbage"] = "JDBC-Garbage"
        fresh = GridRmDriverManager(
            DriverRegistry(), GatewayPolicy(), persistent_store=store
        )
        report = fresh.restore_persisted(network, gateway_host="gateway")
        assert {type(d).__name__ for d in report.restored} == {
            "SnmpDriver",
            "GangliaDriver",
        }
        assert sorted(spec for spec, _ in report.skipped) == [
            "garbage",
            "no.such.module:Driver",
        ]
        for _, error in report.skipped:
            assert "NoSuitableDriverError" in error

    def test_restore_persisted_skip_names(self, network):
        manager = make_manager(network)
        fresh = GridRmDriverManager(
            DriverRegistry(),
            GatewayPolicy(),
            persistent_store=dict(manager.persistent_store),
        )
        report = fresh.restore_persisted(
            network, gateway_host="gateway", skip_names=["JDBC-SNMP"]
        )
        assert {type(d).__name__ for d in report.restored} == {"GangliaDriver"}
        assert report.skipped == []

    def test_gateway_startup_survives_poisoned_store(self, network):
        from repro.core.gateway import Gateway

        store = {
            "no.such.module:Driver": "JDBC-Ghost",
            "os:path": "JDBC-NotADriver",
        }
        gw = Gateway(network, "gw-poisoned", persistent_store=store)
        assert sorted(spec for spec, _ in gw.restore_skipped) == [
            "no.such.module:Driver",
            "os:path",
        ]
        # The default driver set registered fine despite the bad specs.
        assert "JDBC-SNMP" in gw.driver_manager.driver_names()


class TestSelection:
    def test_pinned_protocol_selects_matching_driver(self, network, agents):
        manager = make_manager(network)
        conn = manager.open_connection("jdbc:snmp://n1/x")
        assert conn.driver.name() == "JDBC-SNMP"

    def test_wildcard_dynamic_selection(self, network, agents):
        manager = make_manager(network)
        conn = manager.open_connection("jdbc://n0/x")
        assert conn.driver.name() == "JDBC-SNMP"  # first registered that probes ok
        assert manager.stats["dynamic_scans"] >= 1

    def test_last_driver_cached(self, network, agents):
        manager = make_manager(network)
        manager.open_connection("jdbc://n0/x").close()
        scans = manager.stats["dynamic_scans"]
        manager.open_connection("jdbc://n0/x").close()
        assert manager.stats["dynamic_scans"] == scans
        assert manager.stats["cache_hits"] == 1

    def test_cache_disabled_by_policy(self, network, agents):
        manager = make_manager(network, GatewayPolicy(driver_cache_enabled=False))
        manager.open_connection("jdbc://n0/x").close()
        manager.open_connection("jdbc://n0/x").close()
        assert manager.stats["cache_hits"] == 0
        assert manager.stats["dynamic_scans"] == 2

    def test_static_preference_order(self, network, agents, hosts):
        manager = make_manager(network)
        gmond_host = hosts[0].spec.name
        url = f"jdbc://{gmond_host}/x"
        manager.set_preference(url, ["JDBC-Ganglia", "JDBC-SNMP"])
        conn = manager.open_connection(url)
        assert conn.driver.name() == "JDBC-Ganglia"

    def test_clear_preference(self, network, agents, hosts):
        manager = make_manager(network)
        url = f"jdbc://{hosts[0].spec.name}/x"
        manager.set_preference(url, ["JDBC-Ganglia"])
        assert manager.clear_preference(url)
        conn = manager.open_connection(url)
        assert conn.driver.name() == "JDBC-SNMP"

    def test_no_driver_for_url(self, network, agents):
        manager = make_manager(network)
        with pytest.raises(NoSuitableDriverError):
            manager.open_connection("jdbc:zzz://n0/x")


class TestFailurePolicies:
    def test_report_raises_on_first_failure(self, network, agents):
        manager = make_manager(
            network, GatewayPolicy(failure_action=FailureAction.REPORT)
        )
        network.set_host_up("n0", False)
        with pytest.raises(DataSourceError):
            manager.open_connection("jdbc:snmp://n0/x")
        assert manager.stats["connect_failures"] == 1

    def test_retry_uses_budget(self, network, agents):
        manager = make_manager(
            network,
            GatewayPolicy(failure_action=FailureAction.RETRY, failure_retries=2),
        )
        network.set_host_up("n0", False)
        with pytest.raises(DataSourceError):
            manager.open_connection("jdbc:snmp://n0/x")
        assert manager.stats["connect_failures"] == 3  # 1 + 2 retries

    def test_dynamic_rescans_after_cached_driver_dies(self, network, agents, hosts):
        """The paper's scenario: cached driver invalid -> dynamic reselect."""
        gmond_host = hosts[0].spec.name
        manager = make_manager(
            network, GatewayPolicy(failure_action=FailureAction.DYNAMIC)
        )
        url = f"jdbc://{gmond_host}/x"
        first = manager.open_connection(url)
        assert first.driver.name() == "JDBC-SNMP"
        first.close()
        # Kill the SNMP agent but keep Ganglia alive on the same host.
        network.close(agents["snmp"][0].address)
        conn = manager.open_connection(url)
        assert conn.driver.name() == "JDBC-Ganglia"
        assert manager.stats["failovers"] >= 1

    def test_try_next_walks_preferences(self, network, agents, hosts):
        gmond_host = hosts[0].spec.name
        manager = make_manager(
            network, GatewayPolicy(failure_action=FailureAction.TRY_NEXT)
        )
        url = f"jdbc://{gmond_host}/x"
        manager.set_preference(url, ["JDBC-SNMP", "JDBC-Ganglia"])
        network.close(agents["snmp"][0].address)
        conn = manager.open_connection(url)
        assert conn.driver.name() == "JDBC-Ganglia"

    def test_all_failed_raises_with_policy_name(self, network, agents):
        manager = make_manager(network)
        network.set_host_up("n2", False)
        with pytest.raises(DataSourceError) as err:
            manager.open_connection("jdbc:snmp://n2/x")
        assert "dynamic" in str(err.value)


class TestBreakerShortCircuit:
    """The breaker stage belongs to the request manager: the driver
    manager is never asked while a source's breaker is OPEN.  These
    tests drove ``open_connection`` with a tracker attached; they now
    drive ``Gateway.query`` and read the driver manager's counters."""

    @staticmethod
    def make_gateway(**policy_kwargs):
        from repro.testbed import build_testbed

        policy = GatewayPolicy(
            failure_action=FailureAction.RETRY,
            failure_retries=2,
            breaker_base_backoff=30.0,
            breaker_max_backoff=60.0,
            **policy_kwargs,
        )
        network, (site,) = build_testbed(
            n_hosts=1, agents=("snmp",), seed=3, policy=policy
        )
        return network, site, site.source_urls[0]

    @staticmethod
    def realtime(network, site, url):
        from repro.core.request_manager import QueryMode

        network.clock.advance(1.0)
        (status,) = site.gateway.query(
            url, "SELECT * FROM Processor", mode=QueryMode.REALTIME
        ).statuses
        return status

    def test_open_breaker_skips_retry_budget(self):
        """An OPEN breaker short-circuits before RETRY spends a single
        connect attempt — the whole point of remembering failures.  It
        trips after ``FAILURE_THRESHOLD`` failed queries, each one failed
        open (1 + 2 retries) counted once."""
        from repro.core.health import FAILURE_THRESHOLD, BreakerState
        from repro.core.request_manager import Cause

        network, site, url = self.make_gateway()
        manager = site.gateway.driver_manager
        site.fail_host(site.host_names()[0])
        for _ in range(FAILURE_THRESHOLD):
            assert self.realtime(network, site, url).cause is Cause.ERROR
        health = site.gateway.health
        assert health.state(url) is BreakerState.OPEN
        assert health.health(url).total_failures == FAILURE_THRESHOLD
        failures = manager.stats["connect_failures"]
        assert failures == 3 * FAILURE_THRESHOLD  # each open: 1 + 2 retries

        selections = manager.stats["selections"]
        assert self.realtime(network, site, url).cause is Cause.BREAKER
        assert manager.stats["connect_failures"] == failures  # no budget spent
        assert manager.stats["selections"] == selections
        assert site.gateway.request_manager.stats["breaker_short_circuits"] == 1

    def test_half_open_probe_success_restores_cached_driver_path(self):
        """Trips after ``FAILURE_THRESHOLD`` failed queries; unpooled, so
        every query opens a connection through the driver manager."""
        from repro.core.health import FAILURE_THRESHOLD, BreakerState
        from repro.core.request_manager import Cause

        network, site, url = self.make_gateway(pool_enabled=False)
        manager, health = site.gateway.driver_manager, site.gateway.health
        self.realtime(network, site, url)  # populate the driver cache
        site.fail_host(site.host_names()[0])
        for _ in range(FAILURE_THRESHOLD):
            self.realtime(network, site, url)
        assert health.state(url) is BreakerState.OPEN

        site.heal_host(site.host_names()[0])
        network.clock.advance(60.0)  # past the max (jitter-capped) backoff
        assert self.realtime(network, site, url).cause is Cause.FRESH  # the probe
        assert health.state(url) is BreakerState.CLOSED
        assert manager.cached_driver(JdbcUrl.parse(url)) is manager.driver_by_name(
            "JDBC-SNMP"
        )
        # Subsequent opens ride the last-driver cache again, no rescans.
        scans, hits = manager.stats["dynamic_scans"], manager.stats["cache_hits"]
        network.clock.advance(20.0)  # past the response caches
        assert self.realtime(network, site, url).cause is Cause.FRESH
        assert manager.stats["dynamic_scans"] == scans
        assert manager.stats["cache_hits"] == hits + 1
