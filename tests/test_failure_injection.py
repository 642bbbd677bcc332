"""Failure-injection integration tests: loss, partitions, churn.

Each scenario drives the full stack through a fault and asserts both the
degraded behaviour and the recovery — a monitoring system's job is
precisely to keep working while the things it watches are failing.
"""

import pytest

from repro.core.policy import FailureAction, GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer, RemoteQueryError
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


def make(name, *, policy=None, seed=1, n_hosts=3, agents=("snmp",), net_seed=90, **kw):
    clock = VirtualClock()
    network = Network(clock, seed=net_seed)
    site = build_site(
        network, name=name, n_hosts=n_hosts, agents=agents, seed=seed,
        policy=policy, **kw
    )
    clock.advance(10.0)
    return network, site


class TestLossyNetwork:
    def test_sustained_loss_degrades_but_never_crashes(self):
        network, site = make(
            "lossy",
            policy=GatewayPolicy(
                failure_action=FailureAction.RETRY,
                failure_retries=3,
                pool_enabled=False,
            ),
        )
        for host in site.host_names():
            network.set_extra_loss(host, 0.4)
        ok = failed = 0
        for i in range(30):
            result = site.gateway.query(
                site.source_urls[i % len(site.source_urls)],
                "SELECT HostName FROM Host",
            )
            ok += result.ok_sources
            failed += result.failed_sources
        # Some get through, some do not; no exceptions escaped.
        assert ok > 0 and failed > 0

    def test_loss_removed_restores_full_success(self):
        network, site = make("healing")
        host = site.host_names()[0]
        network.set_extra_loss(host, 0.95)
        url = site.url_for("snmp", host=host)
        # Will almost surely fail...
        degraded = site.gateway.query(url, "SELECT HostName FROM Host")
        network.set_extra_loss(host, 0.0)
        restored = site.gateway.query(url, "SELECT HostName FROM Host")
        assert restored.ok_sources == 1
        # ...and the tree view reflects the recovery.
        source = site.gateway.source(url)
        assert source.last_ok is True


class TestPartitions:
    def test_remote_queries_fail_then_recover_after_heal(self):
        clock = VirtualClock()
        network = Network(clock, seed=91)
        a = build_site(network, name="pa", n_hosts=2, agents=("snmp",), seed=1)
        b = build_site(network, name="pb", n_hosts=2, agents=("snmp",), seed=2)
        clock.advance(10.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(a.gateway, directory, cache_remote=False)
        GlobalLayer(b.gateway, directory)

        network.partition(
            set(network.hosts(site="pa")) | {"gma-directory"},
            set(network.hosts(site="pb")),
        )
        with pytest.raises(RemoteQueryError):
            gla.query_remote("pb", "SELECT * FROM Host", mode="realtime")
        network.heal()
        result = gla.query_remote("pb", "SELECT * FROM Host", mode="realtime")
        assert result.rows

    def test_partition_drops_event_subscription_traffic_silently(self):
        from repro.gma.subscription import EventPublisher, EventSubscriber

        network, site = make("pubpart", snmp_trap_threshold=0.0, net_seed=92)
        publisher = EventPublisher(site.gateway)
        network.add_host("watcher", site="elsewhere")
        subscriber = EventSubscriber(network, "watcher")
        got = []
        subscriber.on_event(got.append)
        subscriber.subscribe(publisher.address, lease=1e9)

        network.clock.advance(60.0)
        before = len(got)
        assert before > 0
        network.partition(set(network.hosts(site="pubpart")), {"watcher"})
        network.clock.advance(60.0)
        assert len(got) == before  # pushes were dropped, nothing crashed
        network.heal()
        network.clock.advance(60.0)
        assert len(got) > before


class TestAgentChurn:
    def test_agent_restart_cycle(self):
        """Kill and revive an agent repeatedly; the gateway tracks it."""
        network, site = make("churn")
        gw = site.gateway
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        for cycle in range(3):
            network.set_host_up(host, False)
            r = gw.query(url, "SELECT HostName FROM Host")
            assert r.failed_sources == 1, cycle
            network.set_host_up(host, True)
            r = gw.query(url, "SELECT HostName FROM Host")
            assert r.ok_sources == 1, cycle

    def test_pool_recovers_from_dead_connections(self):
        """Pooled connections to a bounced agent are evicted, not used."""
        network, site = make("bounce")
        gw = site.gateway
        gw.connection_manager.idle_ttl = 5.0
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        gw.query(url, "SELECT HostName FROM Host")  # pool a connection
        # Agent's host bounces while the connection idles past the TTL.
        network.set_host_up(host, False)
        network.clock.advance(10.0)
        network.set_host_up(host, True)
        result = gw.query(url, "SELECT HostName FROM Host")
        assert result.ok_sources == 1

    def test_gateway_restart_preserves_driver_set_not_history(self):
        """Restart semantics: driver registrations persist (paper §3.2.2),
        in-memory history does not — a fresh gateway starts clean."""
        from repro.core.gateway import Gateway

        network, site = make("restart")
        gw = site.gateway
        gw.query(site.url_for("snmp"), "SELECT * FROM Processor")
        assert gw.history.row_count() > 0
        reborn = Gateway(
            network,
            "restart-gw2",
            site="restart",
            register_default_drivers=False,
            install_event_drivers=False,
            persistent_store=dict(gw.driver_manager.persistent_store),
        )
        assert set(reborn.driver_manager.driver_names()) == set(
            gw.driver_manager.driver_names()
        )
        assert reborn.history.row_count() == 0
