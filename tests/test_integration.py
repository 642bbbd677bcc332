"""End-to-end integration tests across the whole stack."""

import pytest

from repro.core.request_manager import Cause, QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.glue.schema import STANDARD_SCHEMA
from repro.glue.validation import validate_row
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.parser import parse_select
from repro.sql.plan import compile_plan
from repro.testbed import AGENT_KINDS, build_site, build_testbed
from repro.web.console import Console


def _statement_results(kind, hand_plan):
    """Every group one agent kind serves, fetched through a bare
    statement on a fresh identically-seeded site (same virtual instant
    for both variants)."""
    clock = VirtualClock()
    network = Network(clock, seed=9)
    site = build_site(network, name="site-f", n_hosts=3, agents=(kind,), seed=9)
    clock.advance(60)
    out = []
    with site.gateway.connection_manager.connection(site.url_for(kind)) as conn:
        for group in conn.get_metadata().get_tables():
            sql = f"SELECT * FROM {group}"
            statement = conn.create_statement()
            if hand_plan:
                rs = statement.execute_query(sql, plan=compile_plan(parse_select(sql)))
            else:
                rs = statement.execute_query(sql)
            meta = rs.metadata()
            types = [meta.column_type(i + 1) for i in range(meta.column_count())]
            out.append((group, rs.columns, types, rs.take_rows()))
    return out


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_statement_compiles_the_plan_it_is_not_handed(kind):
    """One SELECT engine: raw SQL and a handed-down plan take the same
    path, so columns, rows and declared types are identical."""
    bare = _statement_results(kind, hand_plan=False)
    handed = _statement_results(kind, hand_plan=True)
    assert bare and any(rows for *_, rows in bare)
    assert bare == handed


class TestHeterogeneousNormalisation:
    """The paper's core claim: heterogeneous agents, homogeneous view."""

    def test_same_query_works_on_every_processor_source(self, full_site):
        gw = full_site.gateway
        sql = "SELECT HostName, LoadAverage1Min, CPUCount FROM Processor"
        servers = ("snmp", "ganglia", "scms", "sql")
        for kind in servers:
            r = gw.query(full_site.url_for(kind), sql)
            assert r.ok_sources == 1, (kind, r.statuses)
            for row in r.dicts():
                assert isinstance(row["HostName"], str), kind
                assert isinstance(row["LoadAverage1Min"], float), kind

    def test_values_agree_across_agents(self, full_site):
        """SNMP, Ganglia and SCMS observe the SAME host model, so their
        normalised values must (nearly) agree — the homogeneous view is
        real, not cosmetic."""
        gw = full_site.gateway
        host = full_site.host_names()[0]
        sql = f"SELECT CPUCount, LoadAverage1Min FROM Processor WHERE HostName = '{host}'"
        values = {}
        for kind in ("snmp", "ganglia", "scms"):
            r = gw.query(full_site.url_for(kind), sql, mode=QueryMode.REALTIME)
            values[kind] = r.dicts()[0]
        counts = {v["CPUCount"] for v in values.values()}
        assert len(counts) == 1
        loads = [v["LoadAverage1Min"] for v in values.values()]
        assert max(loads) - min(loads) < 0.05  # rounding differences only

    def test_all_star_rows_validate_against_schema(self, full_site):
        gw = full_site.gateway
        for kind, group in [
            ("snmp", "Processor"),
            ("ganglia", "MainMemory"),
            ("scms", "OperatingSystem"),
            ("nws", "NetworkForecast"),
            ("netlogger", "LogEvent"),
            ("sql", "Job"),
        ]:
            r = gw.query(full_site.url_for(kind), f"SELECT * FROM {group}")
            assert r.ok_sources == 1, (kind, group, r.statuses)
            g = STANDARD_SCHEMA.group(group)
            for row in r.dicts():
                issues = validate_row(g, row)
                assert not issues, (kind, group, issues)


class TestPaperWorkflow:
    """The end-to-end story of paper §4: discover, poll, browse, plot."""

    def test_full_lifecycle(self):
        clock = VirtualClock()
        network = Network(clock, seed=77)
        site = build_site(network, name="life", n_hosts=4, agents=("snmp", "ganglia"), seed=7)
        clock.advance(30.0)
        gw = site.gateway
        console = Console(gw)

        # 1. The tree view starts unpolled.
        assert "never polled" in console.tree_view()
        # 2. A user polls the whole site.
        console.poll_all("SELECT * FROM Processor")
        # 3. Another user's refresh sees cached data without agent traffic.
        network.stats.reset()
        tree = console.refresh()
        assert network.stats.requests == 0
        assert "cached: Processor" in tree
        # 4. History accumulates across polls for plotting.
        for _ in range(10):
            clock.advance(15.0)
            console.poll(site.url_for("ganglia"), "SELECT * FROM Processor")
        plot = console.plot("Processor", "LoadAverage1Min", host=site.host_names()[0])
        assert "*" in plot

    def test_trap_appears_as_alert_in_tree(self):
        clock = VirtualClock()
        network = Network(clock, seed=78)
        site = build_site(
            network,
            name="alerts",
            n_hosts=2,
            agents=("snmp",),
            seed=8,
            snmp_trap_threshold=0.0,  # every check fires
        )
        clock.advance(60.0)  # traps flow to the gateway's event manager
        gw = site.gateway
        assert gw.events.stats["translated"] > 0
        from repro.web.console import ICON_EVENT

        assert ICON_EVENT in Console(gw).tree_view()
        # And the events were recorded into history as LogEvents.
        r = gw.query(
            site.source_urls[0], "SELECT COUNT(*) FROM LogEvent", mode=QueryMode.HISTORY
        )


class TestMultiSite:
    def test_two_sites_full_remote_flow(self):
        network, sites = build_testbed(n_sites=3, n_hosts=2, agents=("snmp",), seed=5)
        network.clock.advance(20.0)
        directory = GMADirectory(network)
        layers = [GlobalLayer(s.gateway, directory) for s in sites]
        # Every gateway can see every site.
        for layer in layers:
            assert layer.known_sites() == [s.name for s in sites]
        # a queries c through the global layer.
        result = layers[0].query_remote(
            sites[2].name, "SELECT HostName FROM Host", mode="realtime"
        )
        assert {r["HostName"] for r in result.dicts()} == set(sites[2].host_names())

    def test_remote_cache_suppresses_repeat_wan_traffic(self):
        network, sites = build_testbed(n_sites=2, n_hosts=2, agents=("snmp",), seed=6)
        network.clock.advance(20.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(sites[0].gateway, directory)
        GlobalLayer(sites[1].gateway, directory)
        sql = "SELECT HostName FROM Host"
        t0 = network.clock.now()
        gla.query_remote(sites[1].name, sql)
        cold = network.clock.now() - t0
        t1 = network.clock.now()
        gla.query_remote(sites[1].name, sql)
        warm = network.clock.now() - t1
        assert warm == 0.0 and cold > 0.0

    def test_partition_isolates_site_but_local_queries_work(self):
        """Local queries still answer; the partitioned remote site answers
        an ``error`` status, since a site that cannot answer is a failed
        source, not a raise."""
        network, sites = build_testbed(n_sites=2, n_hosts=2, agents=("snmp",), seed=7)
        network.clock.advance(20.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(sites[0].gateway, directory)
        GlobalLayer(sites[1].gateway, directory)
        site_a_hosts = set(network.hosts(site=sites[0].name)) | {"gma-directory"}
        network.partition(site_a_hosts, set(network.hosts(site=sites[1].name)))
        # Local still fine.
        r = sites[0].gateway.query(sites[0].url_for("snmp"), "SELECT * FROM Host")
        assert r.ok_sources == 1
        # Remote realtime fails (cache may still answer, so disable it).
        gla.cache_remote = False
        failed = gla.query_remote(sites[1].name, "SELECT * FROM Host", mode="realtime")
        assert [s.cause for s in failed.statuses] == [Cause.ERROR] and not failed.rows


class TestFailoverEndToEnd:
    def test_source_failure_and_recovery_visible_to_client(self):
        clock = VirtualClock()
        network = Network(clock, seed=91)
        site = build_site(network, name="flaky", n_hosts=2, agents=("snmp",), seed=9)
        clock.advance(10.0)
        gw = site.gateway
        url = site.url_for("snmp")
        host = site.host_names()[0]

        assert gw.query(url, "SELECT * FROM Host").ok_sources == 1
        network.set_host_up(host, False)
        r = gw.query(url, "SELECT * FROM Host")
        assert r.failed_sources == 1
        network.set_host_up(host, True)
        assert gw.query(url, "SELECT * FROM Host").ok_sources == 1

    def test_cached_answers_survive_agent_outage(self):
        clock = VirtualClock()
        network = Network(clock, seed=92)
        site = build_site(network, name="cacheout", n_hosts=1, agents=("snmp",), seed=2)
        clock.advance(10.0)
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        network.set_host_up(site.host_names()[0], False)
        r = gw.query(url, "SELECT * FROM Host", mode=QueryMode.CACHED_OK)
        assert r.ok_sources == 1 and r.statuses[0].from_cache
