"""Tests for transparent Global-layer routing (paper §1.1).

"Clients are free to connect to any Gateway; requests for remote
resource data are routed through to the Global layer for processing by
the gateway that owns the required data."
"""

import pytest

from repro.core.health import FAILURE_THRESHOLD
from repro.core.request_manager import Cause, QueryMode
from repro.core.security import AccessRule, Principal
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


@pytest.fixture
def fabric():
    clock = VirtualClock()
    network = Network(clock, seed=111)
    a = build_site(network, name="ra", n_hosts=2, agents=("snmp",), seed=1)
    b = build_site(network, name="rb", n_hosts=2, agents=("snmp", "ganglia"), seed=2)
    clock.advance(20.0)
    directory = GMADirectory(network)
    gla = GlobalLayer(a.gateway, directory)
    glb = GlobalLayer(b.gateway, directory)
    return network, a, b, gla, glb


class TestRouting:
    def test_remote_url_routed_via_global_layer(self, fabric):
        network, a, b, gla, _ = fabric
        url = b.url_for("snmp", host=b.host_names()[0])
        result = a.gateway.query(url, "SELECT HostName, SiteName FROM Host")
        assert result.dicts() == [
            {"HostName": b.host_names()[0], "SiteName": "rb"}
        ]
        assert gla.stats["remote_queries"] == 1

    def test_mixed_local_and_remote_consolidated(self, fabric):
        network, a, b, gla, _ = fabric
        urls = [a.url_for("snmp"), b.url_for("snmp")]
        result = a.gateway.query(urls, "SELECT HostName, SiteName FROM Host")
        sites = {r["SiteName"] for r in result.dicts()}
        assert sites == {"ra", "rb"}
        assert result.ok_sources == 2

    def test_remote_statuses_carry_urls(self, fabric):
        network, a, b, gla, _ = fabric
        url = b.url_for("snmp")
        result = a.gateway.query(url, "SELECT HostName FROM Host")
        assert result.statuses[0].url == url
        assert result.statuses[0].ok

    def test_without_global_layer_direct_wan_polling(self):
        """No global layer: remote agents are polled directly (slower,
        bypassing the owning gateway) — the pre-GMA behaviour."""
        clock = VirtualClock()
        network = Network(clock, seed=112)
        a = build_site(network, name="da", n_hosts=1, agents=("snmp",), seed=1)
        b = build_site(network, name="db", n_hosts=1, agents=("snmp",), seed=2)
        clock.advance(10.0)
        result = a.gateway.query(b.url_for("snmp"), "SELECT HostName FROM Host")
        assert result.ok_sources == 1  # direct WAN poll still works

    def test_remote_gateway_down_reported_per_url(self, fabric):
        network, a, b, gla, _ = fabric
        network.set_host_up(b.gateway.host, False)
        urls = [a.url_for("snmp"), b.url_for("snmp")]
        result = a.gateway.query(urls, "SELECT HostName FROM Host")
        assert result.ok_sources == 1
        failed = [s for s in result.statuses if not s.ok]
        assert len(failed) == 1 and "rb" in failed[0].url or failed[0].url.startswith("jdbc")

    def test_unknown_host_fails_locally(self, fabric):
        network, a, b, gla, _ = fabric
        result = a.gateway.query(
            "jdbc:snmp://no-such-host/x", "SELECT HostName FROM Host"
        )
        assert result.failed_sources == 1

    def test_remote_routing_uses_owning_gateways_cache(self, fabric):
        network, a, b, gla, _ = fabric
        url = b.url_for("snmp")
        # Prime the remote gateway's cache via a local client at b.
        b.gateway.query(url, "SELECT HostName FROM Host")
        agent = b.agents["snmp"][0]
        polls = agent.requests_served
        result = a.gateway.query(
            url, "SELECT HostName FROM Host", mode=QueryMode.CACHED_OK
        )
        assert result.ok_sources == 1
        assert agent.requests_served == polls  # served from b's cache

    def test_remote_fgsl_applied_by_owner(self, fabric):
        network, a, b, gla, _ = fabric
        b.gateway.fgsl.enabled = True
        b.gateway.fgsl.add_rule(AccessRule(allow=False, who="role:remote"))
        result = a.gateway.query(b.url_for("snmp"), "SELECT HostName FROM Host")
        assert result.failed_sources == 1
        assert "may not read" in result.statuses[0].error

    def test_local_queries_unaffected_by_fabric(self, fabric):
        network, a, b, gla, _ = fabric
        before = gla.stats["remote_queries"]
        result = a.gateway.query(a.url_for("snmp"), "SELECT HostName FROM Host")
        assert result.ok_sources == 1
        assert gla.stats["remote_queries"] == before


class TestRemoteStatuses:
    """A remote answer carries one status per requested URL, in request
    order, however it was served: fresh over the wire, from this
    gateway's cache of remote answers, or stale behind the remote
    gateway's open breaker."""

    SQL = "SELECT HostName FROM Host"

    @pytest.mark.parametrize("served", ["fresh", "cached", "stale"])
    def test_one_status_per_requested_url(self, fabric, served):
        """The stale answer is the breaker stage's, counted once per URL in
        ``requests.stale_served`` as a local source's is."""
        network, a, b, gla, _ = fabric
        urls = [b.url_for("snmp", host=h) for h in b.host_names()]
        fresh = a.gateway.query(urls, self.SQL, mode=QueryMode.CACHED_OK)
        result = fresh
        if served == "cached":
            result = a.gateway.query(urls, self.SQL, mode=QueryMode.CACHED_OK)
            assert gla.stats["remote_cache_hits"] == 1
        elif served == "stale":
            network.clock.advance(a.gateway.policy.query_cache_ttl + 1)
            network.set_host_up(b.gateway.host, False)
            for _ in range(FAILURE_THRESHOLD):
                a.gateway.query(urls, self.SQL, mode=QueryMode.CACHED_OK)
            stale_served = a.gateway.request_manager.stats["stale_served"]
            result = a.gateway.query(urls, self.SQL, mode=QueryMode.CACHED_OK)
            assert a.gateway.request_manager.stats["stale_served"] - stale_served == len(urls)
        assert [s.url for s in result.statuses] == urls
        assert result.ok_sources == len(urls)
        assert result.rows == fresh.rows
        expected = {"fresh": Cause.FRESH, "cached": Cause.CACHE, "stale": Cause.STALE}
        assert {s.cause for s in result.statuses} == {expected[served]}

    def test_whole_site_answer_from_the_cache_names_the_site(self, fabric):
        network, a, b, gla, _ = fabric
        gla.query_remote("rb", self.SQL)
        cached = gla.query_remote("rb", self.SQL)
        assert [(s.url, s.cause) for s in cached.statuses] == [("gma://rb", Cause.CACHE)]
