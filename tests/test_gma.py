"""Unit tests for the GMA Global layer: directory, producer, consumer."""

import pytest

from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.core.security import AccessRule
from repro.gma.consumer import GatewayConsumer, RemoteQueryFailure
from repro.gma.directory import DirectoryClient, GMADirectory
from repro.gma.global_layer import GlobalLayer, RemoteQueryError
from repro.gma.records import ProducerRecord
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


@pytest.fixture
def fabric():
    clock = VirtualClock()
    network = Network(clock, seed=41)
    a = build_site(network, name="site-a", n_hosts=2, agents=("snmp",), seed=1)
    b = build_site(network, name="site-b", n_hosts=2, agents=("snmp", "ganglia"), seed=2)
    clock.advance(20.0)
    directory = GMADirectory(network)
    gla = GlobalLayer(a.gateway, directory)
    glb = GlobalLayer(b.gateway, directory)
    return network, directory, a, b, gla, glb


class TestDirectory:
    def test_producers_registered(self, fabric):
        _, directory, *_ = fabric
        assert {p.site for p in directory.producers()} == {"site-a", "site-b"}

    def test_lookup_site_via_client(self, fabric):
        network, directory, a, *_ = fabric
        client = DirectoryClient(network, a.gateway.host, directory.address)
        hits = client.lookup_site("site-b")
        assert len(hits) == 1 and hits[0].gateway_host == "site-b-gw"

    def test_unregister(self, fabric):
        _, directory, a, b, gla, glb = fabric
        gla.unregister()
        assert {p.site for p in directory.producers()} == {"site-b"}

    def test_reregister_overwrites(self, fabric):
        _, directory, a, _, gla, _ = fabric
        gla.register()
        assert len([p for p in directory.producers() if p.site == "site-a"]) == 1

    def test_malformed_request_answered(self, fabric):
        network, directory, a, *_ = fabric
        resp = network.request(a.gateway.host, directory.address, "garbage")
        assert resp[0] == "error"

    @pytest.mark.parametrize(
        "payload",
        [
            ("register_producer",),
            ("register_producer", {"bogus": 1}),
            ("register_producer", 5),
            ("lookup_site",),
            ("unregister_producer", [1]),
            ("register_producer", {"site": "s", "gateway_host": "h"}),
            ("lookup_site", "site-a", "site-b"),
            ("list_producers", "site-a"),
        ],
    )
    def test_malformed_shapes_get_a_typed_refusal(self, fabric, payload):
        """Wrong arity, a record that is not a mapping of ProducerRecord
        fields, a non-string key: an error *reply*, never an exception in
        the caller's stack, and the registry is untouched."""
        network, directory, a, *_ = fabric
        before = directory.producers()
        resp = network.request(a.gateway.host, directory.address, payload)
        assert resp == ("error", "malformed request")
        assert directory.producers() == before
        # The next honest request is served as if nothing happened.
        client = DirectoryClient(network, a.gateway.host, directory.address)
        assert [p.site for p in client.lookup_site("site-a")] == ["site-a"]

    def test_record_groups_published(self, fabric):
        _, directory, *_ = fabric
        record = directory.producers()[0]
        assert "Processor" in record.groups


class TestRemoteQueries:
    def test_query_remote_site(self, fabric):
        network, _, a, b, gla, _ = fabric
        result = gla.query_remote(
            "site-b", "SELECT HostName FROM Host", mode="realtime"
        )
        assert {r["HostName"] for r in result.dicts()} == set(b.host_names())

    def test_remote_urls_narrow_query(self, fabric):
        network, _, a, b, gla, _ = fabric
        url = b.url_for("snmp", host=b.host_names()[0])
        result = gla.query_remote("site-b", "SELECT HostName FROM Host", urls=[url], mode="realtime")
        assert len(result.rows) == 1

    def test_unknown_site_fails(self, fabric):
        _, _, _, _, gla, _ = fabric
        with pytest.raises(RemoteQueryError):
            gla.query_remote("site-z", "SELECT * FROM Host")

    def test_dead_remote_gateway_fails(self, fabric):
        network, _, a, b, gla, _ = fabric
        network.set_host_up(b.gateway.host, False)
        with pytest.raises(RemoteQueryError):
            gla.query_remote("site-b", "SELECT * FROM Host", mode="realtime")

    def test_remote_error_surfaces(self, fabric):
        _, _, _, _, gla, _ = fabric
        with pytest.raises(RemoteQueryError):
            gla.query_remote("site-b", "SELEKT broken")

    def test_gateway_to_gateway_cache(self, fabric):
        network, _, a, b, gla, _ = fabric
        sql = "SELECT HostName FROM Host"
        gla.query_remote("site-b", sql)
        network.stats.reset()
        result = gla.query_remote("site-b", sql)
        assert gla.stats["remote_cache_hits"] == 1
        assert network.stats.requests == 0  # served locally
        assert result.rows

    def test_cache_disabled(self, fabric):
        network, directory, a, b, _, _ = fabric
        gl = GlobalLayer(a.gateway, directory, producer_port=8311, cache_remote=False)
        sql = "SELECT HostName FROM Host"
        gl.query_remote("site-b", sql)
        gl.query_remote("site-b", sql)
        assert gl.stats["remote_cache_hits"] == 0

    def test_a_joined_flight_is_marked_coalesced_for_the_joiner_only(self, fabric):
        """Two identical remote queries in flight at once share one
        consumer round-trip.  The joiner's statuses say so; the flight
        owner's, which it shares, do not.  (The join used to be counted
        and traced but every status read ``coalesced=False``.)"""
        _, _, a, _, gla, _ = fabric
        ask = lambda: gla.query_remote("site-b", "SELECT HostName FROM Host", mode="realtime")
        first, second = (o.value for o in a.gateway.dispatcher.run([ask, ask]))
        assert gla.stats["remote_coalesced"] == 1
        assert first.statuses and not any(s.coalesced for s in first.statuses)
        assert second.statuses and all(s.coalesced for s in second.statuses)
        assert first.rows == second.rows

    def test_known_sites(self, fabric):
        _, _, _, _, gla, _ = fabric
        assert gla.known_sites() == ["site-a", "site-b"]


class TestProducerEndpoint:
    def test_groups_op(self, fabric):
        network, _, a, b, *_ = fabric
        from repro.gma.producer import PRODUCER_PORT
        from repro.simnet.network import Address

        resp = network.request(
            a.gateway.host, Address(b.gateway.host, PRODUCER_PORT), {"op": "groups"}
        )
        assert resp["ok"] and "Processor" in resp["groups"]

    def test_sources_op(self, fabric):
        network, _, a, b, *_ = fabric
        from repro.gma.producer import PRODUCER_PORT
        from repro.simnet.network import Address

        resp = network.request(
            a.gateway.host, Address(b.gateway.host, PRODUCER_PORT), {"op": "sources"}
        )
        assert resp["ok"] and len(resp["urls"]) == len(b.source_urls)

    def test_malformed_request(self, fabric):
        network, _, a, b, *_ = fabric
        from repro.gma.producer import PRODUCER_PORT
        from repro.simnet.network import Address

        resp = network.request(
            a.gateway.host, Address(b.gateway.host, PRODUCER_PORT), "junk"
        )
        assert not resp["ok"]

    def test_remote_security_enforced_by_owning_gateway(self):
        """Paper §2: security decisions defer to the owning gateway."""
        clock = VirtualClock()
        network = Network(clock, seed=5)
        a = build_site(network, name="open", n_hosts=1, agents=("snmp",))
        b = build_site(
            network,
            name="locked",
            n_hosts=1,
            agents=("snmp",),
            policy=GatewayPolicy(security_enabled=True),
        )
        clock.advance(10.0)
        # The locked gateway denies the "remote" role everything.
        b.gateway.fgsl.add_rule(AccessRule(allow=False, who="role:remote"))
        directory = GMADirectory(network)
        gla = GlobalLayer(a.gateway, directory)
        GlobalLayer(b.gateway, directory)
        with pytest.raises(RemoteQueryError) as err:
            gla.query_remote("locked", "SELECT * FROM Host", mode="realtime")
        assert "may not read" in str(err.value)

    @pytest.mark.parametrize("stop", ["crash", "shutdown"])
    def test_stopped_gateway_frees_its_ports_for_a_successor(self, fabric, stop):
        """``crash()`` / ``shutdown()`` promise a successor can be built on
        the same host: the producer (:8300) and the stream hub (:8500)
        used to stay bound, so the rebuild died with ``port already
        bound`` as soon as the gateway had joined the GMA or streamed."""
        from repro.core.gateway import Gateway

        network, directory, a, _, gla, _ = fabric
        b = build_site(network, name="site-c", n_hosts=1, agents=("snmp",))
        GlobalLayer(b.gateway, directory)
        getattr(b.gateway, stop)()
        with pytest.raises(RemoteQueryError):
            gla.query_remote("site-c", "SELECT * FROM Host", mode="realtime")
        successor = Gateway(network, b.gateway.host, site="site-c", disk=b.gateway.disk)
        for url in b.source_urls:
            successor.add_source(url)
        GlobalLayer(successor, directory)
        assert len([p for p in directory.producers() if p.site == "site-c"]) == 1
        network.clock.advance(60.0)  # past the gma://site-c breaker's backoff
        result = gla.query_remote("site-c", "SELECT * FROM Host", mode="realtime")
        assert len(result.rows) == 1
