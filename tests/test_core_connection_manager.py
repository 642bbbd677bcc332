"""Unit tests for the ConnectionManager pool (paper §3.1.2)."""

import pytest

from repro.agents.snmp import SnmpAgent
from repro.core.connection_manager import IDLE_TTL, ConnectionManager
from repro.core.driver_manager import GridRmDriverManager
from repro.core.health import FAILURE_THRESHOLD
from repro.core.policy import GatewayPolicy
from repro.dbapi.registry import DriverRegistry
from repro.drivers.snmp_driver import SnmpDriver


@pytest.fixture
def agents(network, hosts):
    return [SnmpAgent(h, network) for h in hosts]


def make_cm(network, policy=None):
    policy = policy or GatewayPolicy()
    registry = DriverRegistry()
    dm = GridRmDriverManager(registry, policy)
    dm.register(SnmpDriver(network, gateway_host="gateway"))
    return ConnectionManager(dm, network.clock, policy)


URL = "jdbc:snmp://n0/x"


class TestPooling:
    def test_release_then_acquire_reuses(self, network, agents):
        cm = make_cm(network)
        conn = cm.acquire(URL)
        cm.release(conn)
        again = cm.acquire(URL)
        assert again is conn
        assert cm.stats["reused"] == 1 and cm.stats["created"] == 1

    def test_pooling_avoids_connect_cost(self, network, agents):
        cm = make_cm(network)
        cm.release(cm.acquire(URL))
        t0 = network.clock.now()
        cm.release(cm.acquire(URL))
        assert network.clock.now() == t0  # no network traffic at all

    def test_unpooled_always_creates(self, network, agents):
        cm = make_cm(network, GatewayPolicy(pool_enabled=False))
        c1 = cm.acquire(URL)
        cm.release(c1)
        assert c1.is_closed()
        c2 = cm.acquire(URL)
        assert c2 is not c1
        assert cm.stats["created"] == 2

    def test_pool_capacity_closes_extras(self, network, agents):
        cm = make_cm(network, GatewayPolicy(pool_max_per_source=1))
        c1, c2 = cm.acquire(URL), cm.acquire(URL)
        cm.release(c1)
        cm.release(c2)
        assert cm.idle_count(URL) == 1
        assert c2.is_closed()
        assert cm.stats["evicted_capacity"] == 1

    def test_pools_keyed_per_source(self, network, agents):
        cm = make_cm(network)
        a = cm.acquire("jdbc:snmp://n0/x")
        b = cm.acquire("jdbc:snmp://n1/x")
        cm.release(a)
        cm.release(b)
        assert cm.idle_count("jdbc:snmp://n0/x") == 1
        assert cm.idle_count("jdbc:snmp://n1/x") == 1
        assert cm.idle_count() == 2

    def test_released_closed_connection_not_pooled(self, network, agents):
        cm = make_cm(network)
        conn = cm.acquire(URL)
        conn.close()
        cm.release(conn)
        assert cm.idle_count(URL) == 0

    def test_close_all(self, network, agents):
        cm = make_cm(network)
        conns = [cm.acquire(URL) for _ in range(3)]
        for c in conns:
            cm.release(c)
        assert cm.close_all() == 3
        assert cm.idle_count() == 0

    def test_close_all_counts_only_open_entries(self, network, agents):
        """An entry something else already closed under us is drained
        but not reported as closed by the shutdown sweep."""
        cm = make_cm(network)
        conns = [cm.acquire(URL) for _ in range(3)]
        for c in conns:
            cm.release(c)
        conns[0].close()
        assert cm.close_all() == 2
        assert cm.idle_count() == 0
        assert all(c.is_closed() for c in conns)


class TestPoolIsolation:
    def test_pools_isolated_per_protocol_on_same_endpoint(self, network, hosts):
        """Regression: two agents on the same host with default ports and
        identical paths must NOT share pooled connections — a Ganglia
        session handed to a jdbc:scms:// query would answer with the
        wrong driver entirely."""
        from repro.agents.ganglia import GangliaAgent
        from repro.agents.scms import ScmsAgent
        from repro.drivers.ganglia_driver import GangliaDriver
        from repro.drivers.scms_driver import ScmsDriver

        GangliaAgent("cl", hosts, network)
        ScmsAgent("cl", hosts, network)
        policy = GatewayPolicy()
        dm = GridRmDriverManager(DriverRegistry(), policy)
        dm.register(GangliaDriver(network, gateway_host="gateway"))
        dm.register(ScmsDriver(network, gateway_host="gateway"))
        cm = ConnectionManager(dm, network.clock, policy)

        host = hosts[0].spec.name
        g_url = f"jdbc:ganglia://{host}/cluster"
        s_url = f"jdbc:scms://{host}/cluster"
        g_conn = cm.acquire(g_url)
        cm.release(g_conn)
        s_conn = cm.acquire(s_url)
        assert s_conn is not g_conn
        assert s_conn.driver.name() == "JDBC-SCMS"
        assert g_conn.driver.name() == "JDBC-Ganglia"


class TestRevalidation:
    def test_fresh_idle_reused_without_probe(self, network, agents):
        cm = make_cm(network)
        driver = cm.driver_manager.driver_by_name("JDBC-SNMP")
        cm.release(cm.acquire(URL))
        probes = driver.stats["probes"]
        cm.acquire(URL)
        assert driver.stats["probes"] == probes

    def test_stale_idle_revalidated(self, network, agents):
        cm = make_cm(network)
        driver = cm.driver_manager.driver_by_name("JDBC-SNMP")
        cm.release(cm.acquire(URL))
        network.clock.advance(IDLE_TTL + 1.0)
        probes = driver.stats["probes"]
        conn = cm.acquire(URL)
        assert driver.stats["probes"] == probes + 1
        assert not conn.is_closed()
        assert cm.stats["revalidated"] == 1

    def test_stale_invalid_replaced(self, network, agents):
        cm = make_cm(network)
        first = cm.acquire(URL)
        cm.release(first)
        network.clock.advance(IDLE_TTL + 1.0)
        network.close(agents[0].address)  # agent gone
        # Revalidation fails; a new connect is attempted and also fails.
        from repro.core.errors import DataSourceError

        with pytest.raises(DataSourceError):
            cm.acquire(URL)
        assert first.is_closed()
        assert cm.stats["evicted_invalid"] == 1


def make_health_cm(network, policy=None):
    from repro.core.health import HealthTracker

    policy = policy or GatewayPolicy(
        breaker_base_backoff=30.0,
        breaker_max_backoff=60.0,
    )
    registry = DriverRegistry()
    health = HealthTracker(network.clock, policy)
    dm = GridRmDriverManager(registry, policy, health=health)
    dm.register(SnmpDriver(network, gateway_host="gateway"))
    return ConnectionManager(dm, network.clock, policy, health=health), health


class TestReleaseValidation:
    def test_release_quarantined_source_closes(self, network, agents):
        """The breaker trips at ``health.FAILURE_THRESHOLD`` failures (this
        rig set a threshold of 2 before it became a constant)."""
        cm, health = make_health_cm(network)
        conn = cm.acquire(URL)
        for _ in range(FAILURE_THRESHOLD):  # trips the breaker
            health.record_failure(URL)
        cm.release(conn)
        assert conn.is_closed()
        assert cm.idle_count(URL) == 0
        assert cm.stats["quarantined"] == 1

    def test_release_after_failure_probes_and_evicts_dead(self, network, agents):
        cm, health = make_health_cm(network)
        conn = cm.acquire(URL)
        health.record_failure(URL)  # one failure: not tripped, but suspect
        network.set_host_up("n0", False)
        cm.release(conn)
        assert conn.is_closed()
        assert cm.idle_count(URL) == 0
        assert cm.stats["evicted_unhealthy"] == 1

    def test_release_after_failure_pools_if_probe_passes(self, network, agents):
        cm, health = make_health_cm(network)
        conn = cm.acquire(URL)
        health.record_failure(URL)
        cm.release(conn)  # the validation probe succeeds: pool it
        assert not conn.is_closed()
        assert cm.idle_count(URL) == 1

    def test_healthy_release_skips_probe(self, network, agents):
        """The zero-traffic pooling fast path survives: a healthy source
        pays no validation probe on release."""
        cm, health = make_health_cm(network)
        cm.release(cm.acquire(URL))
        t0 = network.clock.now()
        cm.release(cm.acquire(URL))
        assert network.clock.now() == t0

    def test_acquire_skips_pool_while_quarantined(self, network, agents):
        from repro.core.errors import SourceQuarantinedError

        cm, health = make_health_cm(network)
        cm.release(cm.acquire(URL))
        assert cm.idle_count(URL) == 1
        # ``health.FAILURE_THRESHOLD`` failures trip it (this rig set a
        # threshold of 2 before it became a constant).
        for _ in range(FAILURE_THRESHOLD):
            health.record_failure(URL)
        with pytest.raises(SourceQuarantinedError):
            cm.acquire(URL)

    def test_quarantine_drains_idle_pool(self, network, agents):
        cm, health = make_health_cm(network)
        a, b = cm.acquire(URL), cm.acquire(URL)
        cm.release(a)
        cm.release(b)
        assert cm.quarantine(URL) == 2
        assert a.is_closed() and b.is_closed()
        assert cm.idle_count(URL) == 0
        assert cm.quarantine("gma://some-site") == 0  # non-JDBC keys are fine


class TestPoolChurn:
    def test_interleaved_churn_preserves_invariants(self, network, agents):
        """Property-style stress: random acquire/release/discard traffic
        with host failures injected must never hand out a closed
        connection, corrupt idle counts, or move stats backwards."""
        import random

        policy = GatewayPolicy(
            pool_max_per_source=2,
            breaker_base_backoff=10.0,
            breaker_max_backoff=20.0,
        )
        cm, health = make_health_cm(network, policy)
        rng = random.Random(1234)
        urls = [f"jdbc:snmp://n{i}/x" for i in range(4)]
        held = []
        prev_stats = dict(cm.stats)
        acquired = released = failures = 0

        from repro.core.errors import DataSourceError

        for step in range(300):
            op = rng.random()
            url = rng.choice(urls)
            if op < 0.10:  # toggle a host's liveness
                host = url.split("//")[1].split("/")[0]
                network.set_host_up(host, rng.random() < 0.5)
            elif op < 0.55:  # acquire
                try:
                    conn = cm.acquire(url)
                except DataSourceError:
                    failures += 1
                else:
                    assert not conn.is_closed(), "pool handed out a closed conn"
                    held.append(conn)
                    acquired += 1
            elif held and op < 0.85:  # release
                cm.release(held.pop(rng.randrange(len(held))))
                released += 1
            elif held:  # discard
                cm.discard(held.pop(rng.randrange(len(held))))
            if op < 0.05:
                network.clock.advance(rng.uniform(0.0, 15.0))
            # Invariants, every step:
            for url_key in urls:
                assert 0 <= cm.idle_count(url_key) <= policy.pool_max_per_source
            assert cm.idle_count() == sum(cm.idle_count(u) for u in urls)
            for key, value in cm.stats.items():
                assert value >= prev_stats[key], f"stat {key} went backwards"
            prev_stats = dict(cm.stats)

        assert acquired >= 30 and released >= 10 and failures > 0
        assert cm.stats["acquires"] == acquired + failures
        # Pooled connections left idle are all still open.
        for entries in cm._idle.values():
            for entry in entries:
                assert not entry.connection.is_closed()
        idle_total = cm.idle_count()
        assert cm.close_all() == idle_total  # every idle entry was open
        assert cm.idle_count() == 0


class TestContextManager:
    def test_happy_path_releases(self, network, agents):
        cm = make_cm(network)
        with cm.connection(URL) as conn:
            assert not conn.is_closed()
        assert cm.idle_count(URL) == 1

    def test_exception_discards(self, network, agents):
        cm = make_cm(network)
        with pytest.raises(RuntimeError):
            with cm.connection(URL):
                raise RuntimeError("query blew up")
        assert cm.idle_count(URL) == 0
