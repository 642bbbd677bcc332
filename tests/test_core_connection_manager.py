"""Unit tests for the ConnectionManager pool (paper §3.1.2)."""

import pytest

from repro.agents.snmp import SnmpAgent
from repro.core.connection_manager import IDLE_TTL, ConnectionManager
from repro.core.driver_manager import GridRmDriverManager
from repro.core.health import FAILURE_THRESHOLD
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.dbapi.registry import DriverRegistry
from repro.drivers.snmp_driver import SnmpDriver
from repro.testbed import build_testbed


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
    """A pool beside a health tracker, wired as ``Gateway`` wires them:
    the pool takes no health, and a trip to OPEN drains the source's idle
    connections (``Gateway._on_breaker_transition`` -> ``quarantine``)."""
    from repro.core.health import BreakerState, HealthTracker

    policy = policy or GatewayPolicy(
        breaker_base_backoff=30.0,
        breaker_max_backoff=60.0,
    )
    registry = DriverRegistry()
    dm = GridRmDriverManager(registry, policy)
    dm.register(SnmpDriver(network, gateway_host="gateway"))
    cm = ConnectionManager(dm, network.clock, policy)

    def drain_on_trip(key, old, new, entry):
        if new is BreakerState.OPEN:
            cm.quarantine(key)

    return cm, HealthTracker(network.clock, policy, on_transition=drain_on_trip)


def pooled_gateway():
    """A gateway over one SNMP source whose pool holds one connection."""
    network, (site,) = build_testbed(
        n_hosts=1, agents=("snmp",), seed=3,
        policy=GatewayPolicy(breaker_base_backoff=30.0, breaker_max_backoff=60.0),
    )
    gateway, url = site.gateway, site.source_urls[0]
    gateway.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
    (entry,) = gateway.connection_manager._idle[url]
    return network, site, url, entry.connection


class TestReleaseValidation:
    def test_release_quarantined_source_closes(self):
        """An OPEN source's idle connections are closed and never reused.
        The pool reads no health, so release never sees it OPEN; the
        connection released *before* the trip is closed by the trip-time
        purge (``Gateway._on_breaker_transition`` -> ``quarantine``)."""
        network, site, url, conn = pooled_gateway()
        gateway = site.gateway
        for _ in range(FAILURE_THRESHOLD):  # trips the breaker
            gateway.health.record_failure(url)
        assert conn.is_closed()
        cm = gateway.connection_manager
        assert cm.idle_count(url) == 0
        assert cm.stats["quarantined"] == 1

    def test_release_after_failure_probes_and_evicts_dead(self, network, agents):
        """An OPEN trip still closes idle connections.  Release reads no
        health: a connection released after its source's first failure,
        with the host since gone, is pooled without a probe (the clock
        does not move); the trip to OPEN is what closes it."""
        cm, health = make_health_cm(network)
        conn = cm.acquire(URL)
        health.record_failure(URL)  # one failure: not tripped
        network.set_host_up("n0", False)
        t0 = network.clock.now()
        cm.release(conn)
        assert network.clock.now() == t0
        assert not conn.is_closed() and cm.idle_count(URL) == 1
        for _ in range(FAILURE_THRESHOLD - 1):
            health.record_failure(URL)
        assert conn.is_closed()
        assert cm.idle_count(URL) == 0 and cm.stats["quarantined"] == 1
        assert "evicted_unhealthy" not in dict(cm.stats)

    def test_release_after_failure_pools_if_probe_passes(self, network, agents):
        """A recovering source's answered connection is pooled with no
        extra agent request: a failure on record buys no release probe."""
        cm, health = make_health_cm(network)
        conn = cm.acquire(URL)
        health.record_failure(URL)
        served = agents[0].requests_served
        cm.release(conn)
        assert agents[0].requests_served == served
        assert not conn.is_closed()
        assert cm.idle_count(URL) == 1

    def test_a_fetch_after_a_failure_costs_one_native_request(self):
        """Through ``Gateway.query``: one failure on record, then a
        successful REALTIME fetch on the pooled connection costs exactly
        one native request, the fetch itself; the connection that
        answered is pooled again without a probe."""
        network, site, url, conn = pooled_gateway()
        gateway = site.gateway
        (agent,) = site.agents["snmp"]
        gateway.health.record_failure(url, "earlier")
        network.clock.advance(20.0)  # past the query and driver caches
        served = agent.requests_served
        (status,) = gateway.query(
            url, "SELECT * FROM Processor", mode=QueryMode.REALTIME
        ).statuses
        assert status.cause is Cause.FRESH
        assert agent.requests_served - served == 1
        assert gateway.connection_manager.idle_count(url) == 1
        assert not conn.is_closed()

    def test_healthy_release_skips_probe(self, network, agents):
        """The zero-traffic pooling fast path: a healthy source pays no
        validation probe on release (no source does)."""
        cm, health = make_health_cm(network)
        cm.release(cm.acquire(URL))
        t0 = network.clock.now()
        cm.release(cm.acquire(URL))
        assert network.clock.now() == t0

    def test_acquire_skips_pool_while_quarantined(self):
        """Through ``Gateway.query``: while the breaker is OPEN the pool
        is not asked at all (the request manager's breaker exit answers
        first, no acquire, no agent request), and the HALF_OPEN probe
        opens a new connection instead of reusing a purged one."""
        network, site, url, conn = pooled_gateway()
        gateway, cm = site.gateway, site.gateway.connection_manager
        (agent,) = site.agents["snmp"]
        for _ in range(FAILURE_THRESHOLD):
            gateway.health.record_failure(url)
        acquires, served = cm.stats["acquires"], agent.requests_served
        network.clock.advance(1.0)
        (status,) = gateway.query(
            url, "SELECT * FROM Processor", mode=QueryMode.REALTIME
        ).statuses
        assert status.cause is Cause.STALE  # the pooling query's answer
        assert cm.stats["acquires"] == acquires
        assert agent.requests_served == served
        network.clock.advance(60.0)  # past the (jitter-capped) backoff
        (status,) = gateway.query(
            url, "SELECT * FROM Processor", mode=QueryMode.REALTIME
        ).statuses
        assert status.cause is Cause.FRESH
        assert (cm.stats["created"], cm.stats["reused"]) == (2, 0)
        assert conn.is_closed()

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
