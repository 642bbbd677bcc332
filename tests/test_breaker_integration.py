"""End-to-end circuit-breaker tests: the gateway's behaviour around dead
sources, stale-result degradation, recovery, and partitioned remote sites.

These are the acceptance scenarios for per-source health tracking:

a. a dead source's steady-state cost collapses once its breaker trips
   (no connect attempts, ``connect_failures`` stops growing);
b. the source returns to CLOSED within the configured backoff after it
   heals;
c. ``serve_stale_on_open=True`` answers from the stale query cache with
   ``degraded=True`` instead of raising;
d. a partitioned remote site stops adding its timeout to every
   Global-layer multi-site query.

Every breaker here trips at ``health.FAILURE_THRESHOLD`` (3) consecutive
failures.  Tests that set a threshold of 2 before it became a constant
now take one more failing query (``n=FAILURE_THRESHOLD``).
"""

import pytest

from repro.core.health import FAILURE_THRESHOLD, BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site

SQL = "SELECT HostName FROM Host"


def make_site(policy=None, name="bs", n_hosts=2, agents=("snmp",), seed=3):
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    site = build_site(
        network, name=name, n_hosts=n_hosts, agents=agents, seed=seed, policy=policy
    )
    clock.advance(5.0)
    return site


def trip_source(site, url, *, n, mode=QueryMode.REALTIME):
    """Issue ``n`` realtime queries against a (dead) source."""
    results = []
    for _ in range(n):
        results.append(site.gateway.query(url, SQL, mode=mode))
    return results


class TestDeadSourceFastFail:
    def test_breaker_stops_connect_attempts(self):
        site = make_site(
            GatewayPolicy(
                breaker_base_backoff=60.0,
                breaker_max_backoff=120.0,
            )
        )
        gw = site.gateway
        url = site.url_for("snmp", host=site.host_names()[0])
        site.fail_host(site.host_names()[0])

        failing = trip_source(site, url, n=3)
        assert all(r.failed_sources == 1 for r in failing)
        assert all(r.elapsed > 0 for r in failing)  # paid native timeouts
        failures_at_trip = gw.driver_manager.stats["connect_failures"]
        assert failures_at_trip >= 3
        assert gw.health.state(url) is BreakerState.OPEN

        short_circuited = trip_source(site, url, n=5)
        # Steady state: no source traffic, no time, no new failures.
        assert gw.driver_manager.stats["connect_failures"] == failures_at_trip
        assert all(r.elapsed == 0 for r in short_circuited)
        assert all(r.degraded for r in short_circuited)
        assert gw.request_manager.stats["breaker_short_circuits"] == 5

    def test_healed_source_recovers_within_backoff(self):
        """Trips after ``FAILURE_THRESHOLD`` failing queries (was 2)."""
        site = make_site(
            GatewayPolicy(
                breaker_base_backoff=30.0,
                breaker_max_backoff=60.0,
            )
        )
        gw = site.gateway
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        site.fail_host(host)
        trip_source(site, url, n=FAILURE_THRESHOLD)
        assert gw.health.state(url) is BreakerState.OPEN

        site.heal_host(host)
        # The jittered wait never exceeds breaker_max_backoff, so by then
        # the probe window is guaranteed open.
        site.clock.advance(gw.policy.breaker_max_backoff)
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1 and not result.degraded
        assert result.rows
        assert gw.health.state(url) is BreakerState.CLOSED
        assert gw.health.stats["recoveries"] == 1


class TestStaleServing:
    def _tripped_site_with_cache(self, serve_stale):
        """Trips after ``FAILURE_THRESHOLD`` failing queries (was 2)."""
        site = make_site(
            GatewayPolicy(
                breaker_base_backoff=300.0,
                breaker_max_backoff=600.0,
                serve_stale_on_open=serve_stale,
            )
        )
        gw = site.gateway
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        warm = gw.query(url, SQL, mode=QueryMode.REALTIME)  # fills the cache
        assert warm.ok_sources == 1
        site.fail_host(host)
        # Let the cache entry expire so only the *stale* path can answer.
        site.clock.advance(gw.policy.query_cache_ttl + 1)
        trip_source(site, url, n=FAILURE_THRESHOLD)
        assert gw.health.state(url) is BreakerState.OPEN
        return site, url, warm

    def test_open_breaker_serves_stale_flagged_degraded(self):
        site, url, warm = self._tripped_site_with_cache(serve_stale=True)
        gw = site.gateway
        for mode in (QueryMode.REALTIME, QueryMode.CACHED_OK):
            result = gw.query(url, SQL, mode=mode)
            assert result.rows == warm.rows
            (status,) = result.statuses
            assert status.ok and status.from_cache and status.degraded
            assert status.cause is Cause.STALE
            assert result.degraded
        assert gw.request_manager.stats["stale_served"] == 2

    def test_serve_stale_disabled_fails_fast(self):
        site, url, _ = self._tripped_site_with_cache(serve_stale=False)
        result = site.gateway.query(url, SQL, mode=QueryMode.REALTIME)
        (status,) = result.statuses
        assert not status.ok and status.degraded
        assert status.cause is Cause.BREAKER
        assert "circuit open" in status.error
        source = site.gateway.tracer.last().find_span("source")
        assert (source.status, source.error) == ("breaker", status.error)
        assert result.elapsed == 0
        assert site.gateway.request_manager.stats["stale_served"] == 0


class TestObservability:
    def _site_with_open_breaker(self):
        """Trips after ``FAILURE_THRESHOLD`` failing queries (was 2)."""
        site = make_site(
            GatewayPolicy(breaker_base_backoff=50.0)
        )
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        site.fail_host(host)
        trip_source(site, url, n=FAILURE_THRESHOLD)
        return site, url, host

    def test_transitions_emitted_as_events(self):
        site, url, host = self._site_with_open_breaker()
        gw = site.gateway
        opened = [e for e in gw.events.recent if e.name == "breaker.open"]
        assert opened and opened[-1].fields["source"] == url
        assert opened[-1].source_host == host
        assert opened[-1].severity == "error"
        assert gw.events.stats["internal"] >= 1

        site.heal_host(host)
        site.clock.advance(gw.policy.breaker_max_backoff)
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        names = [e.name for e in gw.events.recent]
        assert "breaker.half_open" in names and "breaker.closed" in names

    def test_transitions_recorded_in_history(self):
        site, url, host = self._site_with_open_breaker()
        sel = site.gateway.history.query(
            "SELECT EventName FROM LogEvent", source_url=f"event://{host}"
        )
        assert ["breaker.open"] in sel.rows

    def test_scoreboard_in_gateway_stats(self):
        site, url, _ = self._site_with_open_breaker()
        health = site.gateway.stats()["health"]
        assert health["open"] == 1
        assert health["trips"] == 1
        assert health["scoreboard"][url]["state"] == "open"
        assert health["scoreboard"][url]["consecutive_failures"] == FAILURE_THRESHOLD

    def test_console_tree_and_health_panel(self):
        from repro.web.console import Console, ICON_QUARANTINED

        site, url, _ = self._site_with_open_breaker()
        console = Console(site.gateway)
        tree = console.tree_view()
        assert ICON_QUARANTINED in tree
        assert "breaker: OPEN" in tree
        panel = console.health_panel()
        assert f"{url}: quarantined" in panel
        assert "breaker.open" in panel

    def test_servlet_health_route(self):
        from repro.web.servlet import GatewayServlet, http_get

        site, url, _ = self._site_with_open_breaker()
        servlet = GatewayServlet(site.gateway)
        code, body = http_get(
            site.network, site.host_names()[1], servlet.address, "/health"
        )
        assert code == 200
        assert "quarantined" in body

    def test_cli_health_command(self, capsys):
        from repro.cli import main

        assert main(["health", "--hosts", "2", "--agents", "snmp"]) == 0
        out = capsys.readouterr().out
        assert "Source health" in out
        assert "up" in out

    def test_cli_health_command_with_failure(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "health",
                    "--hosts",
                    "2",
                    "--agents",
                    "snmp",
                    "--fail",
                    "site-a-n00",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined" in out


class TestRemoteSiteBreaker:
    @pytest.fixture
    def fabric(self):
        """Site ``bra``'s breaker on ``gma://brb`` trips after
        ``FAILURE_THRESHOLD`` failing queries (was 2)."""
        clock = VirtualClock()
        network = Network(clock, seed=21)
        policy = GatewayPolicy(
            breaker_base_backoff=100.0,
            breaker_max_backoff=200.0,
        )
        a = build_site(
            network, name="bra", n_hosts=2, agents=("snmp",), seed=1, policy=policy
        )
        b = build_site(network, name="brb", n_hosts=2, agents=("snmp",), seed=2)
        clock.advance(10.0)
        directory = GMADirectory(network)
        gla = GlobalLayer(a.gateway, directory)
        GlobalLayer(b.gateway, directory)
        return network, a, b, gla

    def test_partitioned_site_stops_costing_timeouts(self, fabric):
        """The short circuit and the stale answer are counted by the request
        manager's breaker stage, one per remote site, as a local source's are."""
        network, a, b, gla = fabric
        remote_url = b.url_for("snmp", host=b.host_names()[0])
        urls = [a.url_for("snmp", host=a.host_names()[0]), remote_url]
        stats = a.gateway.request_manager.stats

        warm = a.gateway.query(urls, SQL, mode=QueryMode.REALTIME)
        assert warm.ok_sources == 2
        network.set_host_up(b.gateway.host, False)
        network.clock.advance(a.gateway.policy.query_cache_ttl + 1)

        # Until the breaker trips, every multi-site query eats the remote
        # timeout on top of the local work.
        failing = [
            a.gateway.query(urls, SQL, mode=QueryMode.REALTIME)
            for _ in range(FAILURE_THRESHOLD)
        ]
        assert all(r.failed_sources == 1 for r in failing)
        slow = min(r.elapsed for r in failing)
        assert a.gateway.health.state("gma://brb") is BreakerState.OPEN

        short_circuits, stale_served = stats["breaker_short_circuits"], stats["stale_served"]
        degraded = a.gateway.query(urls, SQL, mode=QueryMode.REALTIME)
        # Local source answered live; the remote came degraded from the
        # stale remote-answer cache without waiting on the partition.
        assert degraded.ok_sources == 2
        assert degraded.degraded
        assert degraded.elapsed < slow / 2
        assert stats["breaker_short_circuits"] - short_circuits == 1
        assert stats["stale_served"] - stale_served == 1

    def test_partitioned_site_fails_fast_without_stale(self, fabric):
        """The remote breaker's refusal reads as a local one's: the breaker
        stage builds it, so it names the open window and the last error."""
        network, a, b, gla = fabric
        a.gateway.policy.serve_stale_on_open = False
        remote_url = b.url_for("snmp", host=b.host_names()[0])
        network.set_host_up(b.gateway.host, False)
        for _ in range(FAILURE_THRESHOLD):
            a.gateway.query(remote_url, SQL, mode=QueryMode.REALTIME)
        t0 = network.clock.now()
        result = a.gateway.query(remote_url, SQL, mode=QueryMode.REALTIME)
        assert network.clock.now() == t0  # fast fail: no timeout paid
        (status,) = result.statuses
        assert not status.ok and status.degraded
        assert status.cause is Cause.BREAKER
        assert status.error.startswith("circuit open until t=")
        assert "brb-gw:8300 unreachable" in status.error

    def test_remote_site_recovers_after_heal(self, fabric):
        network, a, b, gla = fabric
        remote_url = b.url_for("snmp", host=b.host_names()[0])
        network.set_host_up(b.gateway.host, False)
        for _ in range(FAILURE_THRESHOLD):
            a.gateway.query(remote_url, SQL, mode=QueryMode.REALTIME)
        assert a.gateway.health.state("gma://brb") is BreakerState.OPEN

        network.set_host_up(b.gateway.host, True)
        network.clock.advance(a.gateway.policy.breaker_max_backoff)
        result = a.gateway.query(remote_url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1 and not result.degraded
        assert a.gateway.health.state("gma://brb") is BreakerState.CLOSED


class TestPartitionHealVsHalfOpenProbe:
    """A network partition racing the breaker's HALF_OPEN re-probe.

    The chaos plane heals partitions on a clock schedule, so the heal can
    land either side of the breaker's probe window — both orderings must
    converge without inconsistent breaker state.
    """

    def _partitioned_site(self):
        """Trips after ``FAILURE_THRESHOLD`` failing queries (was 2)."""
        site = make_site(
            GatewayPolicy(
                breaker_base_backoff=30.0,
                breaker_max_backoff=60.0,
            )
        )
        gw = site.gateway
        host = site.host_names()[0]
        url = site.url_for("snmp", host=host)
        site.network.partition(
            {gw.host, site.host_names()[1]}, {host}
        )
        trip_source(site, url, n=FAILURE_THRESHOLD)
        assert gw.health.state(url) is BreakerState.OPEN
        return site, url, host

    def test_heal_lands_before_probe_window(self):
        site, url, host = self._partitioned_site()
        gw = site.gateway
        site.network.heal()  # partition heals while the breaker is OPEN
        site.clock.advance(gw.policy.breaker_max_backoff)
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1 and not result.degraded
        assert gw.health.state(url) is BreakerState.CLOSED
        assert gw.health.stats["recoveries"] == 1

    def test_probe_fires_while_still_partitioned(self):
        site, url, host = self._partitioned_site()
        gw = site.gateway
        entry = gw.health.health(url)
        first_backoff = entry.current_backoff

        # The probe window opens but the partition has NOT healed: the
        # HALF_OPEN probe fails, re-trips the breaker and doubles the
        # backoff.
        site.clock.advance(gw.policy.breaker_max_backoff)
        probe = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert probe.failed_sources == 1
        entry = gw.health.health(url)
        assert gw.health.state(url) is BreakerState.OPEN
        assert entry.trips == 2
        assert entry.current_backoff > first_backoff  # exponential growth
        assert entry.current_backoff <= gw.policy.breaker_max_backoff

        # Now the heal lands; the next probe window closes the breaker.
        site.network.heal()
        site.clock.advance(gw.policy.breaker_max_backoff)
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1
        assert gw.health.state(url) is BreakerState.CLOSED
        # Consecutive-failure and trip counters stay coherent through the
        # race (same invariants the chaos soak checks).
        entry = gw.health.health(url)
        assert entry.consecutive_failures == 0
        assert entry.total_failures >= 3
        assert gw.health.stats["recoveries"] == 1

    def test_heal_racing_probe_instant_is_benign(self):
        # The adversarial interleaving: the heal is scheduled on the
        # clock for the *exact* instant the probe window opens (as the
        # chaos plane's auto-heal can do).  Whichever callback runs
        # first, the query after that instant must observe a consistent
        # breaker and the source must eventually recover.
        site, url, host = self._partitioned_site()
        gw = site.gateway
        entry = gw.health.health(url)
        site.clock.call_at(entry.open_until, site.network.heal)
        site.clock.advance(gw.policy.breaker_max_backoff)
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources == 1 and not result.degraded
        assert gw.health.state(url) is BreakerState.CLOSED
