"""Fan-out determinism and degradation parity under concurrent dispatch.

The concurrent dispatch layer must not change *what* a query answers —
only how long it takes.  These tests pin that contract:

* same seed + same sources ⇒ identical consolidated rows and statuses,
  run after run;
* merge order follows the caller's URL order, never completion order;
* breaker short-circuits and stale-degradation behave identically with
  fan-out on and off;
* single-flight coalescing reduces agent traffic without changing
  results.
"""

from __future__ import annotations

from repro.core.gateway import BatchQuery
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


def fresh_site(*, fanout=True, singleflight=True, seed=11, n_hosts=6, **policy_kwargs):
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    policy = GatewayPolicy(
        fanout_enabled=fanout, singleflight_enabled=singleflight, **policy_kwargs
    )
    site = build_site(
        network,
        name="s",
        n_hosts=n_hosts,
        agents=("snmp", "ganglia"),
        seed=seed,
        policy=policy,
    )
    clock.advance(30.0)
    return site


def source_urls(site):
    return [str(s.url) for s in site.gateway.sources()]


def status_tuples(result):
    return [
        (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.error)
        for s in result.statuses
    ]


def rows_sans_timestamp(result):
    """Rows with the sample-timestamp column masked.

    Poll *instants* legitimately differ between serial and concurrent
    dispatch (that is the whole point); the monitored values must not.
    """
    if "Timestamp" not in result.columns:
        return result.rows
    ts = result.columns.index("Timestamp")
    return [[v for i, v in enumerate(r) if i != ts] for r in result.rows]


class TestDeterminism:
    def test_same_seed_same_rows_and_statuses(self):
        def run():
            site = fresh_site()
            gw = site.gateway
            r = gw.query(
                source_urls(site), "SELECT * FROM Processor", mode=QueryMode.REALTIME
            )
            return r.columns, r.rows, status_tuples(r), r.elapsed

        assert run() == run()

    def test_merge_follows_url_order_not_completion_order(self):
        site = fresh_site()
        gw = site.gateway
        urls = source_urls(site)
        r = gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        # Statuses come back in the caller's URL order even though the
        # branches' virtual round-trips complete in some other order.
        assert [s.url for s in r.statuses] == urls
        # Reversing the URL list reverses the consolidation order while
        # preserving each source's contribution.
        site2 = fresh_site()
        r2 = site2.gateway.query(
            list(reversed(source_urls(site2))),
            "SELECT * FROM Processor",
            mode=QueryMode.REALTIME,
        )
        assert [s.url for s in r2.statuses] == list(reversed(urls))
        # Same per-source contributions either way (sample instants may
        # differ — branches draw their link delays in call order).
        from collections import Counter

        assert Counter(map(tuple, rows_sans_timestamp(r))) == Counter(
            map(tuple, rows_sans_timestamp(r2))
        )

    def test_fanout_and_serial_agree_on_everything_but_time(self):
        r_fan = fresh_site(fanout=True).gateway.query(
            source_urls(fresh_site(fanout=True)),
            "SELECT * FROM Processor",
            mode=QueryMode.REALTIME,
        )
        site_ser = fresh_site(fanout=False)
        r_ser = site_ser.gateway.query(
            source_urls(site_ser), "SELECT * FROM Processor", mode=QueryMode.REALTIME
        )
        assert r_fan.columns == r_ser.columns
        assert rows_sans_timestamp(r_fan) == rows_sans_timestamp(r_ser)
        assert status_tuples(r_fan) == status_tuples(r_ser)
        # And concurrency actually bought something.
        assert r_fan.elapsed < r_ser.elapsed

    def test_join_decomposition_deterministic(self):
        def run(fanout):
            site = fresh_site(fanout=fanout)
            r = site.gateway.query(
                source_urls(site),
                "SELECT * FROM Processor, MainMemory",
                mode=QueryMode.REALTIME,
            )
            return r.columns, rows_sans_timestamp(r), status_tuples(r)

        cols_fan, rows_fan, st_fan = run(True)
        cols_ser, rows_ser, st_ser = run(False)
        # Shape and per-source statuses are mode-independent; the row
        # *values* may drift slightly between modes because concurrent
        # dispatch samples every group at the scatter instant while
        # serial dispatch samples later groups later (time-continuous
        # host metrics).  Determinism within a mode is exact.
        assert (cols_fan, st_fan) == (cols_ser, st_ser)
        assert len(rows_fan) == len(rows_ser)
        assert run(True) == run(True)
        assert run(False) == run(False)


class TestDegradationParity:
    @staticmethod
    def _breaker_rig(fanout):
        """The victim's breakers trip at ``health.FAILURE_THRESHOLD`` (3);
        the three failing rounds each test runs reach it (this rig set a
        threshold of 2 before it became a constant)."""
        site = fresh_site(fanout=fanout)
        gw = site.gateway
        urls = source_urls(site)
        victim_host = site.host_names()[0]
        # The ganglia agent answers cluster-wide queries even when one
        # member is down; the per-host SNMP agent is the reliable victim.
        victim_urls = [u for u in urls if u == f"jdbc:snmp://{victim_host}/system"]
        assert victim_urls
        site.fail_host(victim_host)
        return site, gw, urls, victim_urls

    def test_breaker_short_circuits_identically(self):
        outcomes = {}
        for fanout in (True, False):
            site, gw, urls, victim_urls = self._breaker_rig(fanout)
            # Trip the victim's breakers, then observe the short-circuit.
            for _ in range(3):
                gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
                site.clock.advance(1.0)
            r = gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
            outcomes[fanout] = {
                "states": {u: gw.health.state(u).value for u in victim_urls},
                "short_circuits": gw.request_manager.stats["breaker_short_circuits"]
                > 0,
                "statuses": [
                    (s.url, s.ok, s.degraded, s.from_cache) for s in r.statuses
                ],
            }
            assert all(
                st.degraded for st in r.statuses if st.url in victim_urls
            ), "victim sources must be served degraded once the breaker is open"
        assert outcomes[True] == outcomes[False]

    def test_stale_served_identically(self):
        outcomes = {}
        for fanout in (True, False):
            site, gw, urls, victim_urls = self._breaker_rig(fanout)
            # The pre-failure poll in the rig warms nothing; prime the
            # cache, then kill and trip.
            site.heal_host(site.host_names()[0])
            gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
            site.fail_host(site.host_names()[0])
            for _ in range(3):
                gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
                site.clock.advance(1.0)
            r = gw.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
            victim_statuses = [s for s in r.statuses if s.url in victim_urls]
            outcomes[fanout] = [
                (s.url, s.ok, s.degraded, s.from_cache, s.rows)
                for s in victim_statuses
            ]
            assert victim_statuses
            assert all(s.ok and s.degraded and s.from_cache for s in victim_statuses)
        assert outcomes[True] == outcomes[False]


class TestSingleFlight:
    def test_identical_batch_members_share_round_trips(self):
        def run(singleflight):
            site = fresh_site(singleflight=singleflight, query_cache_ttl=0.0)
            gw = site.gateway
            urls = source_urls(site)
            before = gw.network.stats.requests
            batch = [
                BatchQuery(
                    urls=urls,
                    sql="SELECT * FROM Processor, MainMemory",
                    mode=QueryMode.REALTIME,
                ),
                BatchQuery(
                    urls=urls, sql="SELECT * FROM Processor", mode=QueryMode.REALTIME
                ),
                BatchQuery(
                    urls=urls, sql="SELECT * FROM MainMemory", mode=QueryMode.REALTIME
                ),
            ]
            results = gw.query_batch(batch)
            assert not any(isinstance(r, Exception) for r in results)
            return (
                gw.network.stats.requests - before,
                gw.dispatcher.stats.singleflight_joins,
                [rows_sans_timestamp(r) for r in results],
            )

        requests_on, joins_on, rows_on = run(True)
        requests_off, joins_off, rows_off = run(False)
        assert joins_on > 0
        assert joins_off == 0
        assert requests_on < requests_off
        assert rows_on == rows_off

    def test_coalesced_status_flagged(self):
        site = fresh_site(query_cache_ttl=0.0)
        gw = site.gateway
        urls = source_urls(site)
        batch = [
            BatchQuery(urls=urls, sql="SELECT * FROM Processor", mode=QueryMode.REALTIME),
            BatchQuery(urls=urls, sql="SELECT * FROM Processor", mode=QueryMode.REALTIME),
        ]
        first, second = gw.query_batch(batch)
        assert not any(s.coalesced for s in first.statuses)
        assert all(s.coalesced for s in second.statuses)
        assert rows_sans_timestamp(first) == rows_sans_timestamp(second)


class TestBatchSurfaces:
    def test_query_batch_errors_in_place(self):
        site = fresh_site()
        gw = site.gateway
        urls = source_urls(site)
        batch = [
            BatchQuery(urls=urls, sql="SELECT * FROM Processor"),
            BatchQuery(urls=urls, sql="SELECT * FROM NoSuchGroup"),
            BatchQuery(urls=urls, sql="SELECT * FROM MainMemory"),
        ]
        results = gw.query_batch(batch)
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], Exception)
        assert not isinstance(results[2], Exception)

    def test_acil_query_many(self):
        from repro.core.acil import ClientRequest

        site = fresh_site()
        gw = site.gateway
        urls = source_urls(site)
        replies = gw.acil.query_many(
            [
                ClientRequest(urls=urls, sql="SELECT * FROM Processor"),
                ClientRequest(urls=urls, sql="SELECT * FROM NoSuchGroup"),
            ]
        )
        assert replies[0].ok and replies[0].rows
        assert not replies[1].ok
        assert "NoSuchGroup" in replies[1].error

    def test_acil_query_many_survives_a_hostile_url(self):
        """One member's unparsable URL is that member's failure (it
        used to be a raw ValueError that aborted the whole batch)."""
        from repro.core.acil import ClientRequest

        site = fresh_site()
        urls = source_urls(site)
        honest = ClientRequest(urls=urls, sql="SELECT * FROM Processor")
        hostile = ClientRequest(
            urls=["jdbc:snmp://h:" + "9" * 5000 + "/x"], sql=honest.sql
        )
        replies = site.gateway.acil.query_many([honest, hostile, honest])
        assert [r.ok for r in replies] == [True, False, True]
        assert "malformed JDBC URL" in replies[1].error
        (alone,) = fresh_site().gateway.acil.query_many([honest])
        assert replies[0].rows == replies[2].rows == alone.rows != []

    def test_acil_query_many_survives_an_unreadable_number(self):
        """A non-decimal digit in one member's SQL is that member's typed
        parse error (it used to be a raw ValueError out of ``int()`` that
        lost the honest member's answer too)."""
        from repro.core.acil import ClientRequest

        site = fresh_site()
        urls = source_urls(site)
        honest = ClientRequest(urls=urls, sql="SELECT * FROM Processor")
        bad = ClientRequest(urls=urls, sql="SELECT * FROM Processor WHERE CPUCount > \u00b2")
        replies = site.gateway.acil.query_many([honest, bad])
        assert [r.ok for r in replies] == [True, False]
        assert replies[0].rows
        position = bad.sql.index("\u00b2")
        assert f"unexpected character '\u00b2' at position {position}" in replies[1].error

    def test_query_batch_pins_a_bare_string_url_as_one_url(self, monkeypatch):
        """A member whose ``urls`` is one string pins that URL, not its
        characters, and is answered like ``Gateway.query`` answers it."""
        site = fresh_site()
        gw = site.gateway
        url = source_urls(site)[0]
        pinned = []
        pin = gw.health.pin
        monkeypatch.setattr(
            gw.health, "pin", lambda key, decision: pinned.append(key) or pin(key, decision)
        )
        (result,) = gw.query_batch([BatchQuery(urls=url, sql="SELECT * FROM Processor")])
        assert pinned[0] == url
        assert set(pinned) == {url}
        assert [s.url for s in result.statuses] == [url]
        assert result.statuses[0].ok and result.rows

    def test_console_poll_all_uses_one_fanout(self):
        from repro.web.console import Console

        site = fresh_site()
        console = Console(site.gateway)
        t0 = site.clock.now()
        results = console.poll_all()
        elapsed = site.clock.now() - t0
        assert len(results) == len(source_urls(site))
        assert site.gateway.dispatcher.stats.fanouts >= 1
        # The whole site poll costs about one round-trip, not N.
        serial_site = fresh_site(fanout=False)
        serial_console = Console(serial_site.gateway)
        t0 = serial_site.clock.now()
        serial_console.poll_all()
        serial_elapsed = serial_site.clock.now() - t0
        assert elapsed < serial_elapsed

    def test_dispatch_panel_renders(self):
        from repro.web.console import Console

        site = fresh_site()
        gw = site.gateway
        gw.query(source_urls(site), "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        panel = Console(gw).dispatch_panel()
        assert "fan-out enabled" in panel
        assert "coalesced joins" in panel


class TestPolicyKnobs:
    def test_negative_cap_rejected(self):
        """The cap is a constant now, not a keyword to refuse: it meets
        the bound the constructor checked, and then some (a cap of 0
        no longer means unlimited)."""
        from repro.core.dispatch import MAX_CONCURRENT_PER_SOURCE

        assert MAX_CONCURRENT_PER_SOURCE >= 1

    def test_negative_cache_bound_rejected(self):
        """The cache bound is a constant now: it meets the bound the
        constructor checked (0 no longer means unbounded)."""
        from repro.core.cache import MAX_ENTRIES

        assert MAX_ENTRIES >= 1

    def test_gateway_stats_expose_dispatch_and_evictions(self):
        site = fresh_site()
        gw = site.gateway
        gw.query(source_urls(site), "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        stats = gw.stats()
        assert stats["dispatch"]["fanouts"] >= 1
        assert "evictions" in stats["cache"]
        assert stats["requests"]["join_queries"] == 0
