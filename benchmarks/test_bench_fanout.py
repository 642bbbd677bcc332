"""E14 — Concurrent dispatch: fan-out, scatter-gather, single-flight.

The serial reproduction made a query over N sources cost the *sum* of N
round-trips of virtual time.  The dispatch layer (repro.core.dispatch)
overlaps them, so the claims to measure are:

* **fan-out**: a REALTIME query over N >= 8 sources costs about the
  slowest single source's round-trip (within 1.5x), where the serial
  baseline (``fanout_enabled=False``) costs ~N single round-trips;
* **scatter-gather**: a 3-site Global-layer query costs about the
  slowest site, not the sum of the three;
* **single-flight**: a join + tree-view workload issuing identical
  concurrent sub-queries performs measurably fewer network requests
  than the same workload with coalescing disabled, with identical rows.

Every quantity is virtual time or a count, so each run prints the same
table; the wall cost of a fan-out is the e2e harness's job
(``core.dispatch.self_us`` in ``benchmarks/e2e``).
"""

from repro.core.gateway import BatchQuery
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.testbed import build_testbed
from conftest import fresh_site, fmt_table

SQL = "SELECT * FROM Processor"
N_SOURCES = 8


def test_e14_fanout_beats_serial(report):
    """Concurrent fan-out: elapsed ~= slowest source, not the sum."""
    # Slowest single source: each polled alone on an identical fresh rig.
    singles_site = fresh_site(name="e14", n_hosts=N_SOURCES, agents=("snmp",))
    singles = []
    for url in singles_site.source_urls:
        t0 = singles_site.clock.now()
        singles_site.gateway.query([url], SQL, mode=QueryMode.REALTIME)
        singles.append(singles_site.clock.now() - t0)
    slowest = max(singles)

    concurrent_site = fresh_site(name="e14", n_hosts=N_SOURCES, agents=("snmp",))
    t0 = concurrent_site.clock.now()
    r_conc = concurrent_site.gateway.query(
        concurrent_site.source_urls, SQL, mode=QueryMode.REALTIME
    )
    concurrent = concurrent_site.clock.now() - t0

    serial_site = fresh_site(
        name="e14",
        n_hosts=N_SOURCES,
        agents=("snmp",),
        policy=GatewayPolicy(fanout_enabled=False),
    )
    t0 = serial_site.clock.now()
    r_ser = serial_site.gateway.query(
        serial_site.source_urls, SQL, mode=QueryMode.REALTIME
    )
    serial = serial_site.clock.now() - t0

    speedup = serial / concurrent
    report(
        f"E14: REALTIME fan-out over {N_SOURCES} SNMP sources",
        *fmt_table(
            ["dispatch", "virt ms", "vs slowest source"],
            [
                ["serial", serial * 1000, serial / slowest],
                ["concurrent", concurrent * 1000, concurrent / slowest],
            ],
        ),
        f"speedup: {speedup:.2f}x "
        f"(slowest single source {slowest*1000:.3f} ms)",
    )
    assert r_conc.ok_sources == N_SOURCES and r_ser.ok_sources == N_SOURCES
    # The acceptance shape: concurrent within 1.5x the slowest single
    # source; serial costs many single round-trips (the sum).
    assert concurrent <= slowest * 1.5
    assert serial >= sum(singles) * 0.75
    assert speedup > 2.0


def _gma_rig(policy=None, *, seed=7):
    network, sites = build_testbed(n_sites=4, n_hosts=3, seed=seed, policy=policy)
    directory = GMADirectory(network)
    layers = [GlobalLayer(site.gateway, directory) for site in sites]
    network.clock.advance(30.0)
    return network, sites, layers


def test_e14_three_site_scatter_gather(report):
    """A 3-site Global-layer query costs ~the slowest site, not the sum."""
    remote_sites = ["site-b", "site-c", "site-d"]

    # Slowest single site, measured one at a time on a fresh fabric.
    network, _, layers = _gma_rig()
    singles = []
    for site_name in remote_sites:
        t0 = network.clock.now()
        layers[0].query_remote(site_name, SQL, mode="realtime")
        singles.append(network.clock.now() - t0)
    slowest = max(singles)

    network, _, layers = _gma_rig()
    t0 = network.clock.now()
    out = layers[0].query_remote_all(remote_sites, SQL, mode="realtime")
    concurrent = network.clock.now() - t0
    # A site that cannot answer is a failed status, not an exception.
    assert all(s.ok for r in out.values() for s in r.statuses)

    network, _, layers = _gma_rig(GatewayPolicy(fanout_enabled=False))
    t0 = network.clock.now()
    out_serial = layers[0].query_remote_all(remote_sites, SQL, mode="realtime")
    serial = network.clock.now() - t0
    assert all(s.ok for r in out_serial.values() for s in r.statuses)

    speedup = serial / concurrent
    report(
        "E14b: 3-site Global-layer scatter-gather (WAN links)",
        *fmt_table(
            ["dispatch", "virt ms", "vs slowest site"],
            [
                ["serial", serial * 1000, serial / slowest],
                ["concurrent", concurrent * 1000, concurrent / slowest],
            ],
        ),
        f"speedup: {speedup:.2f}x (slowest site {slowest*1000:.1f} ms)",
    )
    assert concurrent <= slowest * 1.5
    assert speedup > 2.0


def test_e14_singleflight_cuts_agent_traffic(report):
    """A join + tree-view batch coalesces identical in-flight requests."""

    def run(singleflight: bool):
        site = fresh_site(
            name="e14s",
            n_hosts=4,
            policy=GatewayPolicy(
                singleflight_enabled=singleflight, query_cache_ttl=0.0
            ),
        )
        gw = site.gateway
        urls = [str(s.url) for s in gw.sources()]
        before = gw.network.stats.requests
        batch = [
            # The join decomposes into SELECT * FROM Processor /
            # MainMemory per source — exactly what the tree-view polls
            # alongside it ask for.
            BatchQuery(
                urls=urls,
                sql="SELECT * FROM Processor, MainMemory",
                mode=QueryMode.REALTIME,
            ),
            BatchQuery(urls=urls, sql=SQL, mode=QueryMode.REALTIME),
            BatchQuery(
                urls=urls, sql="SELECT * FROM MainMemory", mode=QueryMode.REALTIME
            ),
        ]
        results = gw.query_batch(batch)
        assert not any(isinstance(r, Exception) for r in results)
        return (
            gw.network.stats.requests - before,
            gw.dispatcher.stats.singleflight_joins,
            [len(r.rows) for r in results],
        )

    requests_on, joins_on, rows_on = run(True)
    requests_off, joins_off, rows_off = run(False)
    saved = requests_off - requests_on
    report(
        "E14c: single-flight over a join + tree-view batch",
        *fmt_table(
            ["single-flight", "net requests", "coalesced joins"],
            [["on", requests_on, joins_on], ["off", requests_off, joins_off]],
        ),
        f"requests saved: {saved} ({saved / requests_off:.0%}); "
        f"row counts identical: {rows_on == rows_off}",
    )
    assert rows_on == rows_off
    assert joins_on > 0 and joins_off == 0
    assert requests_on < requests_off
