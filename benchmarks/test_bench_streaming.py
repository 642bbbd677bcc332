"""E19 — Continuous subscriptions vs polling (the streaming plane).

Claim (R-GMA extension): a consumer that needs fresh monitoring tuples
can either poll the gateway on a period — paying one gateway query per
consumer per period and reading data that is on average half a period
stale — or register a continuous query once and have the hub push every
matching publish.  Pushing decouples consumer count from gateway load
(the acquisition cost is paid once, however many subscriptions fan out)
and delivers tuples at network latency instead of poll-period staleness.

Workload: one site, REALTIME rounds drive acquisition; M consumers want
the rows.  The poll arm issues M gateway queries per round; the
continuous arm registers M subscriptions and issues one.  A separate
test pushes one publish through a hub carrying 1000 live subscriptions
(8 distinct compiled shapes) and counts that every one got the round;
the wall price of a publish is the e2e harness's
``gma.streams.publish_self_us`` (``benchmarks/e2e``).
"""

from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.glue.schema import standard_schema
from repro.gma.streams import StreamConsumer, StreamHub
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network

from conftest import fmt_table, fresh_site

M_CONSUMERS = 8
N_ROUNDS = 12
PERIOD = 10.0  # poll period, seconds of virtual time
SQL = "SELECT HostName, LoadAverage1Min FROM Processor"


def run_poll(m: int) -> dict:
    site = fresh_site(name="e19", n_hosts=4, agents=("snmp",), seed=3)
    gw = site.gateway
    urls = list(site.source_urls)
    latencies = []
    queries = 0
    for _ in range(N_ROUNDS):
        for _consumer in range(m):
            t0 = site.clock.now()
            result = gw.query(urls, SQL, mode=QueryMode.REALTIME)
            latencies.append(site.clock.now() - t0)
            queries += 1
            assert result.rows
        site.clock.advance(PERIOD)
    return {
        "arm": "poll",
        "gateway_queries": queries,
        # Data read mid-interval is on average half a period old, plus
        # the query round-trip itself.
        "freshness_ms": (PERIOD / 2) * 1000
        + sum(latencies) * 1000 / len(latencies),
        "deliveries": queries,
    }


def run_continuous(m: int) -> dict:
    policy = GatewayPolicy(streaming_enabled=True)
    site = fresh_site(
        name="e19", n_hosts=4, agents=("snmp",), seed=3, policy=policy
    )
    gw = site.gateway
    network = gw.network
    urls = list(site.source_urls)
    consumer = StreamConsumer(network, "e19-viewer")
    cqs = [
        consumer.register(gw.streams.address, f"{SQL} WHERE 0 <= {i}")
        for i in range(m)
    ]
    queries = 0
    for _ in range(N_ROUNDS):
        gw.query(urls, SQL, mode=QueryMode.REALTIME)  # one acquisition
        queries += 1
        site.clock.advance(PERIOD)
    latencies = [
        batch["received_at"] - batch["published_at"]
        for cq in cqs
        for batch in consumer.delivered.get((gw.host, cq), [])
    ]
    deliveries = len(latencies)
    assert deliveries > 0
    consumer.stop()
    return {
        "arm": "continuous",
        "gateway_queries": queries,
        "freshness_ms": sum(latencies) * 1000 / deliveries,
        "deliveries": deliveries,
    }


def test_e19_push_vs_poll(report):
    poll = run_poll(M_CONSUMERS)
    cont = run_continuous(M_CONSUMERS)
    rows = [
        [r["arm"], r["gateway_queries"], r["freshness_ms"], r["deliveries"]]
        for r in (poll, cont)
    ]
    report(
        f"E19: {M_CONSUMERS} consumers x {N_ROUNDS} rounds, "
        f"poll period {PERIOD:.0f}s",
        *fmt_table(
            ["arm", "gateway queries", "freshness (virt ms)", "deliveries"],
            rows,
        ),
    )
    # Gateway load decouples from consumer count ...
    assert cont["gateway_queries"] == N_ROUNDS
    assert poll["gateway_queries"] == N_ROUNDS * M_CONSUMERS
    # ... and pushed tuples arrive at wire latency, not poll staleness.
    assert cont["freshness_ms"] < poll["freshness_ms"] / 10
    # Every subscription saw every source's batch on every round.
    assert cont["deliveries"] == N_ROUNDS * M_CONSUMERS * 4  # 4 sources


def test_e19_hub_fanout_1k_subscriptions(report):
    """One publish through 1000 live subscriptions reaches every one."""
    n_subs = 1000
    clock = VirtualClock()
    network = Network(clock, seed=0)
    network.add_host("hub-host", site="bench")
    network.add_host("sink", site="bench")
    schema = standard_schema()
    policy = GatewayPolicy(stream_max_subscriptions=n_subs + 1)
    hub = StreamHub(
        network,
        "hub-host",
        plans=PlanCache(schema),
        schema=schema,
        policy=policy,
    )
    shapes = [
        "SELECT * FROM Processor",
        "SELECT HostName, LoadAverage1Min FROM Processor",
        "SELECT HostName FROM Processor WHERE LoadAverage1Min > 0.5",
        "SELECT HostName, CPUUtilization FROM Processor WHERE CPUIdle < 90",
        "SELECT COUNT(*) AS N FROM Processor",
        "SELECT HostName FROM Processor WHERE SiteName = 'bench'",
        "SELECT DISTINCT SiteName FROM Processor",
        "SELECT HostName, CPUCount FROM Processor WHERE CPUCount >= 1",
    ]
    for i in range(n_subs):
        response = network.request(
            "sink",
            hub.address,
            {
                "op": "register",
                "sql": shapes[i % len(shapes)],
                "host": "sink",
                "port": 8501,
                "lease": 1e9,
            },
        )
        assert response["ok"], response
    columns = [
        "HostName", "SiteName", "LoadAverage1Min",
        "CPUUtilization", "CPUIdle", "CPUCount",
    ]
    rows = [
        [f"n{i}", "bench", 0.25 + i, 40.0 + i, 55.0 - i, 4]
        for i in range(8)
    ]

    hub.publish("Processor", [("bench://src", columns, rows, clock.now())])
    clock.advance(1.0)  # drain the datagrams
    pushes = hub.stats["pushes"]
    report(
        f"E19: one 8-row publish fanned out to {n_subs} subscriptions "
        f"({len(shapes)} compiled shapes): {pushes} pushes"
    )
    assert pushes >= n_subs  # every live subscription got the round
