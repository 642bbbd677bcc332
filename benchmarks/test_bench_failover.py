"""E10 — Driver failure policies (paper §4, Figure 8).

Claim: "If the specified driver(s) are unable to connect to the data
source for a given request, the user can determine the action that
should follow: provide notification of a connection failure, or retry
the specified drivers for n iterations, or dynamically select a new
driver from the set of registered drivers."

Workload: hosts running BOTH an SNMP and an SCMS agent, with the SNMP
agent (the preferred/cached driver's agent) killed on a fraction of
hosts.  Each policy handles 60 queries.  Metrics: success ratio and mean
virtual latency.  Expected shape: REPORT fails on affected hosts fast;
RETRY fails too but burns time; TRY_NEXT/DYNAMIC restore success at
moderate latency cost.
"""

import pytest

from repro.agents.host_model import HostSpec, SimulatedHost
from repro.agents.scms import ScmsAgent
from repro.agents.snmp import SnmpAgent
from repro.core.gateway import Gateway
from repro.core.policy import FailureAction, GatewayPolicy
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from conftest import fmt_table

N_HOSTS = 6
N_DEAD = 3  # hosts whose SNMP agent is killed
N_QUERIES = 60
SQL = "SELECT HostName, LoadAverage1Min FROM Processor"


def build(action: FailureAction, retries: int = 1):
    clock = VirtualClock()
    network = Network(clock, seed=10)
    policy = GatewayPolicy(
        failure_action=action,
        failure_retries=retries,
        pool_enabled=False,        # every query re-selects: stress the policy
        query_cache_ttl=0.0,
        breaker_enabled=False,     # E10 measures the *within-query* policies;
                                   # the cross-query breaker is E13's subject
    )
    gw = Gateway(network, "e10-gw", site="e10", policy=policy, install_event_drivers=False)
    hosts = []
    snmp_agents = []
    for i in range(N_HOSTS):
        name = f"e10-n{i}"
        network.add_host(name, site="e10")
        host = SimulatedHost(HostSpec.generate(name, "e10", i), clock)
        hosts.append(host)
        snmp_agents.append(SnmpAgent(host, network))
        ScmsAgent(f"c{i}", [host], network, bind_host=name)
        gw.add_source(f"jdbc://{name}/perf")  # wildcard: policy chooses
    clock.advance(10.0)
    # Warm the last-driver cache onto SNMP for every host.
    for s in gw.sources():
        gw.query(str(s.url), SQL)
    # Kill SNMP on half the hosts: the cached driver reference goes stale.
    for agent in snmp_agents[:N_DEAD]:
        network.close(agent.address)
    return network, gw


def run(action: FailureAction, retries: int = 1):
    network, gw = build(action, retries)
    ok = 0
    t0 = network.clock.now()
    urls = [str(s.url) for s in gw.sources()]
    for i in range(N_QUERIES):
        result = gw.query(urls[i % len(urls)], SQL)
        ok += result.ok_sources
    elapsed = network.clock.now() - t0
    return {
        "policy": action.value + (f"(n={retries})" if action is FailureAction.RETRY else ""),
        "success": ok / N_QUERIES,
        "virt_ms": elapsed * 1000 / N_QUERIES,
        "failovers": gw.driver_manager.stats["failovers"],
    }


@pytest.mark.benchmark(group="E10-failover")
def test_e10_policy_comparison(benchmark, report):
    results = [
        run(FailureAction.REPORT),
        run(FailureAction.RETRY, retries=2),
        run(FailureAction.TRY_NEXT),
        run(FailureAction.DYNAMIC),
    ]
    rows = [
        [r["policy"], f"{r['success']:.2f}", r["virt_ms"], r["failovers"]]
        for r in results
    ]
    report(
        f"E10: failure policies, SNMP dead on {N_DEAD}/{N_HOSTS} hosts "
        f"(SCMS still alive everywhere)",
        *fmt_table(["policy", "success ratio", "virt ms/query", "failovers"], rows),
    )
    by = {r["policy"].split("(")[0]: r for r in results}
    # Shape: report/retry cannot reach the alternate agent; try_next and
    # dynamic recover full success; retry burns the most time failing.
    assert by["report"]["success"] == pytest.approx(0.5)
    assert by["retry"]["success"] == pytest.approx(0.5)
    assert by["try_next"]["success"] == 1.0
    assert by["dynamic"]["success"] == 1.0
    assert by["retry"]["virt_ms"] > by["report"]["virt_ms"]
    assert by["dynamic"]["virt_ms"] > by["report"]["virt_ms"] * 0.5

    benchmark(run, FailureAction.DYNAMIC)


@pytest.mark.benchmark(group="E10-failover")
def test_e10_flaky_network_retry_helps(benchmark, report):
    """RETRY is the right policy for *transient* loss (vs hard death):
    with 30% packet loss, more retries convert failures into successes."""
    rows = []
    for retries in (0, 2, 5):
        clock = VirtualClock()
        network = Network(clock, seed=11)
        policy = GatewayPolicy(
            failure_action=FailureAction.RETRY,
            failure_retries=retries,
            pool_enabled=False,
            query_cache_ttl=0.0,
            breaker_enabled=False,  # isolate the retry budget from the breaker
        )
        gw = Gateway(network, "gw", site="e10b", policy=policy, install_event_drivers=False)
        network.add_host("flaky", site="e10b")
        host = SimulatedHost(HostSpec.generate("flaky", "e10b", 1), clock)
        SnmpAgent(host, network)
        network.set_extra_loss("flaky", 0.3)
        ok = 0
        for _ in range(40):
            result = gw.query("jdbc:snmp://flaky/x", SQL)
            ok += result.ok_sources
        rows.append([retries, f"{ok / 40:.2f}"])
    report(
        "E10b: retry budget vs 30% transient loss",
        *fmt_table(["retries", "success ratio"], rows),
    )
    assert float(rows[2][1]) > float(rows[0][1])

    benchmark(run, FailureAction.TRY_NEXT)
