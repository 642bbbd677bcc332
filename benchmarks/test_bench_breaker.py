"""E13 — Circuit breakers vs dead data sources.

Claim (robustness extension): without per-source health tracking, every
query against a dead source pays the full native connect timeout — the
paper's failure policies are stateless across queries.  With breakers,
the cost is paid ``health.FAILURE_THRESHOLD`` times, after which the
source is quarantined and queries short-circuit (optionally serving
stale cached rows) until the backoff elapses.

Workload: N_DEAD of N_HOSTS SNMP agents are unreachable; every round
polls all sources in REALTIME.  Metrics: virtual ms/query and the
``connect_failures`` growth curve.  Expected shape: breaker-on is far
cheaper in steady state and its connect_failures curve plateaus.
"""

import pytest

from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from conftest import fmt_table, fresh_site

N_HOSTS = 6
N_DEAD = 2
N_ROUNDS = 15
SQL = "SELECT HostName FROM Host"


def run(breaker_enabled: bool):
    policy = GatewayPolicy(
        breaker_enabled=breaker_enabled,
        breaker_base_backoff=900.0,  # stays OPEN for the whole run
        breaker_max_backoff=1800.0,
        query_cache_ttl=0.0,  # disable fresh-cache hits: isolate the breaker
    )
    site = fresh_site(
        name="e13", n_hosts=N_HOSTS, agents=("snmp",), seed=5, policy=policy
    )
    for host in site.host_names()[:N_DEAD]:
        site.fail_host(host)
    gw = site.gateway
    failures_per_round = []
    t0 = site.clock.now()
    for _ in range(N_ROUNDS):
        gw.query(site.source_urls, SQL, mode=QueryMode.REALTIME)
        failures_per_round.append(gw.driver_manager.stats["connect_failures"])
    elapsed = site.clock.now() - t0
    return {
        "breaker": "on" if breaker_enabled else "off",
        "virt_ms": elapsed * 1000 / N_ROUNDS,
        "connect_failures": failures_per_round[-1],
        "curve": failures_per_round,
        "short_circuits": gw.request_manager.stats["breaker_short_circuits"],
    }


@pytest.mark.benchmark(group="E13-breaker")
def test_e13_breaker_on_vs_off(benchmark, report):
    off = run(False)
    on = run(True)
    rows = [
        [r["breaker"], r["virt_ms"], r["connect_failures"], r["short_circuits"]]
        for r in (off, on)
    ]
    report(
        f"E13: {N_DEAD}/{N_HOSTS} SNMP agents dead, "
        f"{N_ROUNDS} all-source REALTIME rounds",
        *fmt_table(
            ["breaker", "virt ms/round", "connect failures", "short circuits"],
            rows,
        ),
    )
    # Steady state: the breaker eliminates the dead sources' timeouts.
    assert on["virt_ms"] < off["virt_ms"] / 2
    # Failure growth plateaus once the breakers trip ...
    threshold = 3 * N_DEAD
    assert on["connect_failures"] == threshold
    assert all(f == threshold for f in on["curve"][3:])
    # ... while breaker-off keeps paying on every round.
    assert off["connect_failures"] == N_ROUNDS * N_DEAD
    assert on["short_circuits"] == (N_ROUNDS - 3) * N_DEAD

    benchmark(run, True)
