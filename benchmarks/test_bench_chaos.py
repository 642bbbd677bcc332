"""E15 — Tail latency under chaos: deadlines and hedged requests.

The chaos plane (repro.simnet.faults) injects latency spikes, slowdowns,
flapping hosts, flaky ports, corruption and a timed partition while the
gateway polls.  The claims to measure:

* **deadlines cap the tail**: with an end-to-end deadline every round
  costs at most the deadline — the p99 under the standard fault scenario
  drops from the native-timeout plateau to the deadline itself, because
  every hop (dispatch, connect probe, native agent round-trip) is clamped
  to the remaining budget;
* **hedging shaves the spike tail**: against a spike-dominated scenario
  a hedged second request, fired after the p95 of observed latency,
  rescues rounds whose primary drew a spike — cutting the mean round
  latency with a bounded extra-request overhead.

Every latency here is virtual time, so each run prints the same table.
"""

from repro.scenario import run
from repro.scenarios import CHAOS
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.simnet.faults import FaultPlane
from conftest import fresh_site, fmt_table

SQL = "SELECT * FROM Processor"


def test_e15_deadlines_and_hedging_cap_p99(report):
    """Hedging + a 2.5s deadline cut p99 under the standard fault mix."""
    baseline_run = run(
        CHAOS, seed=0, rounds=30, warmup_rounds=10, hedging=False, deadline=0.0
    )
    treated_run = run(
        CHAOS, seed=0, rounds=30, warmup_rounds=10, hedging=True, deadline=2.5
    )
    baseline, treated = baseline_run.measurements, treated_run.measurements
    rounds, deadline = baseline_run.knobs["rounds"], treated_run.knobs["deadline"]
    report(
        "E15: p99 under the standard chaos scenario (30 rounds, seed 0)",
        *fmt_table(
            ["config", "p50 s", "p95 s", "p99 s", "max s", "mean s"],
            [
                [
                    "baseline",
                    baseline["p50"],
                    baseline["p95"],
                    baseline["p99"],
                    baseline["max"],
                    sum(baseline["latencies"]) / rounds,
                ],
                [
                    "hedge+deadline",
                    treated["p50"],
                    treated["p95"],
                    treated["p99"],
                    treated["max"],
                    sum(treated["latencies"]) / rounds,
                ],
            ],
        ),
        f"p99 cut: {baseline['p99']:.3f}s -> {treated['p99']:.3f}s "
        f"({1 - treated['p99'] / baseline['p99']:.0%}); "
        f"hedges fired {treated['dispatch']['hedges_fired']}, "
        f"deadline-exceeded rounds "
        f"{treated['requests']['deadline_exceeded']}",
    )
    # The acceptance shape: the deadline genuinely caps the tail (every
    # hop honours the remaining budget, so no round can cost more), and
    # the cap sits well below the native-timeout plateau of the baseline.
    assert treated["max"] <= deadline + 1e-9
    assert treated["p99"] <= baseline["p99"] * 0.6
    assert treated["dispatch"]["hedges_fired"] > 0
    # Structural invariants held for both runs.
    for arm in (baseline_run, treated_run):
        assert arm.violations["breaker_invariants"] == []


def _spike_run(seed: int, *, hedging: bool, rounds: int = 60):
    """Mean round latency against a spike-dominated fault plane."""
    site = fresh_site(
        name="e15h",
        n_hosts=4,
        agents=("snmp",),
        seed=seed,
        policy=GatewayPolicy(fanout_enabled=True, hedge_enabled=hedging),
    )
    gw = site.gateway
    urls = list(site.source_urls)
    for _ in range(10):  # build the hedger's latency window
        gw.query(urls, SQL, mode=QueryMode.REALTIME)
        site.clock.advance(30.0)
    plane = FaultPlane(site.network, seed=seed)
    for host in site.host_names():
        plane.latency_spikes(host, prob=0.05, extra=2.0)
    latencies = []
    for _ in range(rounds):
        latencies.append(gw.query(urls, SQL, mode=QueryMode.REALTIME).elapsed)
        site.clock.advance(30.0)
    return latencies, gw.dispatcher.stats


def test_e15_hedging_rescues_spiked_rounds(report):
    """Hedged requests cut the mean latency of a spike-dominated workload."""
    rows = []
    means = {True: [], False: []}
    fired = won = 0
    for seed in (0, 1, 2):
        lat_h, stats_h = _spike_run(seed, hedging=True)
        lat_u, _ = _spike_run(seed, hedging=False)
        mean_h = sum(lat_h) / len(lat_h)
        mean_u = sum(lat_u) / len(lat_u)
        means[True].append(mean_h)
        means[False].append(mean_u)
        fired += stats_h.hedges_fired
        won += stats_h.hedges_won
        rows.append(
            [f"seed {seed}", mean_u, mean_h, mean_u / mean_h, stats_h.hedges_fired]
        )
    report(
        "E15b: mean latency, spike-dominated scenario (60 rounds/seed)",
        *fmt_table(
            ["seed", "unhedged s", "hedged s", "speedup", "hedges"], rows
        ),
        f"hedges fired {fired}, won {won} across 3 seeds",
    )
    # Hedging must engage and win, and beat the unhedged mean per seed.
    assert fired > 0 and won > 0
    for mean_h, mean_u in zip(means[True], means[False]):
        assert mean_h < mean_u
