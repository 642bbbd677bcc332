"""Seeded chaos soak: replay identity and structural invariants.

Runs the standard fault-plane scenario (``repro.chaos.run_chaos``) and
asserts the properties the chaos plane promises:

* **replay identity** — the same seed and knobs reproduce byte-identical
  rows, statuses and latencies (the SHA-256 signature matches), with
  fan-out on *or* off;
* **no stuck futures** — every async RPC's deadline guard fired or was
  cancelled, so ``Network.pending_futures()`` drains to zero;
* **breaker consistency** — every breaker entry satisfies its structural
  invariants once the dust settles (state valid, counters coherent, OPEN
  implies a re-probe instant).

Kept small (few rounds) so the soak stays cheap in CI; the ``chaos-smoke``
job runs the bigger CLI scenario on two fixed seeds.
"""

import pytest

from repro.chaos import run_chaos, run_overload, run_stream

ROUNDS = 8
WARMUP = 4
PERIOD = 10.0


def soak(seed, **overrides):
    kwargs = {
        "seed": seed,
        "rounds": ROUNDS,
        "warmup_rounds": WARMUP,
        "period": PERIOD,
    }
    kwargs.update(overrides)
    return run_chaos(**kwargs)


def assert_invariants(report):
    assert report.pending_futures == 0, "stuck NetFutures after drain"
    assert report.breaker_violations == [], report.breaker_violations
    assert len(report.latencies) == report.rounds
    assert all(lat >= 0 for lat in report.latencies)
    assert report.signature


@pytest.mark.parametrize("fanout", [True, False])
def test_replay_identity_same_seed(fanout):
    first = soak(seed=5, fanout=fanout)
    second = soak(seed=5, fanout=fanout)
    assert first.signature == second.signature
    assert first.latencies == second.latencies
    assert first.faults == second.faults
    assert first.requests == second.requests
    assert_invariants(first)
    assert_invariants(second)


def test_different_seeds_produce_different_runs():
    assert soak(seed=5).signature != soak(seed=6).signature


@pytest.mark.parametrize("seed", [1, 2])
def test_soak_invariants_hold(seed):
    report = soak(seed=seed, rounds=10, warmup_rounds=5)
    assert_invariants(report)
    # The scenario genuinely exercised the fault plane.
    faults = report.faults
    assert faults["spikes_injected"] > 0
    assert faults["flaps"] > 0
    assert faults["partitions"] == faults["heals"] == 1


def test_hedging_machinery_engages():
    report = soak(seed=3, rounds=12, warmup_rounds=8, hedging=True)
    assert report.dispatch["hedges_fired"] > 0
    # Every fired hedge has exactly one abandoned loser.
    assert report.dispatch["hedges_cancelled"] == report.dispatch["hedges_fired"]
    assert_invariants(report)


def test_hedging_off_fires_no_hedges():
    report = soak(seed=3, hedging=False)
    assert report.dispatch["hedges_fired"] == 0
    assert_invariants(report)


def test_report_rendering_and_dict():
    report = soak(seed=4)
    d = report.as_dict()
    assert d["seed"] == 4
    assert d["p99"] >= d["p50"] >= 0
    text = report.format()
    assert "replay signature" in text
    assert "invariants" in text
    assert f"seed={report.seed}" in text


# ---------------------------------------------------------------------------
# Overload scenario (PR 9): load spike x slow hosts, shedding on vs off.
# The two arms are expensive, so they run once per module and every
# assertion shares them.
# ---------------------------------------------------------------------------

SPIKE_START = 3
SPIKE_ROUNDS = 6


@pytest.fixture(scope="module")
def overload_on():
    return run_overload(seed=0, shedding=True)


@pytest.fixture(scope="module")
def overload_off():
    return run_overload(seed=0, shedding=False)


def spike_slice(report):
    return report.goodput[SPIKE_START:SPIKE_START + SPIKE_ROUNDS]


def assert_overload_invariants(report):
    assert report.pending_futures == 0, "stuck NetFutures after drain"
    assert report.breaker_violations == [], report.breaker_violations
    assert report.trace_violations == [], report.trace_violations
    assert report.traces_checked > 0
    assert report.signature
    assert len(report.goodput) == len(report.offered) == report.rounds


def test_overload_replay_identity(overload_on):
    again = run_overload(seed=0, shedding=True)
    assert again.signature == overload_on.signature
    assert again.goodput == overload_on.goodput
    assert again.shed_counts == overload_on.shed_counts
    assert again.pressure_transitions == overload_on.pressure_transitions


def test_overload_invariants_both_arms(overload_on, overload_off):
    assert_overload_invariants(overload_on)
    assert_overload_invariants(overload_off)


def test_critical_never_shed(overload_on):
    assert overload_on.critical_offered > 0
    assert overload_on.critical_shed == 0


def test_shedding_preserves_spike_goodput(overload_on, overload_off):
    """The tentpole claim: at 4x saturating load, shedding holds >= 80%
    goodput per spike round while the unprotected gateway collapses."""
    spike = overload_on.spike_load
    on_spike = spike_slice(overload_on)
    off_spike = spike_slice(overload_off)
    assert min(on_spike) >= 0.8 * spike, on_spike
    assert sum(off_spike) / len(off_spike) <= 0.7 * spike, off_spike
    assert overload_on.good_total > overload_off.good_total


def test_unprotected_gateway_pollutes_breakers(overload_on, overload_off):
    """Without admission control, queueing blows deadlines and the
    breakers blame healthy hosts; with it, they stay quiet."""
    assert overload_off.breakers["trips"] > 0
    assert overload_on.breakers["trips"] == 0


def test_brownout_serves_stale_under_pressure(overload_on):
    # Warmed caches let brownout absorb the spike as degraded answers.
    assert overload_on.brownout_served > 0
    assert overload_on.pressure_transitions > 0
    assert overload_on.final_state == "normal"  # recovered after the spike


def test_shed_heavy_without_stale_coverage():
    """warmup_rounds=0 removes brownout's stale coverage: pressured
    sheddable queries are refused instead, CRITICAL still never."""
    report = run_overload(seed=0, shedding=True, warmup_rounds=0)
    assert report.shed_counts["total"] > 0
    assert report.shed_counts["batch"] > 0
    assert report.critical_shed == 0
    assert_overload_invariants(report)


def test_sheds_are_never_breaker_failures_e2e():
    """Pure offered-load overload (no fault): sheds happen, and not one
    of them registers as a breaker failure anywhere."""
    report = run_overload(
        seed=0, shedding=True, slow_host=False, warmup_rounds=0
    )
    assert report.shed_counts["total"] > 0
    assert report.breakers["trips"] == 0
    assert report.breakers["open"] == 0
    assert_overload_invariants(report)


def test_race_detector_clean_and_non_perturbing(overload_on):
    """The overload machinery under the PR 7 race discipline: zero
    findings, and watching does not change the run."""
    watched = run_overload(seed=0, shedding=True, race_detect=True)
    assert watched.race_findings == [], watched.race_findings
    assert watched.race_accesses > 0
    assert watched.signature == overload_on.signature


# ----------------------------------------------------------------------
# Streaming soak (continuous SQL subscriptions under the fault plane)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_soak():
    return run_stream(seed=3, rounds=10)


def assert_stream_invariants(report):
    assert report.pending_futures == 0, "stuck NetFutures after drain"
    assert report.trace_violations == [], report.trace_violations
    assert report.stuck_buffers == [], report.stuck_buffers
    assert report.delivered_batches > 0
    assert report.delivered_rows > 0
    assert report.signature


def test_stream_replay_identity_same_seed(stream_soak):
    """Same seed, same knobs: every delivered batch is byte-identical."""
    again = run_stream(seed=3, rounds=10)
    assert stream_soak.signature == again.signature
    assert stream_soak.delivered_batches == again.delivered_batches
    assert stream_soak.reregisters == again.reregisters
    assert_stream_invariants(stream_soak)
    assert_stream_invariants(again)


def test_stream_different_seeds_produce_different_runs():
    assert (
        run_stream(seed=7, rounds=6).signature
        != run_stream(seed=8, rounds=6).signature
    )


def test_stream_replay_batches_precede_live(stream_soak):
    """latest/history registrations replayed state on attach."""
    assert stream_soak.replay_batches > 0
    assert stream_soak.replayed > 0


def test_stream_lease_recovery_after_partition(stream_soak):
    """The consumer partition outlives the lease: subscriptions expire
    at the hub and the consumer must win them back by re-registering."""
    assert stream_soak.expired > 0
    assert stream_soak.reregisters > 0
    assert stream_soak.delivered_batches > stream_soak.replay_batches


def test_stream_no_partition_keeps_every_lease():
    report = run_stream(seed=3, rounds=8, partition=False)
    assert report.reregisters == 0
    assert report.renewals > 0
    assert_stream_invariants(report)


def test_stream_derived_windows_roll(stream_soak):
    """The republisher aggregated upstream pushes into derived batches."""
    assert stream_soak.derived_windows > 0
    assert stream_soak.derived_samples > 0


def test_stream_race_detector_clean_and_non_perturbing(stream_soak):
    """Hub state under the PR 7 lane-race discipline: zero findings,
    and watching does not change a single delivered byte."""
    watched = run_stream(seed=3, rounds=10, race_detect=True)
    assert watched.race_findings == [], watched.race_findings
    assert watched.race_accesses > 0
    assert watched.signature == stream_soak.signature


def test_stream_report_rendering_and_dict(stream_soak):
    text = stream_soak.format()
    assert "replay signature" in text
    assert "subscription(s)" in text
    payload = stream_soak.as_dict()
    for key in (
        "seed",
        "signature",
        "delivered_batches",
        "reregisters",
        "stuck_buffers",
        "pending_futures",
    ):
        assert key in payload
    assert 0 < payload["frames"] < payload["pushes"]
    assert f"{payload['pushes']} pushes in {payload['frames']} frames" in text
