"""Seeded chaos soak: replay identity and structural invariants.

Runs the ``chaos``, ``overload`` and ``stream`` declarations of
``repro.scenarios`` through the one runner and asserts the properties
the chaos plane promises (what every scenario owes the runner itself is
in ``test_scenario.py``):

* **replay identity** — the same seed and knobs reproduce byte-identical
  rows, statuses and latencies (the SHA-256 signature matches), with
  fan-out on *or* off;
* **breaker consistency** — every breaker entry satisfies its structural
  invariants once the dust settles (state valid, counters coherent, OPEN
  implies a re-probe instant).

Kept small (few rounds) so the soak stays cheap in CI; the ``chaos-smoke``
job runs the bigger CLI scenario on two fixed seeds.
"""

import pytest

from repro.scenario import run
from repro.scenarios import CHAOS, OVERLOAD, STREAM

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
    return run(CHAOS, **kwargs)


def assert_invariants(report):
    assert report.violations["breaker_invariants"] == []
    latencies = report.measurements["latencies"]
    assert len(latencies) == report.knobs["rounds"]
    assert all(lat >= 0 for lat in latencies)
    assert report.signature


@pytest.mark.parametrize("fanout", [True, False])
def test_replay_identity_same_seed(fanout):
    first = soak(seed=5, fanout=fanout)
    second = soak(seed=5, fanout=fanout)
    assert first.signature == second.signature
    for key in ("latencies", "faults", "requests"):
        assert first.measurements[key] == second.measurements[key]
    assert_invariants(first)
    assert_invariants(second)


@pytest.mark.parametrize("seed", [1, 2])
def test_soak_invariants_hold(seed):
    report = soak(seed=seed, rounds=10, warmup_rounds=5)
    assert_invariants(report)
    # The scenario genuinely exercised the fault plane.
    faults = report.measurements["faults"]
    assert faults["spikes_injected"] > 0
    assert faults["flaps"] > 0
    assert faults["partitions"] == faults["heals"] == 1


def test_hedging_machinery_engages():
    report = soak(seed=3, rounds=12, warmup_rounds=8, hedging=True)
    assert report.measurements["dispatch"]["hedges_fired"] > 0
    # Every fired hedge has exactly one abandoned loser.
    assert report.measurements["dispatch"]["hedges_cancelled"] == report.measurements["dispatch"]["hedges_fired"]
    assert_invariants(report)


def test_hedging_off_fires_no_hedges():
    report = soak(seed=3, hedging=False)
    assert report.measurements["dispatch"]["hedges_fired"] == 0
    assert_invariants(report)


def test_report_rendering_and_dict():
    report = soak(seed=4)
    d = report.as_dict()
    assert d["seed"] == 4
    assert d["measurements"]["p99"] >= d["measurements"]["p50"] >= 0
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
    return run(OVERLOAD, seed=0, shedding=True)


@pytest.fixture(scope="module")
def overload_off():
    return run(OVERLOAD, seed=0, shedding=False)


def spike_slice(report):
    return report.measurements["goodput"][SPIKE_START:SPIKE_START + SPIKE_ROUNDS]


def assert_overload_invariants(report):
    m = report.measurements
    assert report.violations["breaker_invariants"] == []
    assert report.violations["trace_invariants"] == []
    assert m["traces_checked"] > 0
    assert report.signature
    assert len(m["goodput"]) == len(m["offered"]) == report.knobs["rounds"]


def test_overload_replay_identity(overload_on):
    again = run(OVERLOAD, seed=0, shedding=True)
    assert again.signature == overload_on.signature
    for key in ("goodput", "shed_counts", "pressure_transitions"):
        assert again.measurements[key] == overload_on.measurements[key]


def test_overload_invariants_both_arms(overload_on, overload_off):
    assert_overload_invariants(overload_on)
    assert_overload_invariants(overload_off)


def test_critical_never_shed(overload_on):
    assert overload_on.measurements["critical_offered"] > 0
    assert overload_on.measurements["critical_shed"] == 0
    assert overload_on.violations["critical_never_shed"] == []


def test_shedding_preserves_spike_goodput(overload_on, overload_off):
    """The tentpole claim: at 4x saturating load, shedding holds >= 80%
    goodput per spike round while the unprotected gateway collapses."""
    spike = overload_on.knobs["spike_load"]
    on_spike = spike_slice(overload_on)
    off_spike = spike_slice(overload_off)
    assert min(on_spike) >= 0.8 * spike, on_spike
    assert sum(off_spike) / len(off_spike) <= 0.7 * spike, off_spike
    assert overload_on.measurements["good_total"] > overload_off.measurements["good_total"]


def test_unprotected_gateway_pollutes_breakers(overload_on, overload_off):
    """Without admission control, queueing blows deadlines and the
    breakers blame healthy hosts; with it, they stay quiet."""
    assert overload_off.measurements["breakers"]["trips"] > 0
    assert overload_on.measurements["breakers"]["trips"] == 0


def test_brownout_serves_stale_under_pressure(overload_on):
    # Warmed caches let brownout absorb the spike as degraded answers.
    m = overload_on.measurements
    assert m["brownout_served"] > 0
    assert m["pressure_transitions"] > 0
    assert m["final_state"] == "normal"  # recovered after the spike


def test_shed_heavy_without_stale_coverage():
    """warmup_rounds=0 removes brownout's stale coverage: pressured
    sheddable queries are refused instead, CRITICAL still never."""
    report = run(OVERLOAD, seed=0, shedding=True, warmup_rounds=0)
    assert report.measurements["shed_counts"]["total"] > 0
    assert report.measurements["shed_counts"]["batch"] > 0
    assert report.measurements["critical_shed"] == 0
    assert_overload_invariants(report)


def test_sheds_are_never_breaker_failures_e2e():
    """Pure offered-load overload (no fault): sheds happen, and not one
    of them registers as a breaker failure anywhere."""
    report = run(
        OVERLOAD, seed=0, shedding=True, slow_host=False, warmup_rounds=0
    )
    assert report.measurements["shed_counts"]["total"] > 0
    assert report.measurements["breakers"]["trips"] == 0
    assert report.measurements["breakers"]["open"] == 0
    assert_overload_invariants(report)


def test_race_detector_clean_and_non_perturbing(overload_on):
    """The overload machinery under the PR 7 race discipline: zero
    findings, and watching does not change the run."""
    watched = run(OVERLOAD, seed=0, shedding=True, race_detect=True)
    assert watched.race_findings == [], watched.race_findings
    assert watched.race_accesses > 0
    assert watched.signature == overload_on.signature
    assert watched.violations["replay_identity"] == []


# ----------------------------------------------------------------------
# Streaming soak (continuous SQL subscriptions under the fault plane)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_soak():
    return run(STREAM, seed=3, rounds=10)


def assert_stream_invariants(report):
    assert report.violations["trace_invariants"] == []
    assert report.violations["no_stuck_buffers"] == []
    assert report.measurements["delivered_batches"] > 0
    assert report.measurements["delivered_rows"] > 0
    assert report.signature


def test_stream_replay_identity_same_seed(stream_soak):
    """Same seed, same knobs: every delivered batch is byte-identical."""
    again = run(STREAM, seed=3, rounds=10)
    assert stream_soak.signature == again.signature
    for key in ("delivered_batches", "reregisters"):
        assert stream_soak.measurements[key] == again.measurements[key]
    assert_stream_invariants(stream_soak)
    assert_stream_invariants(again)


def test_stream_replay_batches_precede_live(stream_soak):
    """latest/history registrations replayed state on attach."""
    assert stream_soak.measurements["replay_batches"] > 0
    assert stream_soak.measurements["hub"]["replayed"] > 0


def test_stream_lease_recovery_after_partition(stream_soak):
    """The consumer partition outlives the lease: subscriptions expire
    at the hub and the consumer must win them back by re-registering."""
    m = stream_soak.measurements
    assert m["hub"]["expired"] > 0
    assert m["reregisters"] > 0
    assert stream_soak.violations["reregistered_after_partition"] == []
    assert m["delivered_batches"] > m["replay_batches"]


def test_stream_no_partition_keeps_every_lease():
    report = run(STREAM, seed=3, rounds=8, partition=False)
    assert report.measurements["reregisters"] == 0
    assert report.measurements["renewals"] > 0
    assert_stream_invariants(report)


def test_stream_derived_windows_roll(stream_soak):
    """The republisher aggregated upstream pushes into derived batches."""
    assert stream_soak.measurements["derived_windows"] > 0
    assert stream_soak.measurements["derived_samples"] > 0


def test_stream_race_detector_clean_and_non_perturbing(stream_soak):
    """Hub state under the PR 7 lane-race discipline: zero findings,
    and watching does not change a single delivered byte."""
    watched = run(STREAM, seed=3, rounds=10, race_detect=True)
    assert watched.race_findings == [], watched.race_findings
    assert watched.race_accesses > 0
    assert watched.signature == stream_soak.signature
    assert watched.violations["replay_identity"] == []


def test_stream_report_rendering_and_dict(stream_soak):
    text = stream_soak.format()
    assert "replay signature" in text
    assert "subscription(s)" in text
    payload = stream_soak.as_dict()
    for key in ("seed", "signature"):
        assert key in payload
    for key in ("delivered_batches", "reregisters"):
        assert key in payload["measurements"]
    assert "no_stuck_buffers" in payload["violations"]
    hub = payload["measurements"]["hub"]
    assert 0 < hub["frames"] < hub["pushes"]
    assert f"{hub['pushes']} pushes in {hub['frames']} frames" in text
