"""E18 — Goodput under overload: admission control and brownout.

The Zhang/Freschl/Schopf comparison shows the classic 2003-era failure
mode: offered load past saturation collapses *goodput* (answers that
arrive complete and inside their deadline), because queues fill with
requests that will miss their deadlines anyway and per-source breakers
start blaming healthy hosts for queueing delay.  The overload scenario
(the ``overload`` declaration in :mod:`repro.scenarios`) reproduces that sweep against one
gateway — a load spike at 1x/2x/4x the admission limit while every
monitored host degrades — and the claims to measure are:

* **goodput holds at 4x**: with admission control + adaptive concurrency
  + brownout serving enabled, every spike round keeps >= 80% of the
  offered members good, even at 4x the saturating load;
* **the unprotected gateway collapses**: same seed, same fault, shedding
  off — spike-round goodput falls below 70% and the breakers trip on
  healthy hosts;
* **priority is honoured**: not one CRITICAL query is shed anywhere in
  the sweep.

Goodput, sheds and trips are counts over virtual time, so each run
prints the same table.
"""

from repro.scenario import run
from repro.scenarios import OVERLOAD

SPIKE_START = 3
SPIKE_ROUNDS = 6
SATURATION = 8  # the admission controller's initial gateway-wide limit


def _spike_goodput(report) -> list[int]:
    return report.measurements["goodput"][SPIKE_START:SPIKE_START + SPIKE_ROUNDS]


def test_e18_goodput_under_overload(report):
    """Sweep offered spike load x {shedding on, off}; assert the shape."""
    from conftest import fmt_table

    rows = []
    runs: dict[tuple[int, bool], object] = {}
    for spike_load in (SATURATION, 2 * SATURATION, 4 * SATURATION):
        for shedding in (True, False):
            r = run(OVERLOAD, seed=0, shedding=shedding, spike_load=spike_load)
            runs[(spike_load, shedding)] = r
            m = r.measurements
            spike = _spike_goodput(r)
            frac = sum(spike) / (len(spike) * spike_load)
            rows.append(
                [
                    f"{spike_load // SATURATION}x",
                    "on" if shedding else "off",
                    f"{sum(spike)}/{len(spike) * spike_load}",
                    frac,
                    min(spike) / spike_load,
                    m["shed_counts"]["total"],
                    m["brownout_served"],
                    m["breakers"]["trips"],
                ]
            )
    report(
        "E18: spike-window goodput, load spike x degraded hosts (seed 0)",
        *fmt_table(
            [
                "load",
                "shed",
                "good/offered",
                "frac",
                "worst round",
                "sheds",
                "stale",
                "trips",
            ],
            rows,
        ),
        "goodput = complete answers inside the 2s deadline; "
        f"saturation = initial admission limit ({SATURATION})",
    )

    on4 = runs[(4 * SATURATION, True)]
    off4 = runs[(4 * SATURATION, False)]
    # The tentpole claim: >= 80% goodput in every spike round at 4x the
    # saturating load with the protection on...
    spike_load = on4.knobs["spike_load"]
    assert min(_spike_goodput(on4)) >= 0.8 * spike_load, _spike_goodput(on4)
    # ...vs collapse (and breaker pollution on healthy hosts) without.
    off_spike = _spike_goodput(off4)
    assert sum(off_spike) / len(off_spike) <= 0.7 * spike_load, off_spike
    assert off4.measurements["breakers"]["trips"] > 0
    assert on4.measurements["breakers"]["trips"] == 0
    # Priority honoured and invariants clean across the whole sweep.
    for r in runs.values():
        assert r.violations == {
            "critical_never_shed": [],
            "breaker_invariants": [],
            "trace_invariants": [],
        }


def test_e18_shed_fate_honours_priority(report):
    """Without stale coverage the gateway sheds instead of browning out —
    and the shed order is BATCH-heavy, CRITICAL-never."""
    from conftest import fmt_table

    m = run(OVERLOAD, seed=0, shedding=True, warmup_rounds=0).measurements
    counts = m["shed_counts"]
    report(
        "E18b: shed mix with no stale coverage (warmup_rounds=0, seed 0)",
        *fmt_table(
            ["class", "offered share", "shed"],
            [
                ["critical", "10%", counts["critical"]],
                ["interactive", "~57%", counts["interactive"]],
                ["batch", "~33%", counts["batch"]],
            ],
        ),
        f"total sheds {counts['total']}, doomed-on-dequeue {m['doomed']}",
    )
    assert counts["total"] > 0
    assert counts["critical"] == 0
    # BATCH is ~1/3 of offered load yet sheds at least its share.
    assert counts["batch"] > 0
    assert m["critical_offered"] > 0
