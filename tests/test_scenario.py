"""The scenario runner, table-driven over every declaration.

What every scenario in ``repro.scenarios.SCENARIOS`` owes the one
lifecycle in ``repro.scenario``: a small run is green and serialisable,
the same seed replays byte-identically, another seed does not, the dual
run finds no lane race and no divergence, and the generated CLI command
exits 0 — or 2, on one line, for knobs the runner refuses.
Scenario-specific behaviour (hedging engages, goodput holds, leases
recover, the acked prefix survives) stays in ``test_chaos_soak.py`` and
``test_crashtest.py``; the comparator's bisection cases in
``test_racecheck.py``.

Replay signatures are pinned to ``golden_scenario_signatures.json``,
which was produced by running this module as a script against the
*parent* commit, before its five harnesses became declarations::

    PYTHONPATH=<parent>/src python tests/test_scenario.py \\
        > tests/golden_scenario_signatures.json

Run the same way on the current tree it prints the same file (CI's smoke
jobs ``diff`` the two); tier-1 asserts the cheap subset in ``TIER1``.
The five ``stream`` signatures were re-recorded from the current tree
when history reads moved to the time-ordered index: each seed's two
post-partition ``history`` re-registrations now replay the one row
recorded at their watermark instant, where the bisect over arrival order
returned none (80 -> 82 rows replayed per seed, nothing else moves).
``stream`` seeds 3 and 4 were re-recorded again when consumer-side
registrations became (hub, id): the scenario's consumer holds id 1 at
both the gateway's hub and the republisher's, and derived batches used
to advance the gateway registration's watermark too, so its
post-partition re-register request carried another float (a few bytes
of virtual transfer time; every counter and measurement is equal).
The ``chaos`` (2), ``overload`` (5) and ``stream`` (5) signatures were
re-recorded once more when every scenario moved under
``repro.core.policy.production()`` (durable history, streaming,
admission, adaptive concurrency, hedging and security all on, plus each
scenario's declared overrides): hedges and admission queueing shift
request instants.  The 20 ``crashtest`` signatures did not move — they
sign the acked and recovered rows, which the extra planes do not touch.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_scenario_signatures.json")

#: What ``python -m repro <scenario> --seed N`` passes for the site: the
#: CLI's own ``--hosts`` / ``--agents`` defaults, not the declarations'.
CLI_SITE = dict(hosts=4, agents=("snmp", "ganglia"))
#: scenario -> (seeds, extra knobs): the CI smoke jobs' seed matrices.
MATRIX = {
    "chaos": (range(2), dict(rounds=15)),
    "overload": (range(5), {}),
    "stream": (range(5), {}),
    "crashtest": (range(20), {}),
}
TIER1 = {"chaos": (0, 1), "overload": (0,), "stream": range(5), "crashtest": range(3)}


def signature(name: str, seed: int, **knobs) -> str:
    try:
        from repro import scenario, scenarios
    except ImportError:
        # The parent commit: one run_<name> function per harness, two of
        # them sharing a module.
        module = {"overload": "chaos", "stream": "chaos"}.get(name, name)
        harness = getattr(importlib.import_module(f"repro.{module}"), f"run_{name}")
        return harness(seed=seed, **knobs).signature
    return scenario.run(getattr(scenarios, name.upper()), seed=seed, **knobs).signature


def golden() -> dict[str, dict[str, str]]:
    return {
        name: {str(s): signature(name, s, **CLI_SITE, **knobs)[:16] for s in seeds}
        for name, (seeds, knobs) in MATRIX.items()
    }


if __name__ == "__main__":
    # Exit before the imports below: the parent commit has no runner yet.
    print(json.dumps(golden(), indent=1, sort_keys=True))
    raise SystemExit(0)


from repro import scenario  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.core.policy import GatewayPolicy  # noqa: E402
from repro.scenario import ScenarioError, ScenarioReport, run  # noqa: E402
from repro.scenarios import CHAOS, SCENARIOS, critical_never_shed  # noqa: E402

#: Small enough to run a dozen times per scenario, big enough to be green
#: (the stream partition needs rounds to lapse a lease and re-register).
SMALL = {
    "chaos": dict(rounds=6, warmup_rounds=5),
    "overload": dict(rounds=6, spike_rounds=2, warmup_rounds=2, spike_load=16),
    "stream": dict(rounds=8),
    "crashtest": dict(cycles=2, hosts=2),
    "racecheck": dict(rounds=6, warmup_rounds=5),
}
SMALL_ARGV = {
    "chaos": ["--rounds", "5"],
    "overload": ["--rounds", "6", "--spike-load", "16", "--warmup-rounds", "2"],
    "stream": ["--rounds", "8"],
    "crashtest": ["--cycles", "2", "--hosts", "2"],
    "racecheck": ["--rounds", "5"],
}

every_scenario = pytest.mark.parametrize("sc", SCENARIOS, ids=lambda sc: sc.name)

_REPORTS: dict[str, ScenarioReport] = {}


def small(sc) -> ScenarioReport:
    """Seed 0 at the small size, run once per scenario per session."""
    if sc.name not in _REPORTS:
        _REPORTS[sc.name] = run(sc, seed=0, **SMALL[sc.name])
    return _REPORTS[sc.name]


@every_scenario
def test_small_run_is_ok_and_serialisable(sc):
    report = small(sc)
    assert report.ok, report.violations
    assert report.scenario == sc.name and report.seed == 0
    assert set(report.violations) >= {c.__name__ for c in sc.checkers}
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["ok"] is True
    assert payload["signature"] == report.signature
    assert payload["knobs"]["period"] == sc.knobs["period"]
    lines = report.format().splitlines()
    assert lines[0].startswith(f"{sc.name.capitalize()}: seed=0, ")
    assert "invariants: OK" in lines[-3]
    assert lines[-1] == f"  replay signature: {report.signature[:16]}…"


@every_scenario
def test_same_seed_replays_byte_identically(sc):
    again = run(sc, seed=0, **SMALL[sc.name])
    assert again.signature == small(sc).signature
    assert again.measurements == small(sc).measurements
    assert again.elapsed_virtual == small(sc).elapsed_virtual


@every_scenario
def test_different_seed_different_signature(sc):
    assert run(sc, seed=1, **SMALL[sc.name]).signature != small(sc).signature


@every_scenario
def test_dual_run_is_clean_and_transparent(sc):
    """``race_detect`` means the same everywhere: detector on, then off,
    three evidence streams held equal — and watching changes nothing."""
    watched = run(sc, seed=0, race_detect=True, **SMALL[sc.name])
    assert watched.race_findings == []
    assert watched.violations["replay_identity"] == []
    assert watched.race_accesses >= 1
    assert watched.compared["steps"] >= 1 and watched.compared["traces"] >= 1
    assert watched.ok
    assert "replay identity: OK" in watched.format()
    if not sc.race_detect:
        assert watched.signature == small(sc).signature
        assert small(sc).race_accesses == 0 and small(sc).compared == {}


@every_scenario
def test_cli_exits_zero(sc, capsys):
    assert main([sc.name, *SMALL_ARGV[sc.name]]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"{sc.name.capitalize()}: seed=0, ")
    assert "replay signature:" in out
    assert err == ""


@every_scenario
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rounds", "0"], "rounds must be >= 1"),
        (["--agents", "bogus"], "unknown agent kind(s): ['bogus']"),
        (["--period", "0"], "period must be > 0"),
        (["--seeds", "0,x"], "--seeds"),
    ],
)
def test_cli_refuses_bad_knobs_with_exit_2(sc, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sc.name, *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err.splitlines()[-1]
    assert "Traceback" not in err


def test_cli_shared_seed_list_runs_each_seed(capsys):
    assert main(["crashtest", "--seeds", "0,1", "--cycles", "1", "--hosts", "2"]) == 0
    out = capsys.readouterr().out
    assert "Crashtest: seed=0" in out and "Crashtest: seed=1" in out


@every_scenario
def test_cli_scenarios_do_not_offer_the_ignored_warmup_seconds(sc):
    with pytest.raises(SystemExit) as exc:
        main([sc.name, "--warmup", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "knobs, message",
    [
        (dict(rounds=0), "rounds must be >= 1"),
        (dict(hosts=0), "hosts must be >= 1"),
        (dict(period=-1.0), "period must be > 0"),
        (dict(agents=("snmp", "carrier-pigeon")), "carrier-pigeon"),
        (dict(agents=()), "agents must name kinds from snmp"),
        (dict(sql="SELECT 1"), "unknown knob(s): ['sql']"),
    ],
)
def test_runner_refuses_with_one_typed_error(knobs, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run(CHAOS, **knobs)


@pytest.mark.parametrize(
    "name, knob",
    [("crashtest", "cycles"), ("stream", "subscriptions"), ("overload", "spike_load")],
)
def test_runner_refuses_zero_counts(name, knob):
    (sc,) = (s for s in SCENARIOS if s.name == name)
    with pytest.raises(ScenarioError, match=f"{knob} must be >= 1"):
        run(sc, **{knob: 0})


def test_cli_prints_every_violation_of_every_checker(monkeypatch, capsys):
    """One exit path: a race finding *and* a breaker violation *and* a
    stuck buffer all reach stderr (the old chaos handler returned at
    the first category)."""
    red = ScenarioReport(
        "chaos",
        0,
        dict(CHAOS.knobs),
        race_findings=["GRM551 cache[k]: unordered write/write"],
        violations={
            "breaker_invariants": ["snmp://h0: OPEN with no open_until instant"],
            "trace_invariants": [],
            "no_stuck_buffers": ["gw: cq3 live with 2 buffered batch(es)"],
        },
        template=("red",),
    )
    assert not red.ok
    monkeypatch.setattr(scenario, "run", lambda sc, **kw: red)
    assert main(["chaos"]) == 1
    out, err = capsys.readouterr()
    assert "VIOLATIONS (2):" in out
    assert err.splitlines() == [
        "# lane race: GRM551 cache[k]: unordered write/write",
        "# breaker_invariants violated: snmp://h0: OPEN with no open_until instant",
        "# no_stuck_buffers violated: gw: cq3 live with 2 buffered batch(es)",
    ]


# ----------------------------------------------------------------------
# Replay signatures: byte-equal to the parent commit's harnesses
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, seed", [(name, seed) for name, seeds in TIER1.items() for seed in seeds]
)
def test_signature_equals_the_parents(name, seed):
    want = json.loads(GOLDEN_PATH.read_text())[name][str(seed)]
    assert signature(name, seed, **CLI_SITE, **MATRIX[name][1])[:16] == want


def test_golden_covers_the_ci_matrix():
    have = json.loads(GOLDEN_PATH.read_text())
    assert {n: sorted(map(int, have[n])) for n in have} == {
        n: list(seeds) for n, (seeds, _) in MATRIX.items()
    }


# ----------------------------------------------------------------------
# The 30-line claim: a sixth scenario is a declaration, not a clone
# ----------------------------------------------------------------------
STOCK = (*CHAOS.checkers, scenario.no_stuck_buffers, critical_never_shed)
#: CHAOS is all-planes by itself (``production()``); the planes-off
#: configuration — the paper's gateway — stays checked beside it.
PAPER = dataclasses.replace(
    CHAOS, name="paper", policy=lambda k: GatewayPolicy(), checkers=STOCK
)


@pytest.mark.parametrize("seed", range(5))
def test_all_planes_on_passes_every_checker_and_the_dual_run(seed):
    all_planes = dataclasses.replace(CHAOS, checkers=STOCK)
    report = run(all_planes, seed=seed, race_detect=True, rounds=15)
    assert report.ok, (report.violations, report.race_findings)
    assert len(report.violations) == 5  # four stock checkers + replay_identity
    assert report.compared["wal_frames"] > 0
    paper = run(PAPER, seed=seed, race_detect=True, rounds=15)
    assert paper.ok, (paper.violations, paper.race_findings)
    assert len(paper.violations) == 5
    assert paper.compared["wal_frames"] == 0  # in-memory history: no WAL
