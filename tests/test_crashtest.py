"""Seeded crash-recovery soak: the durability headline invariant.

Runs the ``crashtest`` declaration of ``repro.scenarios`` — record,
power-fail the disk, rebuild the gateway — and asserts what the durable
history store promises:

* **acked-prefix equality** — every recovery serves exactly the
  pre-crash acknowledged rows per GLUE group (no acked row lost, no
  torn or unacked row resurrected);
* **quarantine, not refusal** — a bit-flipped sealed segment is
  quarantined with a GRM401 finding surfaced through the gateway's
  startup findings, and the gateway still boots;
* **replay identity** — the same seed reproduces a byte-identical run
  (the report's SHA-256 signature matches).

Kept to few cycles so the soak stays cheap in CI; the ``crash-smoke``
job sweeps 20 seeds through the CLI.
"""

import pytest

from repro.cli import main
from repro.scenario import run
from repro.scenarios import CRASHTEST


def soak(seed, **overrides):
    # Default 3 hosts: 4 WAL records per round (3 snmp batches + 1
    # ganglia batch) against an fsync interval of 3 keeps the crash off
    # the group-commit boundary.
    kwargs = {"seed": seed, "cycles": 3, "rounds": 5}
    kwargs.update(overrides)
    return run(CRASHTEST, **kwargs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariants_hold_across_seeds(seed):
    report = soak(seed)
    assert report.ok, report.violations
    assert report.violations == {"acked_prefix": []}
    assert report.measurements["crashes"] == 3
    assert report.measurements["rows_verified"] > 0
    assert report.measurements["rows_recovered"] > 0


def test_fault_classes_actually_exercised():
    report = soak(0)
    # Defaults are tuned so crashes land on a live WAL tail and odd
    # cycles flip a sealed segment — a run that never tears or
    # quarantines is testing nothing.
    m = report.measurements
    assert m["torn_tails"] > 0
    assert m["bit_flips"] > 0
    assert m["segments_quarantined"] > 0
    assert m["faults"]["disk_crashes"] == m["crashes"]


def test_replay_identity_same_seed():
    first = soak(4)
    second = soak(4)
    assert first.signature == second.signature
    assert first.as_dict() == second.as_dict()


def test_quarantine_recorded_in_recovery_summaries():
    report = soak(0)
    quarantining = [
        r for r in report.measurements["recoveries"] if r["segments_quarantined"]
    ]
    assert quarantining
    for summary in quarantining:
        assert any("GRM401" in f for f in summary["findings"])


def test_validation():
    with pytest.raises(ValueError):
        run(CRASHTEST, cycles=0)
    with pytest.raises(ValueError):
        run(CRASHTEST, rounds=0)


class TestCli:
    def test_crashtest_command_green(self, capsys):
        rc = main(["crashtest", "--seed", "0", "--cycles", "2", "--hosts", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Crashtest: seed=0" in out
        assert "invariants: OK" in out

    def test_crashtest_report_mentions_signature(self, capsys):
        main(["crashtest", "--seed", "1", "--cycles", "1", "--hosts", "2"])
        out = capsys.readouterr().out
        assert "replay signature:" in out
