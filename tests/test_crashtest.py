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

The ring across a crash, at the gateway: ``python -m tests.test_crashtest``
(repo root, ``PYTHONPATH=src``) runs the 80-run sweep — seeds 0-4 x
rings 41-56, ``production()``, 4 hosts x snmp + ganglia, 12 REALTIME
rounds 30 s apart, sync, power failure, successor on the same disk —
without and with a checkpoint after every round, and prints how many
runs serve different rows after the crash than before it.  The pytest
case pins the first run that did (seed 0, ring 46).
"""

import pytest

from repro.cli import main
from repro.core.gateway import Gateway
from repro.core.policy import production
from repro.core.request_manager import QueryMode
from repro.scenario import CLIENT, run
from repro.scenarios import CRASHTEST
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.storage.simdisk import SimDisk
from repro.testbed import build_site


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


# ----------------------------------------------------------------------
# The ring across a crash, at the gateway
# ----------------------------------------------------------------------
def served_across_a_crash(seed, ring, *, checkpoint_each_round=False):
    """Every group's served rows before and after one power failure of a
    ``production()`` gateway whose every row was acknowledged."""
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    disk = SimDisk(
        clock=clock, write_latency=0.0002, fsync_latency=0.002, read_latency=0.0005
    )
    specs: dict[str, str] = {}
    site = build_site(
        network, name="site-a", n_hosts=4, agents=("snmp", "ganglia"), seed=seed,
        policy=production(history_max_rows_per_group=ring), disk=disk,
        persistent_store=specs,
    )
    gw = site.gateway
    principal = gw.login(CLIENT).principal
    for _ in range(12):
        gw.query(
            site.source_urls, "SELECT * FROM Processor",
            mode=QueryMode.REALTIME, principal=principal,
        )
        clock.advance(30.0)
        if checkpoint_each_round:
            gw.history.checkpoint()
    gw.history.sync()

    def served(store):
        return {g: [dict(r) for r in store.since(g, None)] for g in store.groups_recorded()}

    before = served(gw.history)
    disk.crash(None)
    gw.crash()
    successor = Gateway(
        network, gw.host, site=site.name, policy=gw.policy, disk=disk,
        persistent_store=specs,
    )
    return before, served(successor.history)


@pytest.mark.parametrize("checkpoint_each_round", [False, True])
def test_a_crash_changes_no_served_row_seed_0_ring_46(checkpoint_each_round):
    """Fan-out siblings record a round a few microseconds out of instant
    order.  The store's ring evicts the oldest instants; recovery used to
    keep the newest *arrivals*, so this run came back serving one
    acknowledged row fewer and one already-evicted row more."""
    before, after = served_across_a_crash(
        0, 46, checkpoint_each_round=checkpoint_each_round
    )
    assert sum(map(len, before.values())) == 46
    assert after == before


def sweep(*, checkpoint_each_round):
    """The (seed, ring) runs whose served rows a crash changed."""
    changed = []
    for seed in range(5):
        for ring in range(41, 57):
            before, after = served_across_a_crash(
                seed, ring, checkpoint_each_round=checkpoint_each_round
            )
            if after != before:
                changed.append((seed, ring))
    return changed


if __name__ == "__main__":
    for each_round in (False, True):
        changed = sweep(checkpoint_each_round=each_round)
        print(
            f"checkpoint every round: {each_round}: {len(changed)} of 80 runs "
            f"serve different rows after the crash {changed}"
        )
