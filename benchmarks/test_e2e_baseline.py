"""Gate, not upload: the e2e benchmark's deterministic face is committed.

``benchmarks/e2e`` reports two kinds of number.  Wall metrics differ by
machine and are judged by alternating before/after pairs; the result
digest of each workload and the ``exact`` per-layer columns (counts,
ratios of counts, virtual time, bytes) repeat bit for bit for a seed on
any machine.  This module runs one ``--quick --seed 11`` set through
``run.run_set`` and compares those with ``golden_e2e_quick.json``, so a
change that moves an answer, a plan-cache hit, a poll, a byte on the
wire or a row scanned fails ``pytest benchmarks/`` (CI ``bench-smoke``)
unless the same change re-records the file — where the diff shows the
reviewer which columns moved and by how much.

Regenerate (repo root; prints the golden, as ``tests/test_scenario.py``
does for the replay signatures)::

    python benchmarks/test_e2e_baseline.py > benchmarks/golden_e2e_quick.json
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_e2e_quick.json"
sys.path.insert(0, str(HERE / "e2e"))

import run  # noqa: E402

run.add_import_paths()

import metrics  # noqa: E402

QUICK = argparse.Namespace(seed=11, seconds=run.REFERENCE_SECONDS, quick=True)


def snapshot() -> dict:
    """Per workload: the result digest and every exact per-layer column."""
    exact = [m.name for m, _ in metrics.PER_LAYER if m.exact]
    out = {}
    for workload, by_trace in run.run_set(QUICK).items():
        for trace, record in by_trace.items():
            assert record["exit"] == 0, (workload, trace, record["problems"])
        assert by_trace[0]["digest"] == by_trace[1]["digest"], workload
        values = by_trace[1]["result"]["metrics"]
        out[workload] = {
            "digest": by_trace[0]["digest"],
            "exact": {name: values[name]["value"] for name in exact},
        }
    return out


def render(snap: dict) -> str:
    return json.dumps(snap, indent=1, sort_keys=True)


def test_quick_set_equals_the_committed_baseline():
    got = snapshot()
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    moved = [
        f"{workload}: {name} {want[workload]['exact'].get(name)!r} -> {value!r}"
        for workload in sorted(got)
        for name, value in got[workload]["exact"].items()
        if want[workload]["exact"].get(name) != value
    ]
    moved += [
        f"{workload}: digest {want[workload]['digest'][:12]} -> {got[workload]['digest'][:12]}"
        for workload in sorted(got)
        if want[workload]["digest"] != got[workload]["digest"]
    ]
    assert not moved, "\n".join(
        ["the e2e baseline moved (regenerate: see the module docstring):", *moved]
    )
    assert render(got) == render(want)


def test_bench_policy_is_production_without_security():
    """The harness's hand-spelled ``BENCH_POLICY`` is the default
    ``GatewayPolicy()`` field for field: the benchmark measures the
    deployed gateway, which is the one tier-1 tests.  (The id is from
    when the deployed gateway was a separate ``production`` policy, CGSL /
    FGSL on; the harness speaks ACIL without sessions, and security stays
    off by default.)"""
    import dataclasses

    from testbed import BENCH_POLICY

    from repro.core.policy import GatewayPolicy

    assert dataclasses.asdict(BENCH_POLICY) == dataclasses.asdict(GatewayPolicy())


if __name__ == "__main__":
    print(render(snapshot()))
