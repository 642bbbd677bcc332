"""Smoke test of the e2e benchmark (collected by ``pytest benchmarks/``).

Runs the whole set twice in ``--quick`` mode (one repetition, ~5 % of the
operations) and checks what must hold on any machine: every run is
correct, the deterministic columns and result digests repeat bit for
bit, every metric name of ``BENCHMARK.json`` is reported, and every
``layers.LAYERS`` entry still resolves to a public attribute — so a
rename in ``src/`` breaks here instead of silently emptying a layer.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_import_paths()

import layers  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUICK = argparse.Namespace(seed=11, seconds=run.REFERENCE_SECONDS, quick=True)


@pytest.fixture(scope="module")
def two_sets():
    return run.run_set(QUICK), run.run_set(QUICK)


def test_every_run_is_correct(two_sets):
    for results in two_sets:
        for workload, by_trace in results.items():
            for trace, record in by_trace.items():
                assert record["exit"] == 0, (workload, trace, record["problems"])
                assert record["result"]["correct"], (workload, trace)
                assert record["result"]["failed"] == 0


def test_metric_names_match_the_manifest(two_sets):
    end_to_end = [m.name for m in metrics.END_TO_END]
    per_layer = [m.name for m, _ in metrics.PER_LAYER]
    for workload, by_trace in two_sets[0].items():
        assert list(by_trace[0]["result"]["metrics"]) == end_to_end, workload
        assert list(by_trace[1]["result"]["metrics"]) == per_layer, workload
    manifest = HERE.parent.parent / "BENCHMARK.json"
    if manifest.exists():
        expected = metrics.manifest(
            list(WORKLOADS.values()), run.COMMAND, run.REFERENCE_SECONDS
        )
        assert json.loads(manifest.read_text()) == expected


def test_deterministic_columns_repeat(two_sets):
    first, second = two_sets
    exact = [m.name for m, _ in metrics.PER_LAYER if m.exact]
    for workload in first:
        for trace in (0, 1):
            assert first[workload][trace]["digest"] == second[workload][trace]["digest"]
        assert first[workload][0]["digest"] == first[workload][1]["digest"]
        a = first[workload][1]["result"]["metrics"]
        b = second[workload][1]["result"]["metrics"]
        for name in exact:
            assert a[name]["value"] == b[name]["value"], (workload, name)


def test_layer_entries_resolve_to_public_attributes():
    targets = [e.target for entries in layers.LAYERS.values() for e in entries]
    targets += [r.target for r in layers.REGISTRARS]
    assert len(set(targets)) == len(targets)
    for target in targets:
        _, attr, value = layers.resolve(target)
        assert not attr.startswith("_")
        assert callable(value), target
