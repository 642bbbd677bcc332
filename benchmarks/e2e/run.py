"""The e2e gateway benchmark: one command, every metric by name.

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``.  A provenance line precedes it and the same record is
  written under ``out/``.
* ``run.py [--seed N] [--quick] [--check-repeat]`` runs the whole set,
  one subprocess per workload and trace mode, and prints the tables.

``--seconds`` sizes the timed phase: operation counts are the
calibrated constants in ``workloads.py`` scaled by ``seconds / 15``, so
for one seed the requests — and every virtual-time or counter column —
are identical on any machine, while the measured time is about
``--seconds`` on the machine the constants were sized on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

#: As in ``BENCHMARK.json``; the driver appends the four options.
COMMAND = ["python3", "benchmarks/e2e/run.py"]
#: ``--seconds`` at which a repetition runs ``Workload.ops`` operations.
REFERENCE_SECONDS = 15
#: Repetitions per untraced run (fresh testbed, same seed); wall metrics
#: are medians over them, deterministic columns must be identical.
REPETITIONS = 3
#: ``--quick``: one repetition of ~5 % of the operations.
QUICK_SCALE = 0.05
#: Attribution guard (traced run).
MAX_UNATTRIBUTED = 0.10
MAX_TIMER_OVERHEAD = 3.0


def add_import_paths() -> None:
    """Make this checkout's ``repro`` and the benchmark's own modules
    importable; refuse to measure a ``repro`` from anywhere else."""
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"{REPO / 'src' / 'repro'}: not found; run from a full checkout")
    for path in (str(REPO / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def commit() -> str:
    """HEAD of the enclosing checkout, read without spawning git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace, n_ops: int, repetitions: int) -> dict[str, Any]:
    from testbed import BENCH_POLICY

    policy = dataclasses.asdict(BENCH_POLICY)
    policy["failure_action"] = BENCH_POLICY.failure_action.value
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "ops_per_repetition": n_ops,
        "repetitions": repetitions,
        "policy": policy,
    }


def _assert_repeatable(reps: list) -> list[str]:
    """Deterministic columns must be identical across repetitions."""
    first = reps[0].deterministic()
    problems = []
    for index, rep in enumerate(reps[1:], start=2):
        other = rep.deterministic()
        for key, value in first.items():
            if other[key] == value:
                continue
            detail = ""
            if key == "counters":
                moved = [k for k in value if value[k] != other[key].get(k)]
                detail = f" ({', '.join(moved[:6])})"
            problems.append(f"repetition {index} differs from 1 in {key}{detail}")
    return problems


def run_workload(args: argparse.Namespace) -> int:
    """Contract mode: one workload, in-process; JSON result last."""
    add_import_paths()
    import layers
    import metrics
    from harness import run_repetition
    from testbed import BENCH_POLICY
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = args.seconds / REFERENCE_SECONDS
    if args.quick:
        scale *= QUICK_SCALE
        workload.quick()
    n_ops = max(20, round(workload.ops * scale))
    repetitions = 1 if args.quick else REPETITIONS
    rec = layers.Recorder()
    layers.install_registrars(rec)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    record: dict[str, Any] = {}

    if args.trace == 0:
        reps = [
            run_repetition(workload, args.seed, n_ops, rec) for _ in range(repetitions)
        ]
        problems += _assert_repeatable(reps)
        per_rep = [metrics.end_to_end(rep) for rep in reps]
        spread = metrics.summarise(per_rep)
        values = {name: s["median"] for name, s in spread.items()}
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        table = metrics.END_TO_END
        record["repetitions"] = spread
        record["calibration_ms"] = [rep.timed_kernel_s * 1e3 for rep in reps]
        untraced = reps[0]
    else:
        untraced = run_repetition(workload, args.seed, n_ops, rec, probes=True)
        tracer_off = run_repetition(
            workload,
            args.seed,
            n_ops,
            rec,
            policy=dataclasses.replace(BENCH_POLICY, tracing_enabled=False),
        )
        layers.install_layers(rec)
        traced = run_repetition(workload, args.seed, n_ops, rec, spans=True)
        reps = [untraced, tracer_off, traced]
        if traced.digest != untraced.digest:
            problems.append("the layer timer changed the result digest")
        values = metrics.per_layer(metrics.Context(untraced, traced, tracer_off))
        if values["bench.unattributed_share"] > MAX_UNATTRIBUTED:
            problems.append(
                f"unattributed share {values['bench.unattributed_share']:.3f} "
                f"> {MAX_UNATTRIBUTED}"
            )
        if values["bench.layer_timer_overhead_ratio"] > MAX_TIMER_OVERHEAD:
            problems.append(
                f"layer timer overhead {values['bench.layer_timer_overhead_ratio']:.2f}x "
                f"> {MAX_TIMER_OVERHEAD}x"
            )
        table = tuple(m for m, _ in metrics.PER_LAYER)
        shares = metrics.layer_shares(traced)
        record["layer_shares"] = shares
        record["group_shares"] = metrics.group_shares(shares)
        _write_spans(args.workload, traced.spans or [])

    for rep in reps:
        problems += rep.errors
    failed = max(rep.failed for rep in reps)
    record.update(
        provenance=provenance(args, n_ops, len(reps)),
        digest=untraced.digest,
        kinds=untraced.kinds,
        problems=problems,
    )
    result = {
        "correct": not problems and failed == 0,
        "attempted": untraced.n_ops,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
    }
    record["result"] = result
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_spans(workload: str, spans: list) -> None:
    """One JSON object per span: layer, name, start, end, parent, op."""
    keys = ("layer", "name", "start", "end", "parent", "op", "n_in", "n_out")
    with open(OUT / f"spans-{workload}.jsonl", "w") as handle:
        for sid, span in enumerate(spans):
            handle.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


# ----------------------------------------------------------------------
# Full set: one subprocess per workload and trace mode
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=900,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace}: no result\n{done.stdout}")
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    record["exit"] = done.returncode
    return record


def run_set(args: argparse.Namespace) -> dict[str, dict[int, dict[str, Any]]]:
    add_import_paths()
    from workloads import WORKLOADS

    return {
        name: {trace: _child(args, name, trace) for trace in (0, 1)}
        for name in WORKLOADS
    }


def print_set(results: dict[str, dict[int, dict[str, Any]]]) -> bool:
    """Every metric by name with its unit; returns overall correctness."""
    ok = True
    for workload, by_trace in results.items():
        print(f"\n== {workload}  digest {by_trace[0]['digest'][:16]}")
        for trace in (0, 1):
            record = by_trace[trace]
            ok = ok and record["result"]["correct"] and record["exit"] == 0
            for name, metric in record["result"]["metrics"].items():
                spread = record.get("repetitions", {}).get(name)
                extra = (
                    f"   [min {spread['min']:.6g}  max {spread['max']:.6g}]"
                    if spread
                    else ""
                )
                print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{extra}")
            for problem in record["problems"]:
                print(f"  PROBLEM: {problem}")
        groups = by_trace[1]["group_shares"]
        print("  group shares: " + "  ".join(f"{g}={s:.1%}" for g, s in groups.items()))
        if by_trace[0]["digest"] != by_trace[1]["digest"]:
            ok = False
            print("  PROBLEM: traced and untraced digests differ")
    return ok


def check_repeat(args: argparse.Namespace) -> bool:
    """Two full sets back to back: wall metrics within their bounds (a gap
    over a tenth is flagged), exact metrics and digests bit-identical."""
    add_import_paths()
    import metrics

    first, second = run_set(args), run_set(args)
    ok = print_set(second)
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    exact = {m.name for m, _ in metrics.PER_LAYER if m.exact}
    print("\n== repeatability (set 1 vs set 2)")
    for workload in first:
        for name, bound in bounds.items():
            a = first[workload][0]["result"]["metrics"][name]["value"]
            b = second[workload][0]["result"]["metrics"][name]["value"]
            gap = abs(a - b) / min(a, b)
            verdict = "FAIL" if gap > bound else "over a tenth" if gap > 0.10 else "ok"
            ok = ok and gap <= bound
            print(
                f"  {workload:<16} {name:<12} {a:>12.6g} {b:>12.6g} "
                f"gap {gap:6.1%}  bound {bound:.0%}  {verdict}"
            )
        for name, metric in first[workload][1]["result"]["metrics"].items():
            other = second[workload][1]["result"]["metrics"][name]["value"]
            if name in exact and metric["value"] != other:
                ok = False
                print(f"  {workload:<16} {name}: {metric['value']} != {other}  FAIL")
        if first[workload][0]["digest"] != second[workload][0]["digest"]:
            ok = False
            print(f"  {workload:<16} result digest differs  FAIL")
    return ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="R=1, ~5%% of the ops")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Results do not depend on the hash seed (checked), but dict and
        # set layouts do, and with them the wall time: pin it, so that one
        # source of run-to-run wobble is gone.  exec replaces this process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.manifest:
        add_import_paths()
        import metrics
        from workloads import WORKLOADS

        print(json.dumps(
            metrics.manifest(list(WORKLOADS.values()), COMMAND, REFERENCE_SECONDS), indent=2
        ))
        return 0
    if args.workload:
        return run_workload(args)
    ok = check_repeat(args) if args.check_repeat else print_set(run_set(args))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
