"""Caller census: which ``src/repro`` functions a shipped caller reaches.

Runs every shipped caller (``SHIPPED``: the ``repro`` subcommands, the
flags that select code, every ``examples/*.py``, the quick e2e set and
the benchmark suite) as a subprocess under ``sys.setprofile``.  A
``sitecustomize`` module on ``PYTHONPATH`` installs the profiler, so
the subprocesses those callers start are profiled too.  Each process
writes the ``(file, co_qualname)`` of every code object it ran under
``src/repro`` when it exits.

Every ``def`` under ``src/repro`` (found by AST, keyed
``module:qualname`` in the ``co_qualname`` format) must then be reached
by a shipped caller or be covered by exactly one row of
``tests/caller_verdicts.py``; a row for a function that a shipped caller
now reaches, or that no longer exists, is stale.  Exit 1 names each
failure, exit 0 prints the counts.  The run time is printed either way.

Run from the repository root (Python >= 3.11 for ``co_qualname``)::

    PYTHONHASHSEED=0 python tests/caller_census.py [--tier1] [--unreached]

``--tier1`` also profiles the tier-1 suite and splits the unreached
functions into test-only and called by nothing (a report; the verdict
check does not use it).  ``--unreached`` lists each unreached function
with its line count.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tests.caller_verdicts import KINDS, VERDICTS  # noqa: E402

_CLI = [sys.executable, "-m", "repro"]

#: Every shipped caller: each ``repro`` subcommand at its defaults, the
#: flags that select code (a seed list and the dual run as the CI smoke
#: jobs pass them), every example, the quick e2e set and the benchmark
#: suite as CI's ``bench-smoke`` runs it.
SHIPPED: list[list[str]] = [
    _CLI + ["demo"],
    _CLI + ["query", "SELECT * FROM Processor"],
    _CLI + ["query", "SELECT * FROM Processor", "--mode", "cached_ok"],
    _CLI + ["query", "SELECT * FROM Processor", "--mode", "history"],
    _CLI + ["tree"],
    _CLI + ["discover"],
    _CLI + ["health"],
    _CLI + ["health", "--fail", "site-a-n00"],
    _CLI + ["trace"],
    _CLI + ["trace", "--metrics"],
    _CLI + ["schema"],
    _CLI + ["schema", "--xml"],
    _CLI + ["report"],
    _CLI + ["lint"],
    _CLI + ["lint", "--format", "json"],
    _CLI + ["lint", "--format", "flat"],
    _CLI + ["lint", "--write-baseline", "{tmp}/baseline.json"],
    _CLI + ["lint", "--baseline", "{tmp}/baseline.json"],
    _CLI + ["experiments"],
    _CLI + ["chaos"],
    _CLI + ["overload"],
    _CLI + ["stream"],
    _CLI + ["crashtest"],
    _CLI + ["racecheck"],
    _CLI + ["stream", "--seeds", "0,1", "--race-detect"],
    *([sys.executable, str(path)] for path in sorted((REPO / "examples").glob("*.py"))),
    [sys.executable, "benchmarks/e2e/run.py", "--quick"],
    [sys.executable, "-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider",
     "--benchmark-disable"],
]

#: The tier-1 suite (``--tier1`` only).
TIER1 = [[sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]]

_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_out = os.environ.get("CALLER_CENSUS_OUT")
if _out:
    _codes = set()

    def _profile(frame, event, arg, _add=_codes.add):
        _add(frame.f_code)

    sys.setprofile(_profile)
    threading.setprofile(_profile)

    def _dump():
        sys.setprofile(None)
        prefix = os.environ["CALLER_CENSUS_SRC"]
        lines = sorted(
            {
                f"{os.path.realpath(code.co_filename)}\\t{code.co_qualname}\\n"
                for code in list(_codes)
            }
        )
        lines = [line for line in lines if line.startswith(prefix)]
        with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as f:
            f.writelines(lines)

    atexit.register(_dump)
'''


def module_of(path: Path) -> str:
    rel = path.resolve().relative_to(SRC).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def functions() -> tuple[dict[str, int], set[str]]:
    """Every ``def`` under ``src/repro`` as ``module:qualname`` -> lines,
    and every class as ``module:qualname``."""
    defs: dict[str, int] = {}
    classes: set[str] = set()

    def visit(module: str, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                key = f"{module}:{qualname}"
                lines = child.end_lineno - child.lineno + 1  # type: ignore[operator]
                defs[key] = defs.get(key, 0) + lines
                visit(module, child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                classes.add(f"{module}:{prefix}{child.name}")
                visit(module, child, prefix + child.name + ".")
            else:
                visit(module, child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(module_of(path), ast.parse(path.read_text(), str(path)), "")
    return defs, classes


def covered_by(row: str, defs: dict[str, int]) -> list[str]:
    """The functions a verdict row covers: itself, or a class's methods."""
    if row in defs:
        return [row]
    return [key for key in defs if key.startswith(row + ".")]


def run(commands: list[list[str]]) -> set[str]:
    """Run each command under the profiler; the ``module:qualname`` keys
    of every ``src/repro`` function any of their processes reached."""
    reached: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(site), str(SRC)]),
            "CALLER_CENSUS_OUT": str(out),
            "CALLER_CENSUS_SRC": str(PACKAGE.resolve()) + os.sep,
        }
        for command in commands:
            argv = [arg.replace("{tmp}", tmp) for arg in command]
            started = time.perf_counter()
            done = subprocess.run(
                argv, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            took = time.perf_counter() - started
            print(f"# {took:6.1f} s  exit {done.returncode}  {' '.join(argv[1:])}",
                  flush=True)
            if done.returncode not in (0, 1):
                # 1 is a scenario's or a lint's verdict; anything else
                # (a usage error, a crash) means the caller did not run.
                raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
        for dump in out.iterdir():
            for line in dump.read_text().splitlines():
                filename, qualname = line.split("\t")
                reached.add(f"{module_of(Path(filename))}:{qualname}")
    return reached


def check(
    defs: dict[str, int],
    classes: set[str],
    reached: set[str],
    verdicts: dict[str, tuple[str, str]] = VERDICTS,
) -> list[str]:
    """Every failure of the census against the verdict table."""
    problems = []
    covered: dict[str, str] = {}
    for row, (kind, _reason) in verdicts.items():
        if kind not in KINDS:
            problems.append(f"{row}: unknown kind {kind!r}")
        if row not in defs and row not in classes:
            problems.append(f"{row}: stale row, no such function or class")
            continue
        unreached = [key for key in covered_by(row, defs) if key not in reached]
        if not unreached:
            problems.append(f"{row}: stale row, a shipped caller reaches it")
        for key in unreached:
            if key in covered:
                problems.append(f"{key}: covered by {covered[key]} and {row}")
            covered[key] = row
    for key in sorted(defs):
        if key not in reached and key not in covered:
            problems.append(f"{key}: no shipped caller and no verdict row")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also profile the tier-1 suite and report the split")
    parser.add_argument("--unreached", action="store_true",
                        help="list every function no shipped caller reaches")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    defs, classes = functions()
    reached = run(SHIPPED) & defs.keys()
    unreached = sorted(set(defs) - reached)
    print(f"functions {len(defs)} ({sum(defs.values())} lines); "
          f"shipped caller {len(reached)}; "
          f"none {len(unreached)} ({sum(defs[k] for k in unreached)} lines); "
          f"verdict rows {len(VERDICTS)}")
    tested: set[str] = set()
    if args.tier1:
        tested = run(TIER1) & defs.keys()
        test_only = [k for k in unreached if k in tested]
        nothing = [k for k in unreached if k not in tested]
        print(f"of those: tier-1 only {len(test_only)} "
              f"({sum(defs[k] for k in test_only)} lines); "
              f"called by nothing {len(nothing)} "
              f"({sum(defs[k] for k in nothing)} lines)")
    if args.unreached:
        for key in unreached:
            split = ("  tier-1" if key in tested else "  nothing") if args.tier1 else ""
            print(f"{defs[key]:5d}  {key}{split}")
    problems = check(defs, classes, reached)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"caller census: {len(problems)} problem(s), "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
