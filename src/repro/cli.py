"""Command-line interface: ``python -m repro <command>``.

Spins up a self-contained demo testbed (there is no persistent daemon —
everything is simulated) and exercises it:

* ``demo``      — build a site, poll everything, print the console tree;
* ``query``     — run one SQL query against a chosen agent kind;
* ``tree``      — print the tree view after polling all sources;
* ``discover``  — network-scan discovery from a blank gateway;
* ``health``    — poll all sources and print the breaker scoreboard;
* ``chaos``     — run the standard fault-plane scenario and report tail
  latency, hedging/retry/deadline counters and the replay signature;
* ``overload``  — run the overload scenario: an offered-load spike while
  every monitored host degrades, admission control on (or ``--shed-off``);
* ``stream``    — run the streaming scenario: continuous queries (all
  three producer flavours) under the standard faults plus a consumer
  partition long enough to force lease-lapse re-registration;
* ``crashtest`` — seeded kill/recover/verify loops over the durable
  history store: crash the disk (torn writes, bit rot), rebuild the
  gateway, and hold recovery to the acked-prefix equality;
* ``racecheck`` — the chaos scenario on a durable history store, always
  as the dual run;

  These five are declarations (:mod:`repro.scenarios`) over one runner
  (:mod:`repro.scenario`) and one handler here.
  ``--race-detect`` means the same on each — the dual run: once under the
  virtual-lane race detector, once without, GRM55x lane races reported
  and the first diverging step / trace span / WAL frame bisected if
  replay identity breaks.  Exit status 1 iff the report is not ok (every
  violation on stderr), 2 for knobs the runner refuses;
* ``trace``     — run a query, print its hop-by-hop span tree, verify the
  trace invariants, and dump the metrics registry;
* ``schema``    — print the GLUE schema (``--xml`` for the XML rendering);
* ``lint``      — run the static driver-contract / project-invariant
  rules over source paths (see docs/DRIVER_GUIDE.md);
* ``experiments`` — list the DESIGN.md experiment index and how to run it.
"""

from __future__ import annotations

import argparse
import sys

from repro import scenario, scenarios
from repro.core.request_manager import Cause, QueryMode
from repro.testbed import AGENT_KINDS, build_testbed
from repro.web.console import Console


def _build(args):
    agents = tuple(args.agents.split(",")) if args.agents else ("snmp", "ganglia")
    unknown = set(agents) - set(AGENT_KINDS)
    if unknown:
        raise SystemExit(f"unknown agent kind(s): {sorted(unknown)}")
    network, (site,) = build_testbed(
        n_hosts=args.hosts, agents=agents, seed=args.seed
    )
    network.clock.advance(args.warmup)
    return network, site


def _add_site(p):
    p.add_argument("--hosts", type=int, default=4, help="hosts per site")
    p.add_argument(
        "--agents",
        default="snmp,ganglia",
        help=f"comma-separated agent kinds from {','.join(AGENT_KINDS)}",
    )
    p.add_argument("--seed", type=int, default=0, help="testbed seed")


def _add_common(p):
    _add_site(p)
    p.add_argument(
        "--warmup", type=float, default=60.0, help="virtual warm-up seconds"
    )


#: Flags every scenario command shares, by the knob they set; a command
#: offers one iff its scenario declares the knob, defaulting to the
#: declaration's value.  ``--hosts`` / ``--agents`` are the exception:
#: they keep the site defaults above on every command (4 hosts, SNMP +
#: Ganglia) whatever the declaration's Python default is, so the CI seed
#: matrices keep their replay signatures.
_SHARED_FLAGS = {
    "rounds": "measured rounds (per kill/recover cycle for crashtest)",
    "period": "virtual seconds between rounds",
    "deadline": "end-to-end query budget in virtual seconds (0 = unlimited)",
    "warmup_rounds": "unmeasured, fault-free warm-up rounds",
}


def _seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _add_scenario_parser(sub, sc):
    # No abbreviations: ``--warmup SECONDS`` (accepted and ignored here
    # before the scenarios stopped offering it) must be refused, not read
    # as a prefix of ``--warmup-rounds``.
    p = sub.add_parser(sc.name, help=sc.help, allow_abbrev=False)
    _add_site(p)
    p.add_argument(
        "--seeds",
        type=_seed_list,
        default=None,
        metavar="S1,S2,...",
        help="comma-separated seed list (overrides --seed)",
    )
    p.add_argument(
        "--race-detect",
        action="store_true",
        default=sc.race_detect,
        help="dual run: under the lane-race detector, then without; GRM55x "
        "findings or any diverging step / trace / WAL frame fail",
    )
    for knob, default in sc.knobs.items():
        if knob in sc.flags:
            flag, text = sc.flags[knob]
        elif knob in _SHARED_FLAGS:
            flag, text = "--" + knob.replace("_", "-"), _SHARED_FLAGS[knob]
        else:
            continue
        if default is True:
            p.add_argument(flag, dest=knob, action="store_false", help=text)
        else:
            p.add_argument(
                flag, dest=knob, type=type(default), default=default, help=text
            )
    p.set_defaults(func=cmd_scenario, scenario=sc, parser=p)


def cmd_demo(args) -> int:
    network, site = _build(args)
    console = Console(site.gateway)
    console.poll_all("SELECT * FROM Processor")
    print(console.tree_view())
    print()
    print(console.driver_panel())
    return 0


def cmd_query(args) -> int:
    network, site = _build(args)
    url = args.url or site.url_for(args.kind)
    mode = QueryMode(args.mode)
    result = site.gateway.query(url, args.sql, mode=mode)
    print("\t".join(result.columns))
    for row in result.rows:
        print("\t".join("" if v is None else str(v) for v in row))
    print(
        f"# {result.ok_sources} ok, {result.failed_sources} failed, "
        f"{result.elapsed * 1000:.2f} virtual ms",
        file=sys.stderr,
    )
    for s in result.statuses:
        if s.cause is not Cause.FRESH:
            detail = f": {s.error}" if s.error else ""
            print(f"# {s.cause.value} {s.url}{detail}", file=sys.stderr)
    return 0 if result.ok_sources else 1


def cmd_tree(args) -> int:
    network, site = _build(args)
    console = Console(site.gateway)
    console.poll_all()
    print(console.tree_view())
    return 0


def cmd_discover(args) -> int:
    from repro.core.gateway import Gateway
    from repro.web.discovery import discover_sources

    network, site = _build(args)
    blank = Gateway(network, "scanner-gw", site=site.name)
    hits = discover_sources(blank, add=False)
    for hit in hits:
        print(f"{hit.url}\t({hit.driver_name})")
    print(f"# {len(hits)} source(s) found", file=sys.stderr)
    return 0


def cmd_health(args) -> int:
    network, site = _build(args)
    console = Console(site.gateway)
    for host in args.fail:
        try:
            site.fail_host(host)
        except KeyError:
            known = ", ".join(site.host_names())
            print(f"error: --fail {host}: no such host (have: {known})", file=sys.stderr)
            return 2
    rounds = max(1, args.rounds)
    for _ in range(rounds):
        console.poll_all()
        network.clock.advance(args.warmup or 30.0)
    print(console.health_panel())
    return 0


def cmd_scenario(args) -> int:
    """The one handler behind chaos, overload, stream, crashtest, racecheck."""
    sc = args.scenario
    knobs = {name: getattr(args, name) for name in sc.knobs if hasattr(args, name)}
    knobs["agents"] = tuple(args.agents.split(","))
    seeds = args.seeds or [args.seed]
    failed = 0
    for i, seed in enumerate(seeds):
        try:
            report = scenario.run(sc, seed=seed, race_detect=args.race_detect, **knobs)
        except scenario.ScenarioError as exc:
            args.parser.error(str(exc))
        if i:
            print()
        print(report.format())
        for finding in report.race_findings:
            print(f"# lane race: {finding}", file=sys.stderr)
        for checker, violations in report.violations.items():
            for violation in violations:
                print(f"# {checker} violated: {violation}", file=sys.stderr)
        failed += not report.ok
    if failed and len(seeds) > 1:
        print(f"# {failed}/{len(seeds)} seed(s) failed", file=sys.stderr)
    return 1 if failed else 0


def cmd_trace(args) -> int:
    from repro.obs import check_tracer

    network, site = _build(args)
    gw = site.gateway
    console = Console(gw)
    urls = args.url or [u for u in site.source_urls]
    mode = QueryMode(args.mode)
    result = gw.query(urls, args.sql, mode=mode)
    trace = gw.tracer.get(result.trace_id)
    if trace is None:
        print("error: tracing disabled or trace evicted", file=sys.stderr)
        return 2
    print(trace.render(), end="")
    print()
    print(console.trace_panel())
    violations = check_tracer(gw.tracer)
    if violations:
        for violation in violations:
            print(f"# trace invariant violated: {violation}", file=sys.stderr)
        return 1
    print(f"# trace invariants OK across {len(gw.tracer.traces())} trace(s)")
    if args.metrics:
        print()
        print(console.metrics_panel())
    return 0


def cmd_schema(args) -> int:
    from repro.glue.render import schema_to_xml
    from repro.glue.schema import STANDARD_SCHEMA

    if args.xml:
        print(schema_to_xml(STANDARD_SCHEMA))
        return 0
    for group in STANDARD_SCHEMA:
        print(f"{group.name}  -- {group.description}")
        for f in group.fields:
            unit = f" [{f.unit}]" if f.unit else ""
            print(f"    {f.name}: {f.type}{unit}")
    return 0


def cmd_report(args) -> int:
    from repro.web.reports import capacity_report, utilisation_report

    network, site = _build(args)
    gw = site.gateway
    # Take a few samples so the report has history to chew on.
    urls = [u for u in site.source_urls if u.startswith(("jdbc:snmp", "jdbc:ganglia"))]
    for _ in range(3):
        gw.query(urls, "SELECT * FROM Processor")
        gw.query(urls, "SELECT * FROM MainMemory")
        network.clock.advance(30.0)
    print("Site capacity:")
    print("  " + capacity_report(gw).format())
    print("Host utilisation:")
    for entry in utilisation_report(gw):
        print("  " + entry.format())
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.linter import (
        lint_paths,
        load_baseline,
        render_flat,
        render_json,
        render_tree,
        write_baseline,
    )
    from repro.analysis.rules import rules_by_id

    rules = None
    if args.rules:
        wanted = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        try:
            rules = rules_by_id(wanted)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from exc
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = lint_paths(args.paths, rules=rules, baseline=baseline)
    if args.write_baseline:
        n = write_baseline(args.write_baseline, report)
        print(f"# wrote {n} fingerprint(s) to {args.write_baseline}")
        return 0
    render = {"tree": render_tree, "flat": render_flat, "json": render_json}[
        args.format
    ]
    print(render(report))
    return 1 if report.findings else 0


def cmd_experiments(args) -> int:
    print(
        "The experiment index in DESIGN.md section 5 maps every claim in "
        "the paper to a benchmark (measured results: EXPERIMENTS.md).\n"
        "Run them with:\n\n"
        "    python -m pytest benchmarks/ -q --benchmark-disable  # every asserted shape\n"
        "    python3 benchmarks/e2e/run.py                        # the one wall-clock yardstick\n"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GridRM reproduction (Baker & Smith, CLUSTER 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="build a site and show the console")
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("query", help="run a SQL query against an agent")
    _add_common(p)
    p.add_argument("sql", help='e.g. "SELECT * FROM Processor"')
    p.add_argument("--kind", default="snmp", help="agent kind to target")
    p.add_argument("--url", default=None, help="explicit JDBC URL")
    p.add_argument(
        "--mode",
        default="realtime",
        choices=[m.value for m in QueryMode],
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("tree", help="print the data-source tree view")
    _add_common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("discover", help="network-scan for data sources")
    _add_common(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("health", help="print the circuit-breaker scoreboard")
    _add_common(p)
    p.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="HOST",
        help="take this host down before polling (repeatable)",
    )
    p.add_argument(
        "--rounds", type=int, default=3, help="poll rounds before reporting"
    )
    p.set_defaults(func=cmd_health)

    for sc in scenarios.SCENARIOS:
        _add_scenario_parser(sub, sc)

    p = sub.add_parser(
        "trace", help="run a query and print its hop-by-hop trace"
    )
    _add_common(p)
    p.add_argument(
        "sql",
        nargs="?",
        default="SELECT * FROM Processor",
        help='query to trace (default: "SELECT * FROM Processor")',
    )
    p.add_argument(
        "--url",
        action="append",
        default=None,
        metavar="JDBC_URL",
        help="explicit source URL(s) to query (repeatable; default: all)",
    )
    p.add_argument(
        "--mode",
        default="realtime",
        choices=[m.value for m in QueryMode],
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="also dump the gateway's metrics registry",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("schema", help="print the GLUE schema")
    p.add_argument("--xml", action="store_true", help="XML rendering")
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("report", help="capacity and utilisation report")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "lint", help="run the project's static analysis rules over source paths"
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings whose fingerprints appear in FILE",
    )
    p.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record current findings as the suppression baseline and exit 0",
    )
    p.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--format",
        default="tree",
        choices=["tree", "flat", "json"],
        help="tree (console idiom), flat (grep-friendly) or json (stable, "
        "machine-readable)",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("experiments", help="how to run the experiments")
    p.set_defaults(func=cmd_experiments)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
