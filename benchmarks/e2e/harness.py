"""One repetition: fresh testbed, set-up, warm-up, timed phase, checks.

The timed phase is a closed loop of one thread.  Wall time is split by
the :class:`layers.Recorder` into three payers — gateway-side code, the
simulated agents, and the harness/simulator itself — and an operation's
gateway-side time is what the gateway-side payer accrued since the
previous operation ended: the operation's own work plus any gateway
timers and datagram deliveries (checkpoints, lease sweeps, event pumps)
that fired in the think time before it, which a single-threaded server
would also have made the request wait for.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Sequence

from repro.core.acil import ClientResponse
from repro.core.dispatch import BRANCH_ERRORS
from repro.core.policy import GatewayPolicy
from repro.storage.engine import HistoryEngine
from repro.web import servlet as web_servlet

from layers import AGENT_SIDE, GATEWAY, HARNESS, MAX_SPANS, Recorder
from testbed import BENCH_POLICY, PORTAL, Grid3, build_grid3
from workloads import Expect, Step, Workload, request

#: Share of the timed operations run first, untimed.
WARMUP_SHARE = 0.05

#: Seconds the calibration kernel takes on the sandbox the benchmark was
#: sized on; end-to-end wall metrics are reported at that machine speed.
CALIBRATION_REFERENCE_S = 0.010


#: Kernel runs spread evenly through one timed phase.
CALIBRATION_SAMPLES = 32


def calibration_seconds() -> float:
    """Time a fixed slice of interpreter work that touches no ``repro``
    code: filter, sort, group and render 4000 dict rows, 6 times.

    Identical runs on the sandbox differ by a tenth in *every* wall
    number, for seconds to minutes at a stretch (host frequency and
    neighbours), which no amount of repetition inside a run averages
    out.  The kernel rides the same drift: it is run throughout a phase,
    and the phase's times are scaled by ``CALIBRATION_REFERENCE_S`` over
    the mean kernel time, which removes most of it.  The collector is
    off inside the kernel: a collection's cost follows the size of the
    workload's heap, and the kernel must not.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = perf_counter()
    rows = [
        {"host": f"n{i:02d}", "load": i * 0.37 % 5, "cpu": i % 8, "t": float(i)}
        for i in range(4000)
    ]
    total = 0.0
    for _ in range(6):
        picked = [r for r in rows if r["load"] > 1.0 and r["cpu"] < 6]
        picked.sort(key=lambda r: (r["load"], r["host"]))
        total += len(repr([list(r.values()) for r in picked[:50]]))
        groups: dict[int, list[float]] = {}
        for r in rows:
            groups.setdefault(r["cpu"], []).append(r["load"])
        total += sum(max(v) for v in groups.values())
    elapsed = perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


@dataclass
class Repetition:
    """Everything one repetition measured."""

    n_ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    #: Mean calibration-kernel seconds around the set-up and through the
    #: timed phase.
    setup_kernel_s: float = 0.0
    timed_kernel_s: float = 0.0
    wall_s: float = 0.0
    gateway_s: float = 0.0
    agents_s: float = 0.0
    idle_s: float = 0.0
    #: Gateway-side seconds per operation.
    gw_samples: list[float] = field(default_factory=list)
    #: Virtual request-to-reply seconds.
    virt_samples: list[float] = field(default_factory=list)
    agent_requests: int = 0
    #: Wire bytes per request over steps made only of remote-site requests.
    remote_bytes: float = 0.0
    #: Public-counter deltas over the timed phase.
    counters: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: (layer, name, seconds, calls, n_in, n_out) per wrapped callable.
    owners: list[tuple[str, str, float, int, int, int]] = field(default_factory=list)
    spans: "list[list[Any]] | None" = None
    probes: dict[str, float] = field(default_factory=dict)
    kinds: dict[str, int] = field(default_factory=dict)

    def deterministic(self) -> dict[str, Any]:
        """The columns that must repeat exactly for one seed."""
        return {
            "n_ops": self.n_ops,
            "failed": self.failed,
            "digest": self.digest,
            "agent_requests": self.agent_requests,
            "virt_sum": sum(self.virt_samples),
            "counters": self.counters,
        }


def check_reply(reply: ClientResponse, expect: Expect) -> list[str]:
    """Why ``reply`` is wrong, or ``[]``."""
    if not reply.ok:
        return [f"request failed: {reply.error}"]
    errors = [
        f"source {s['url']}: ok={s['ok']} shed={s['shed']} {s['error']}"
        for s in reply.statuses
        if not s.get("ok") or s.get("shed")
    ]
    rows = reply.rows
    if expect.sources is not None and len(reply.statuses) != expect.sources:
        errors.append(f"{len(reply.statuses)} statuses, expected {expect.sources}")
    if expect.rows is not None and len(rows) != expect.rows:
        errors.append(f"{len(rows)} rows, expected {expect.rows}")
    if expect.hosts is not None:
        key = next((c for c in reply.columns if c.endswith("HostName")), None)
        got = {r.get(key) for r in rows}
        if got != expect.hosts:
            errors.append(f"hosts {sorted(map(str, got))} != {sorted(expect.hosts)}")
    if expect.sites is not None and {r.get("SiteName") for r in rows} != expect.sites:
        errors.append(f"sites != {sorted(expect.sites)}")
    if expect.first_cell is not None:
        cells = [next(iter(r.values()), None) for r in rows]
        if any(c != expect.first_cell for c in cells):
            errors.append(f"first cells {cells} != {expect.first_cell}")
    return errors


def _digest_reply(h: "hashlib._Hash", reply: ClientResponse) -> None:
    flags = [
        (s["url"], s["ok"], s["rows"], s["from_cache"], s["degraded"], s["coalesced"], s["shed"])
        for s in reply.statuses
    ]
    h.update(repr((reply.columns, [list(r.values()) for r in reply.rows], flags)).encode())


def execute(tb: Grid3, workload: Workload, step: Step) -> tuple[list[Any], list[float]]:
    """Issue one step through its public entry point.

    Returns the replies and the virtual latency of each.
    """
    if step.kind == "get":
        before = tb.clock.now()
        reply = web_servlet.http_get(tb.network, PORTAL, tb.servlet.address, step.target)
        return [reply], [tb.clock.now() - before]
    acil = tb.gateway.acil
    if len(step.requests) == 1:
        replies = [acil.query(step.requests[0])]
    else:
        replies = acil.query_many(step.requests)
    if step.kind == "publish":
        tb.clock.advance(workload.DRAIN)
    return replies, [r.elapsed for r in replies]


def counters(tb: Grid3, workload: Workload) -> dict[str, float]:
    """Every public counter the per-layer metrics read, flattened."""
    gw = tb.gateway
    out: dict[str, float] = {}
    for name, value in gw.metrics.snapshot().items():
        if isinstance(value, dict):  # histogram
            out[name + ".count"] = float(value["count"])
            out[name + ".sum"] = float(value["mean"]) * value["count"]
        else:
            out[name] = float(value)
    for name, value in tb.network.stats.as_dict().items():
        out["net." + name] = float(value)
    stats = gw.stats()
    for name, value in stats["events"].items():
        out["events." + name] = float(value)
    for name, value in stats["durability"]["disk"].items():
        out["disk." + name] = float(value)
    for name, value in gw.streams.snapshot().items():
        if isinstance(value, (int, float)):
            out["streams." + name] = float(value)
    for name, value in tb.publisher.stats.items():
        out["publisher." + name] = float(value)
    out["history.rows_recorded"] = float(gw.history.rows_recorded)
    hits = misses = 0
    for driver in gw.registry.drivers():
        out[f"fetches.{driver.protocol}"] = float(driver.stats["fetches"])
        cache = getattr(driver, "cache", None)
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
    out["fetches"] = sum(v for k, v in out.items() if k.startswith("fetches."))
    out["response_cache.hits"] = float(hits)
    out["response_cache.misses"] = float(misses)
    out.update(workload.extra_counters())
    return out


def _drive(
    tb: Grid3,
    workload: Workload,
    steps: Sequence[Step],
    rec: Recorder,
    rep: "Repetition | None",
) -> None:
    """Run ``steps``; record into ``rep`` when given (the timed phase)."""
    h = hashlib.sha256()
    gw_prev = 0.0
    remote_bytes, remote_requests = 0.0, 0
    bytes_sent = tb.network.metrics.counter("net.bytes_sent")
    kernels: list[float] = []
    every = max(1, len(steps) // CALIBRATION_SAMPLES)
    for index, step in enumerate(steps):
        if rep is not None and index % every == 0:
            kernels.append(calibration_seconds())
        tb.clock.advance(step.think)
        rec.op = index
        sent_before = bytes_sent.value
        rec.switch(rec.in_op)
        try:
            replies, latencies = execute(tb, workload, step)
            error = None
        except BRANCH_ERRORS as exc:  # what a client may legitimately be handed
            replies, latencies = [], []
            error = f"{type(exc).__name__}: {exc}"
        finally:
            rec.switch(rec.idle)
        if rep is None:
            continue
        gw_now = rec.kind_seconds[GATEWAY]
        rep.gw_samples.extend([(gw_now - gw_prev) / step.size] * step.size)
        gw_prev = gw_now
        rep.n_ops += step.size
        rep.virt_samples.extend(latencies)
        if step.remote_only:
            remote_bytes += bytes_sent.value - sent_before
            remote_requests += step.size
        problems = [error] if error else []
        if step.kind == "get":
            code, body = replies[0] if replies else (0, "")
            h.update(body.encode())
            refused = " failed=" in body and " failed=0 " not in body
            if not error and (code != 200 or refused):
                problems.append(f"GET {step.target}: {code} {body[-120:]}")
        else:
            for reply, expect in zip(replies, step.expects):
                _digest_reply(h, reply)
                problems += check_reply(reply, expect)
        if problems:
            rep.failed += step.size
            if len(rep.errors) < 10:
                rep.errors.append(f"op {index} ({step.kind}): " + "; ".join(problems))
        if rec.spans is not None and len(rec.spans) >= MAX_SPANS:
            rep.spans, rec.spans = rec.spans, None  # keep totals, stop recording
    if rep is not None:
        rep.timed_kernel_s = statistics.mean(kernels)
        rep.digest = h.hexdigest()
        rep.remote_bytes = remote_bytes / remote_requests if remote_requests else 0.0


def run_repetition(
    workload_cls: "type[Workload]",
    seed: int,
    n_ops: int,
    rec: Recorder,
    *,
    policy: GatewayPolicy = BENCH_POLICY,
    spans: bool = False,
    probes: bool = False,
) -> Repetition:
    """Build ``grid3``, set the workload up, warm up, then time ``n_ops``."""
    rep = Repetition()
    gc.collect()  # the previous repetition's testbed is not this one's cost
    kernels = [calibration_seconds() for _ in range(3)]
    started = perf_counter()
    workload = workload_cls()
    rng = random.Random(f"{workload.name}/{seed}")
    tb = build_grid3(seed, policy=policy, traps=workload.traps)
    workload.prepare(tb, rng)
    n_warm = max(1, round(n_ops * WARMUP_SHARE))
    steps = workload.steps(tb, rng, n_warm + n_ops)
    # Steps may hold several operations; split on operation count.
    done, split = 0, 0
    while done < n_warm:
        done += steps[split].size
        split += 1
    for step in steps[:split]:
        step.think = workload.think  # the mean: set-up time must not ride the draw
    _drive(tb, workload, steps[:split], rec, None)
    rep.setup_s = perf_counter() - started
    kernels += [calibration_seconds() for _ in range(3)]
    rep.setup_kernel_s = statistics.mean(kernels)

    timed_steps = steps[split:]
    for step in timed_steps:
        for label in step.labels:
            rep.kinds[label] = rep.kinds.get(label, 0) + 1
    workload.begin_timed()
    before = counters(tb, workload)
    rec.reset(spans=spans)
    phase_started = rec.mark
    _drive(tb, workload, timed_steps, rec, rep)
    rep.wall_s = rec.mark - phase_started
    rep.gateway_s = rec.kind_seconds[GATEWAY]
    rep.agents_s = rec.kind_seconds[AGENT_SIDE]
    rep.idle_s = rec.kind_seconds[HARNESS]
    rep.agent_requests = rec.agent_requests()
    if rep.spans is None:
        rep.spans = rec.spans
    rep.owners = [
        (o.layer, o.name, o.seconds, o.calls, o.n_in, o.n_out)
        for o in rec.owners.values()
        if o.calls or o.seconds
    ]
    rec.reset(spans=False)
    after = counters(tb, workload)
    rep.counters = {k: after[k] - before.get(k, 0.0) for k in sorted(after)}

    latencies = workload.virtual_latencies()
    if latencies is not None:
        rep.virt_samples = latencies
    problems = workload.verify(tb, timed_steps)
    if problems:
        rep.failed = max(rep.failed, 1)
        rep.errors += problems
    if probes:
        rep.probes = run_probes(tb)
    return rep


def run_probes(tb: Grid3) -> dict[str, float]:
    """Two single-shot prices kept out of the timed mixes: one unwindowed
    HISTORY-mode join (a per-host product) and one cold reopen of the
    repetition's disk.  Both read 0 where the workload recorded nothing."""
    gw = tb.gateway
    out = {"join_probe_ms": 0.0, "join_probe_rows": 0.0}
    if gw.history.row_count("Processor") and gw.history.row_count("MainMemory"):
        probe = request(
            tb.urls("snmp")[:1],
            "SELECT Processor.HostName, LoadAverage1Min, RAMAvailableMB "
            "FROM Processor, MainMemory",
            "history",
        )
        started = perf_counter()
        reply = gw.acil.query(probe)
        out["join_probe_ms"] = (perf_counter() - started) * 1e3
        out["join_probe_rows"] = float(len(reply.rows))
    gw.crash()  # no final checkpoint: recovery replays the WAL tail
    started = perf_counter()
    engine = HistoryEngine(
        gw.disk,
        clock=tb.clock,
        sync_interval=gw.policy.history_fsync_interval,
        max_rows_per_group=gw.policy.history_max_rows_per_group,
    )
    out["recovery_ms"] = (perf_counter() - started) * 1e3
    out["recovery_rows"] = float(
        engine.recovery_report.segment_rows + engine.recovery_report.wal_records_replayed
    )
    return out
