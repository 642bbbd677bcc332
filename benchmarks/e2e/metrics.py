"""Metric names, units, directions and how each is computed.

``END_TO_END`` are what a user of the gateway sees; each carries the
bound by which it may worsen.  ``PER_LAYER`` are single-layer numbers
with no bound: ``T`` ones come from the traced repetition (wrappers in
``layers.py``), ``C`` ones are deltas of public counters over the
untraced timed phase and repeat exactly for a seed.  ``BENCHMARK.json``
is generated from these tables (``run.py --manifest``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from harness import CALIBRATION_REFERENCE_S, Repetition
from layers import AGENTS, NAMED_LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: "float | None" = None
    #: A count or a virtual time: repeats bit for bit for one seed.
    exact: bool = False


#: Bounds are at least three times the seed-to-seed spread (quartile distance over
#: median, ten seeds) measured on the 2-core sandbox, capped at a quarter.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("gw_qps", "1/s", "higher", 0.20),
    Metric("gw_us_p50", "us", "lower", 0.25),
    Metric("gw_us_p95", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.12),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(rep: Repetition) -> dict[str, float]:
    """The wall metrics of one repetition, scaled to the reference machine
    speed by the calibration kernel timed around each phase
    (``peak_rss_mb`` is per process and added by the caller)."""
    setup = ratio(CALIBRATION_REFERENCE_S, rep.setup_kernel_s)
    timed = ratio(CALIBRATION_REFERENCE_S, rep.timed_kernel_s)
    micros = [s * 1e6 * timed for s in rep.gw_samples]
    return {
        "setup_s": rep.setup_s * setup,
        "gw_qps": ratio(rep.n_ops, rep.gateway_s * timed),
        "gw_us_p50": percentile(micros, 50),
        "gw_us_p95": percentile(micros, 95),
    }


def summarise(per_rep: Sequence[dict[str, float]]) -> dict[str, dict[str, float]]:
    """name -> min / median / max over repetitions."""
    return {
        name: {
            "min": min(r[name] for r in per_rep),
            "median": statistics.median(r[name] for r in per_rep),
            "max": max(r[name] for r in per_rep),
        }
        for name in per_rep[0]
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class Context:
    """What the per-layer formulas read.

    ``u``: an untraced repetition (counters, gateway-side wall);
    ``t``: the traced repetition (per-owner self time, calls, units);
    ``off``: an untraced repetition with the product tracer disabled.
    """

    def __init__(self, u: Repetition, t: Repetition, off: Repetition) -> None:
        self.u, self.t, self.off = u, t, off

    def delta(self, counter: str) -> float:
        return self.u.counters.get(counter, 0.0)

    def _owners(self, layers: Sequence[str], name: "str | None"):
        for layer, owner_name, seconds, calls, n_in, n_out in self.t.owners:
            if layer in layers and (name is None or name in owner_name):
                yield seconds, calls, n_in, n_out

    def seconds(self, *layers: str, name: "str | None" = None) -> float:
        return sum(o[0] for o in self._owners(layers, name))

    def calls(self, *layers: str, name: "str | None" = None) -> int:
        return sum(o[1] for o in self._owners(layers, name))

    def rows_in(self, layer: str, name: str) -> int:
        return sum(o[2] for o in self._owners((layer,), name))

    def rows_out(self, layer: str, name: str) -> int:
        return sum(o[3] for o in self._owners((layer,), name))

    def self_us(self, *layers: str) -> float:
        """Self time of the layers per operation, in microseconds."""
        return ratio(self.seconds(*layers) * 1e6, self.t.n_ops)

    def us_per(self, seconds: float, count: float) -> float:
        return ratio(seconds * 1e6, count)


DRIVER_KINDS = ("snmp", "ganglia", "scms", "nws", "netlogger", "sql")
DRIVER_LAYERS = ("drivers", *(f"drivers.{kind}" for kind in DRIVER_KINDS))


def _events(c: Context) -> float:
    return c.delta("events.translated") + c.delta("events.internal")


def _unattributed(c: Context) -> float:
    named = sum(
        seconds
        for layer, _, seconds, *_ in c.t.owners
        if layer in NAMED_LAYERS and layer != AGENTS
    )
    return ratio(c.t.gateway_s - named, c.t.gateway_s)


def _per_kind(kind: str) -> Callable[[Context], float]:
    layer = f"drivers.{kind}"
    return lambda c: c.us_per(
        c.seconds(layer, name="fetch_group"), c.calls(layer, name="fetch_group")
    )


Formula = Callable[[Context], float]

PER_LAYER: tuple[tuple[Metric, Formula], ...] = (
    (Metric("web.self_us", "us", "lower"), lambda c: c.self_us("web")),
    (Metric("core.acil.self_us", "us", "lower"), lambda c: c.self_us("core.acil")),
    (Metric("core.gateway.self_us", "us", "lower"), lambda c: c.self_us("core.gateway")),
    (Metric("core.admission.self_us", "us", "lower"), lambda c: c.self_us("core.admission")),
    (
        Metric("core.admission.queue_wait_virt_ms", "ms", "lower", exact=True),
        lambda c: ratio(c.delta("admission.queue_wait_time.sum") * 1e3, c.u.n_ops),
    ),
    (
        Metric("core.admission.shed_fraction", "ratio", "lower", exact=True),
        lambda c: ratio(
            c.delta("shed.total"), c.delta("shed.total") + c.delta("admission.admitted")
        ),
    ),
    (
        Metric("core.admission.brownout_fraction", "ratio", "lower", exact=True),
        lambda c: ratio(
            c.delta("admission.brownout_served"),
            c.delta("admission.brownout_served") + c.delta("admission.admitted"),
        ),
    ),
    (Metric("core.plans.self_us", "us", "lower"), lambda c: c.self_us("core.plans")),
    (
        Metric("core.plans.hit_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(c.delta("plans.hits"), c.delta("plans.hits") + c.delta("plans.misses")),
    ),
    (Metric("core.plans.compiles", "count", "lower", exact=True), lambda c: c.delta("plans.misses")),
    (
        Metric("sql.parser.self_us_per_parse", "us", "lower"),
        lambda c: c.us_per(c.seconds("sql.parser"), c.calls("sql.parser")),
    ),
    (Metric("core.cache.self_us", "us", "lower"), lambda c: c.self_us("core.cache")),
    (
        Metric("core.cache.hit_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(c.delta("cache.hits"), c.delta("cache.hits") + c.delta("cache.misses")),
    ),
    (Metric("core.cache.evictions", "count", "lower", exact=True), lambda c: c.delta("cache.evictions")),
    (
        Metric("core.request_manager.self_us", "us", "lower"),
        lambda c: c.self_us("core.request_manager"),
    ),
    (Metric("core.dispatch.self_us", "us", "lower"), lambda c: c.self_us("core.dispatch")),
    (
        Metric("core.dispatch.singleflight_joins", "count", "higher", exact=True),
        lambda c: c.delta("dispatch.singleflight_joins"),
    ),
    (
        Metric("core.dispatch.hedges_fired", "count", "lower", exact=True),
        lambda c: c.delta("dispatch.hedges_fired"),
    ),
    (
        Metric("core.dispatch.cap_wait_virt_ms", "ms", "lower", exact=True),
        lambda c: ratio(c.delta("dispatch.cap_wait_time") * 1e3, c.u.n_ops),
    ),
    (
        Metric("core.connection_manager.self_us", "us", "lower"),
        lambda c: c.self_us("core.connection_manager"),
    ),
    (
        Metric("core.connection_manager.reuse_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(c.delta("pool.reused"), c.delta("pool.acquires")),
    ),
    (
        Metric("core.driver_manager.self_us", "us", "lower"),
        lambda c: c.self_us("core.driver_manager"),
    ),
    (
        Metric("core.driver_manager.cache_hit_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(c.delta("drivers.cache_hits"), c.delta("drivers.selections")),
    ),
    (
        Metric("drivers.self_us_per_fetch", "us", "lower"),
        lambda c: c.us_per(
            c.seconds(*DRIVER_LAYERS), c.calls(*DRIVER_LAYERS, name="fetch_group")
        ),
    ),
    *(
        (Metric(f"drivers.{kind}.self_us_per_fetch", "us", "lower"), _per_kind(kind))
        for kind in DRIVER_KINDS
    ),
    (
        Metric("drivers.native_requests_per_fetch", "count", "lower", exact=True),
        lambda c: ratio(c.u.agent_requests, c.delta("fetches")),
    ),
    (
        Metric("drivers.response_cache_hit_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(
            c.delta("response_cache.hits"),
            c.delta("response_cache.hits") + c.delta("response_cache.misses"),
        ),
    ),
    (
        Metric("glue.mapping.self_us_per_row", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("glue.mapping"), c.rows_out("glue.mapping", "translate_rows")
        ),
    ),
    (
        Metric("simnet.network.self_us_per_request", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("simnet.network"),
            c.calls("simnet.network", name="Network.request")
            + c.calls("simnet.network", name="Network.send"),
        ),
    ),
    (Metric("simnet.network.requests", "count", "lower", exact=True), lambda c: c.delta("net.requests")),
    (Metric("simnet.network.datagrams", "count", "lower", exact=True), lambda c: c.delta("net.datagrams")),
    (Metric("simnet.network.drops", "count", "lower", exact=True), lambda c: c.delta("net.drops")),
    (
        Metric("agents.self_us_per_request", "us", "lower"),
        lambda c: c.us_per(c.u.agents_s, c.u.agent_requests),
    ),
    (
        Metric("agents.share_of_wall", "ratio", "lower"),
        lambda c: ratio(c.u.agents_s, c.u.wall_s),
    ),
    (Metric("process.qps", "1/s", "higher"), lambda c: ratio(c.u.n_ops, c.u.wall_s)),
    (
        Metric("sql.plan.self_us_per_execute", "us", "lower"),
        lambda c: c.us_per(c.seconds("sql.plan"), c.calls("sql.plan", name="execute")),
    ),
    (
        Metric("sql.plan.rows_in_per_execute", "count", "lower", exact=True),
        lambda c: ratio(c.rows_in("sql.plan", "execute"), c.calls("sql.plan", name="execute")),
    ),
    (
        Metric("sql.plan.rows_out_per_execute", "count", "lower", exact=True),
        lambda c: ratio(c.rows_out("sql.plan", "execute"), c.calls("sql.plan", name="execute")),
    ),
    (
        Metric("core.history.record_self_us_per_row", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("core.history", name="record"), c.rows_out("core.history", "record")
        ),
    ),
    (
        Metric("core.history.query_self_us", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("core.history", name="query"), c.calls("core.history", name="query")
        ),
    ),
    (
        Metric("core.history.rows_scanned_per_row_returned", "count", "lower", exact=True),
        lambda c: ratio(
            c.rows_in("core.history", "query"), c.rows_out("core.history", "query")
        ),
    ),
    (
        Metric("core.history.join_probe_ms", "ms", "lower"),
        lambda c: c.u.probes.get("join_probe_ms", 0.0),
    ),
    (
        Metric("storage.wal.self_us_per_record", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("storage", name="WriteAheadLog"),
            c.calls("storage", name="WriteAheadLog.append"),
        ),
    ),
    (
        Metric("storage.wal.bytes_per_row", "bytes", "lower", exact=True),
        lambda c: ratio(c.delta("wal.bytes"), c.delta("history.rows_recorded")),
    ),
    (Metric("storage.simdisk.fsyncs", "count", "lower", exact=True), lambda c: c.delta("disk.fsyncs")),
    (
        Metric("storage.simdisk.bytes_written", "bytes", "lower", exact=True),
        lambda c: c.delta("disk.bytes_written"),
    ),
    (
        Metric("storage.engine.checkpoints", "count", "lower", exact=True),
        lambda c: c.delta("checkpoint.runs"),
    ),
    (
        Metric("storage.engine.checkpoint_self_ms", "ms", "lower"),
        lambda c: ratio(
            c.seconds("storage", name="HistoryEngine.checkpoint") * 1e3,
            c.calls("storage", name="HistoryEngine.checkpoint"),
        ),
    ),
    (
        Metric("storage.engine.recovery_ms", "ms", "lower"),
        lambda c: c.u.probes.get("recovery_ms", 0.0),
    ),
    (
        Metric("gma.global_layer.self_us_per_remote_query", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("gma.global_layer"), c.calls("gma.global_layer", name="query_remote")
        ),
    ),
    (
        Metric("gma.global_layer.remote_cache_hit_ratio", "ratio", "higher", exact=True),
        lambda c: ratio(c.delta("gma.remote_cache_hits"), c.delta("gma.remote_queries")),
    ),
    (
        Metric("gma.global_layer.wire_bytes_per_remote_query", "bytes", "lower", exact=True),
        lambda c: c.u.remote_bytes,
    ),
    (
        Metric("gma.streams.publish_self_us", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("gma.streams", name="StreamHub")
            + c.seconds("gma.streams", name="encode_batch"),
            c.calls("gma.streams", name="StreamHub.publish"),
        ),
    ),
    (
        Metric("gma.streams.consumer_self_us_per_batch", "us", "lower"),
        lambda c: c.us_per(
            c.seconds("gma.streams", name="StreamConsumer")
            + c.seconds("gma.streams", name="decode_batch")
            + c.seconds("gma.streams", name="Republisher"),
            c.calls("gma.streams", name="StreamConsumer._on_datagram"),
        ),
    ),
    (
        Metric("gma.streams.pushes_per_publish", "count", "lower", exact=True),
        lambda c: ratio(c.delta("streams.pushes"), c.delta("requests.realtime_fetches")),
    ),
    (
        Metric("gma.streams.unsatisfied_per_publish", "count", "lower", exact=True),
        lambda c: ratio(c.delta("streams.unsatisfied"), c.delta("requests.realtime_fetches")),
    ),
    (Metric("gma.streams.buffer_drops", "count", "lower", exact=True), lambda c: c.delta("streams.dropped")),
    (
        Metric("core.events.self_us_per_event", "us", "lower"),
        lambda c: c.us_per(c.seconds("core.events"), _events(c)),
    ),
    (
        Metric("core.events.dropped_fraction", "ratio", "lower", exact=True),
        lambda c: ratio(c.delta("events.dropped"), c.delta("events.received")),
    ),
    (
        Metric("gma.subscription.self_us_per_event", "us", "lower"),
        lambda c: c.us_per(c.seconds("gma.subscription"), _events(c)),
    ),
    (
        Metric("gma.archiver.self_us_per_event", "us", "lower"),
        lambda c: c.us_per(c.seconds("gma.archiver"), c.delta("archiver.archived")),
    ),
    (Metric("gma.archiver.archived", "count", "higher", exact=True), lambda c: c.delta("archiver.archived")),
    (Metric("obs.trace.self_us", "us", "lower"), lambda c: c.self_us("obs.trace")),
    (
        Metric("obs.trace.spans_per_op", "count", "lower", exact=True),
        lambda c: ratio(
            c.calls("obs.trace", name="Tracer.span.enter")
            + c.calls("obs.trace", name="Tracer.start_trace.enter"),
            c.t.n_ops,
        ),
    ),
    (
        Metric("obs.trace.overhead_ratio", "ratio", "lower"),
        lambda c: ratio(
            ratio(c.off.n_ops, c.off.gateway_s), ratio(c.u.n_ops, c.u.gateway_s)
        ),
    ),
    (
        Metric("bench.layer_timer_overhead_ratio", "ratio", "lower"),
        lambda c: ratio(ratio(c.t.gateway_s, c.t.n_ops), ratio(c.u.gateway_s, c.u.n_ops)),
    ),
    (Metric("bench.unattributed_share", "ratio", "lower"), _unattributed),
    (Metric("bench.think_wall_share", "ratio", "lower"), lambda c: ratio(c.u.idle_s, c.u.wall_s)),
    (Metric("bench.calibration_ms", "ms", "lower"), lambda c: c.u.timed_kernel_s * 1e3),
    # User-visible quantities that are legitimately 0 on some workload
    # (no agent traffic on history_scan, 0 virtual ms on a cache hit), so
    # the benchmark contract keeps them out of the bounded list.
    (
        Metric("virt_ms_p50", "ms", "lower", exact=True),
        lambda c: percentile(c.u.virt_samples, 50) * 1e3,
    ),
    (
        Metric("virt_ms_p95", "ms", "lower", exact=True),
        lambda c: percentile(c.u.virt_samples, 95) * 1e3,
    ),
    (
        Metric("agent_requests_per_query", "count", "lower", exact=True),
        lambda c: ratio(c.u.agent_requests, c.u.n_ops),
    ),
    (
        Metric("wire_bytes_per_query", "bytes", "lower", exact=True),
        lambda c: ratio(c.delta("net.bytes_sent"), c.u.n_ops),
    ),
    (Metric("failed_fraction", "ratio", "lower", exact=True), lambda c: ratio(c.u.failed, c.u.n_ops)),
)


def per_layer(context: Context) -> dict[str, float]:
    return {metric.name: float(formula(context)) for metric, formula in PER_LAYER}


def layer_shares(t: Repetition) -> dict[str, float]:
    """Each named layer's share of the traced gateway-side wall (driver
    kinds folded into ``drivers``), largest first."""
    totals: dict[str, float] = {}
    for layer, _, seconds, *_ in t.owners:
        if layer == AGENTS or layer.startswith("("):
            continue
        key = "drivers" if layer.startswith("drivers.") else layer
        totals[key] = totals.get(key, 0.0) + seconds
    return {
        layer: ratio(seconds, t.gateway_s)
        for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    }


#: Layer groups whose ranking the workload designs predict (README.md).
GROUPS = {
    "fetch": ("drivers", "simnet.network", "glue.mapping", "core.dispatch"),
    "query": ("sql.plan", "core.history", "core.plans", "sql.parser"),
    "push": ("gma.streams", "core.events", "gma.subscription", "gma.archiver"),
}


def group_shares(shares: dict[str, float]) -> dict[str, float]:
    return {
        group: sum(shares.get(layer, 0.0) for layer in members)
        for group, members in GROUPS.items()
    }


def manifest(workloads: Sequence[Any], command: list[str], run_seconds: int) -> dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": command,
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m, _ in PER_LAYER
        ],
    }

