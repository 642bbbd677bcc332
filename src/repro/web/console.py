"""The management console (paper Figures 6-9, rendered as text/HTML).

Reproduces the JSP views' behaviour, including the crucial caching
semantics of Figure 9: "The JSP tree view ... is populated with cached
data from queries issued within the local gateway. ... To obtain
real-time data either the user must explicitly poll a given resource or
refresh their tree view after other users have initiated a poll."

* :meth:`Console.tree_view` — the source tree with status icons, built
  *only* from cache, events and recorded poll status (no agent traffic).
* :meth:`Console.poll` — an explicit user poll of one source (real
  time, repopulating the cache for everyone else).
* :meth:`Console.refresh` — re-read of the tree (cached data only).
* :meth:`Console.driver_panel` — the Figure 8 registration panel.
* :meth:`Console.plot` — ASCII plot of a recorded historical series
  ("Click icon to plot historical/current values").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.health import BreakerState
from repro.core.request_manager import QueryMode, QueryResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway

#: Status icons, text renderings of Figure 9's legend.
ICON_FRESH = "[ok]"     # recent successful poll, cached data available
ICON_STALE = "[..]"     # polled long ago; cache may have expired
ICON_FAILED = "[xx]"    # last poll failed (comms failure / security)
ICON_NEVER = "[??]"     # never polled
ICON_EVENT = "[!!]"     # event received in the last n minutes
ICON_QUARANTINED = "[--]"  # circuit breaker OPEN: source not being polled
ICON_PROBING = "[~~]"   # circuit breaker HALF_OPEN: probing for recovery


class Console:
    """Stateless renderer over one gateway."""

    def __init__(self, gateway: "Gateway", *, event_window: float = 300.0) -> None:
        self.gateway = gateway
        self.event_window = event_window

    # ------------------------------------------------------------------
    # Tree view (Figures 6 and 9)
    # ------------------------------------------------------------------
    def _icon(self, source) -> str:
        now = self.gateway.network.clock.now()
        breaker = self.gateway.health.state(str(source.url))
        if breaker is BreakerState.OPEN:
            return ICON_QUARANTINED
        if breaker is BreakerState.HALF_OPEN:
            return ICON_PROBING
        recent_event = any(
            e.source_host == source.url.host
            and now - e.time <= self.event_window
            for e in self.gateway.events.recent
        )
        if recent_event:
            return ICON_EVENT
        if source.last_polled is None:
            return ICON_NEVER
        if source.last_ok is False:
            return ICON_FAILED
        if now - source.last_polled <= self.gateway.cache.ttl:
            return ICON_FRESH
        return ICON_STALE

    def tree_view(self) -> str:
        """Render the data-source tree from cached state only."""
        gw = self.gateway
        now = gw.network.clock.now()
        lines = [f"GridRM Gateway {gw.host} (site {gw.site})  t={now:.1f}s"]
        cached = gw.cache.entries_by_source()
        for source in gw.sources():
            icon = self._icon(source)
            age = (
                f"polled {now - source.last_polled:.1f}s ago"
                if source.last_polled is not None
                else "never polled"
            )
            lines.append(f"+- {icon} {source.url}  ({age})")
            for entry in cached.get(str(source.url), ()):
                lines.append(
                    f"|    cached: {entry.group} rows={len(entry.rows)} "
                    f"age={entry.age(now):.1f}s"
                )
            health = gw.health.health(str(source.url))
            if health.state is BreakerState.OPEN:
                lines.append(
                    f"|    breaker: OPEN until t={health.open_until:.1f}s "
                    f"(trips={health.trips})"
                )
            elif health.state is BreakerState.HALF_OPEN:
                lines.append("|    breaker: HALF_OPEN (probing)")
            if source.last_ok is False and source.last_error:
                lines.append(f"|    error: {source.last_error[:70]}")
        if not gw.sources():
            lines.append("+- (no data sources configured)")
        return "\n".join(lines)

    def refresh(self) -> str:
        """The user's refresh button: cached data only, no polling."""
        return self.tree_view()

    def poll(self, url: str, sql: str = "SELECT * FROM Host") -> QueryResult:
        """An explicit user poll of one source (real-time, fills cache)."""
        return self.gateway.query([url], sql, mode=QueryMode.REALTIME)

    def poll_all(self, sql: str = "SELECT * FROM Host") -> list[QueryResult]:
        """Poll every enabled source (the 'poll site' action).

        Dispatched as one concurrent batch: the whole site poll costs
        the slowest source's round-trip in virtual time, not the sum.
        A source that fails outright still yields a QueryResult whose
        statuses carry the error (per-source failures never raise).
        """
        from repro.core.gateway import BatchQuery

        batch = [
            BatchQuery(urls=[str(s.url)], sql=sql, mode=QueryMode.REALTIME)
            for s in self.gateway.sources()
            if s.enabled
        ]
        results = self.gateway.query_batch(batch)
        out: list[QueryResult] = []
        for result in results:
            if isinstance(result, Exception):
                raise result
            out.append(result)
        return out

    # ------------------------------------------------------------------
    # Driver panel (Figure 8)
    # ------------------------------------------------------------------
    def driver_panel(self) -> str:
        gw = self.gateway
        lines = ["Registered data source drivers:"]
        for driver in gw.registry.drivers():
            protocol = getattr(driver, "protocol", "?")
            lines.append(f"  - {driver.name()} v{driver.version()} (jdbc:{protocol}:)")
        prefs = gw.driver_manager._preferences
        if prefs:
            lines.append("Static driver preferences:")
            for key, pref in sorted(prefs.items()):
                lines.append(f"  - {key}: {' > '.join(pref.driver_names)}")
        lines.append(
            f"Failure policy: {gw.policy.failure_action.value} "
            f"(retries={gw.policy.failure_retries})"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Alerts view
    # ------------------------------------------------------------------
    def alerts_panel(self) -> str:
        """Installed alert rules, their firing state, and recent events."""
        gw = self.gateway
        monitor = gw.alerts
        lines = ["Alert rules:"]
        firing = set(monitor.firing())
        if not monitor.rules():
            lines.append("  (none installed)")
        for rule in monitor.rules():
            hosts = sorted(h for (name, h) in firing if name == rule.name)
            state = f"FIRING on {', '.join(hosts)}" if hosts else "quiet"
            lines.append(
                f"  - {rule.name}: every {rule.period:g}s, "
                f"severity={rule.severity}  [{state}]"
            )
        stats = monitor.stats
        lines.append(
            f"Polls: {stats['polls']}, violations: {stats['violations']}, "
            f"events: {stats['events_emitted']}, suppressed: {stats['suppressed']}"
        )
        recent = [e for e in self.gateway.events.recent if e.name.startswith("alert.")]
        if recent:
            lines.append("Recent alert events:")
            for event in list(recent)[-5:]:
                lines.append(
                    f"  t={event.time:8.1f}s  {event.source_host:14s} "
                    f"{event.name}  ({event.severity})"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Health scoreboard
    # ------------------------------------------------------------------
    def health_panel(self) -> str:
        """Per-source circuit-breaker scoreboard (up/degraded/quarantined)."""
        gw = self.gateway
        health = gw.health
        now = gw.network.clock.now()
        summary = health.summary()
        lines = [
            f"Source health @ t={now:.1f}s  "
            f"(breaker {'enabled' if gw.policy.breaker_enabled else 'DISABLED'}, "
            f"threshold={gw.policy.breaker_failure_threshold}, "
            f"backoff={gw.policy.breaker_base_backoff:g}s.."
            f"{gw.policy.breaker_max_backoff:g}s)"
        ]
        board = health.scoreboard()
        if not board:
            lines.append("  (no sources observed yet)")
        label = {
            BreakerState.CLOSED.value: "up",
            BreakerState.HALF_OPEN.value: "degraded",
            BreakerState.OPEN.value: "quarantined",
        }
        for key, entry in board.items():
            state = entry["state"]
            detail = ""
            if state == BreakerState.OPEN.value:
                detail = f" until t={entry['open_until']:.1f}s"
            lines.append(
                f"  - {key}: {label.get(state, state)}{detail}  "
                f"ok={entry['total_successes']} fail={entry['total_failures']} "
                f"trips={entry['trips']}"
            )
        lines.append(
            f"Trips: {summary['trips']}, recoveries: {summary['recoveries']}, "
            f"short-circuits: {summary['short_circuits']}"
        )
        recent = [e for e in gw.events.recent if e.name.startswith("breaker.")]
        if recent:
            lines.append("Recent breaker events:")
            for event in list(recent)[-5:]:
                lines.append(
                    f"  t={event.time:8.1f}s  {event.fields.get('source', '?')}  "
                    f"{event.name}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Dispatch / concurrency view
    # ------------------------------------------------------------------
    def dispatch_panel(self) -> str:
        """Concurrent-dispatch counters: fan-outs, single-flight
        coalescing, per-source cap queueing and cache eviction pressure."""
        gw = self.gateway
        d = gw.dispatcher.stats
        lines = [
            "Concurrent dispatch "
            f"(fan-out {'enabled' if gw.policy.fanout_enabled else 'DISABLED'}, "
            f"single-flight {'enabled' if gw.policy.singleflight_enabled else 'DISABLED'}, "
            f"cap/source={gw.dispatcher.max_concurrent_per_source or 'unlimited'})",
            f"  fan-outs: {d.fanouts} ({d.branches} branches), "
            f"serial runs: {d.serial_runs}",
            f"  flights: {d.flights}, coalesced joins: {d.singleflight_joins}",
            f"  cap waits: {d.cap_waits} "
            f"(total queued {d.cap_wait_time:.2f}s virtual)",
            f"Query cache: {len(gw.cache)}/{gw.cache.max_entries or 'unbounded'} "
            f"entries, {gw.cache.evictions} evicted "
            f"(hit ratio {gw.cache.hit_ratio:.0%})",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Overload / brownout view
    # ------------------------------------------------------------------
    def overload_panel(self) -> str:
        """Admission-control pressure state, shed ledger and adaptive
        concurrency limits (one line when the layer is disabled)."""
        gw = self.gateway
        snap = gw.overload.snapshot()
        if not snap["enabled"]:
            return (
                "Overload protection: DISABLED "
                "(policy.admission_enabled=False)"
            )
        sheds = snap["sheds"]
        limiter = snap["limiter"]
        gw_baseline = (
            "-"
            if limiter["baseline"] is None
            else f"{limiter['baseline'] * 1000:.1f}ms"
        )
        lines = [
            f"Overload protection @ t={gw.network.clock.now():.1f}s  "
            f"(adaptive concurrency "
            f"{'enabled' if gw.policy.adaptive_concurrency else 'DISABLED'})",
            f"  pressure: {snap['state'].upper()} "
            f"since t={snap['since']:.1f}s "
            f"({snap['transitions']} transitions)",
            f"  queue: {snap['queue_depth']}/{snap['queue_capacity']}, "
            f"in flight: {snap['inflight']}/{snap['limit']} "
            f"(headroom {snap['headroom']})",
            f"  admitted: {snap['admitted']} ({snap['queued']} queued), "
            f"doomed on dequeue: {snap['doomed']}, "
            f"brownout served: {snap['brownout_served']}",
            f"  sheds: {sheds['total']} "
            f"(critical={sheds['critical']}, "
            f"interactive={sheds['interactive']}, batch={sheds['batch']})",
            f"  gateway limiter: limit={limiter['limit']}, "
            f"baseline={gw_baseline}, "
            f"pending samples={limiter['pending_samples']}",
        ]
        per_source = gw.dispatcher.limiter_snapshot()
        if per_source:
            lines.append("Per-source adaptive limits:")
            for key, s in per_source.items():
                baseline = (
                    "-" if s["baseline"] is None else f"{s['baseline'] * 1000:.1f}ms"
                )
                lines.append(
                    f"  - {key}: limit={s['limit']}, baseline={baseline}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Streaming / continuous-query view
    # ------------------------------------------------------------------
    def streams_panel(self) -> str:
        """Continuous-query hub state: live subscriptions, push/replay
        counters and per-subscription buffers (one line when the
        streaming plane is disabled)."""
        gw = self.gateway
        if gw.streams is None:
            return (
                "Continuous queries: DISABLED "
                "(policy.streaming_enabled=False)"
            )
        snap = gw.streams.snapshot()
        lines = [
            f"Continuous queries @ t={gw.network.clock.now():.1f}s  "
            f"(sweep every {gw.policy.stream_sweep_period:g}s, "
            f"default lease {gw.policy.stream_default_lease:g}s, "
            f"cap {gw.policy.stream_max_subscriptions})",
            f"  subscriptions: {snap['subscriptions']} live, "
            f"{snap['tombstones']} in tombstone grace, "
            f"{snap['registered']} registered since start "
            f"({snap['expired']} expired, {snap['resurrected']} resurrected, "
            f"{snap['shed']} shed)",
            f"  pushes: {snap['pushes']} batches / {snap['tuples']} tuples "
            f"in {snap['frames']} frames, "
            f"replayed {snap['replayed']} on attach",
            f"  backpressure: {snap['dropped']} dropped, "
            f"{snap['suppressed']} suppressed in brownout",
            f"  groups seen: {', '.join(snap['groups']) or '(none)'}",
        ]
        buffers = gw.streams.buffer_stats()
        if buffers:
            lines.append("Live subscriptions:")
            for cq_id, b in sorted(buffers.items()):
                state = "PAUSED" if b["paused"] else "live"
                lines.append(
                    f"  - cq{cq_id} [{state}] {b['flavour']}/"
                    f"{b['query_class'] or 'interactive'} on {b['group']}: "
                    f"{b['delivered']} batches ({b['tuples']} tuples) "
                    f"delivered, buffer {b['buffered']}/{b['max_buffer']} "
                    f"({b['overflow']}, {b['dropped']} dropped)  "
                    f"{b['sql'][:48]}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Durability view
    # ------------------------------------------------------------------
    def durability_panel(self) -> str:
        """WAL / checkpoint / recovery state of the durable history
        engine, or a one-liner when ``history_durable`` is off."""
        gw = self.gateway
        engine = gw.history_engine
        if engine is None:
            return "Durable history: DISABLED (policy.history_durable=False)"
        s = engine.stats()
        wal, seg, disk = s["wal"], s["segments"], s["disk"]
        lines = [
            f"Durable history (fsync every {wal['sync_interval']} records, "
            f"ring {engine.max_rows_per_group} rows/group)",
            f"  WAL: gen {wal['gen']}, next_lsn {wal['next_lsn']}, "
            f"synced {wal['synced_lsn']} "
            f"({wal['unsynced_records']} records unsynced)",
            f"  segments: {seg['count']} sealed holding {seg['rows']} rows; "
            f"memtable {s['memtable_rows']} rows",
            f"  checkpoints: {s['checkpoints_run']} run "
            + (
                f"(last at t={s['last_checkpoint_at']:g}s)"
                if s["last_checkpoint_at"] is not None
                else "(none yet)"
            ),
            f"  disk: {disk['writes']} writes ({disk['bytes_written']} B), "
            f"{disk['fsyncs']} fsyncs, {disk['crashes']} crashes survived",
            f"  reads: {gw.history.queries} queries handed "
            f"{gw.history.rows_scanned} rows to their plans "
            f"({gw.history.row_count()} rows serving)",
        ]
        for group in sorted(seg["per_group"]):
            per = seg["per_group"][group]
            lines.append(
                f"    - {group}: {per['segments']} segments, {per['rows']} rows"
            )
        report = gw.recovery_report
        if report is not None:
            lines.append("Last recovery:")
            for line in report.format().splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Trace / metrics views
    # ------------------------------------------------------------------
    def trace_panel(self, trace_id: str | None = None) -> str:
        """One query's span tree, or a digest of the recent traces.

        Without an id: one line per retained trace (newest last) so the
        operator can pick one.  With an id: the full rendered tree, as
        produced by :meth:`repro.obs.trace.Trace.render`.
        """
        tracer = self.gateway.tracer
        if trace_id is not None:
            trace = tracer.get(trace_id)
            if trace is None:
                return f"trace {trace_id!r}: not found (retention {tracer.max_traces})"
            return trace.render().rstrip("\n")
        traces = tracer.traces()
        lines = [
            f"Query traces ({len(traces)} retained, "
            f"tracing {'enabled' if tracer.enabled else 'DISABLED'}):"
        ]
        if not traces:
            lines.append("  (none recorded)")
        for trace in traces:
            root = trace.root
            status = root.status if root is not None else "?"
            spans = len(trace.spans)
            sql = root.attrs.get("sql", "") if root is not None else ""
            lines.append(
                f"  - {trace.trace_id}: {trace.name} "
                f"{trace.duration:.6f}s spans={spans} status={status}"
                + (f"  {sql[:48]}" if sql else "")
            )
        return "\n".join(lines)

    def metrics_panel(self) -> str:
        """Every registry instrument, one line each (the text analogue
        of ``SELECT * FROM GatewayMetrics``)."""
        gw = self.gateway
        lines = [f"Gateway metrics ({len(gw.metrics)} instruments):"]
        for row in gw.metrics.as_rows():
            if row["kind"] == "histogram":
                lines.append(
                    f"  {row['name']} (histogram): n={row['count']} "
                    f"mean={row['value']:.6f} p50={row['p50']:.6f} "
                    f"p95={row['p95']:.6f} p99={row['p99']:.6f}"
                )
            else:
                lines.append(f"  {row['name']} ({row['kind']}): {row['value']:g}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Static analysis view
    # ------------------------------------------------------------------
    def analysis_panel(self) -> str:
        """Findings from the gateway's static-analysis pass: driver
        conformance, unloadable persisted specs, invalid alert SQL."""
        from repro.analysis.linter import render_tree

        report = self.gateway.analyze()
        return render_tree(
            report, title=f"Static analysis ({self.gateway.host})"
        )

    # ------------------------------------------------------------------
    # Historical plot (Figure 9's click-to-plot)
    # ------------------------------------------------------------------
    def plot(
        self,
        group: str,
        field: str,
        *,
        host: str | None = None,
        source_url: str | None = None,
        width: int = 60,
        height: int = 10,
    ) -> str:
        """ASCII chart of a field's recorded history."""
        series = self.gateway.history.series(
            group, field, host=host, source_url=source_url
        )
        points = [(t, v) for t, v in series if isinstance(v, (int, float))]
        title = f"{group}.{field}" + (f" @ {host}" if host else "")
        if len(points) < 2:
            return f"{title}: not enough recorded data ({len(points)} points)"
        values = [v for _, v in points]
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        # Downsample to the plot width.
        step = max(1, len(points) // width)
        sampled = points[::step][:width]
        grid = [[" "] * len(sampled) for _ in range(height)]
        for x, (_, v) in enumerate(sampled):
            y = int((v - lo) / span * (height - 1))
            grid[height - 1 - y][x] = "*"
        lines = [f"{title}  [{lo:.2f} .. {hi:.2f}]  n={len(points)}"]
        lines += ["|" + "".join(row) for row in grid]
        lines.append("+" + "-" * len(sampled))
        lines.append(
            f" t: {points[0][0]:.0f}s .. {points[-1][0]:.0f}s (virtual)"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def html(self) -> str:
        """A minimal HTML rendering of the tree view (the JSP analogue)."""
        tree = self.tree_view().replace("&", "&amp;").replace("<", "&lt;")
        return (
            "<html><head><title>GridRM Gateway "
            f"{self.gateway.host}</title></head>"
            f"<body><h1>GridRM: Grid Resource Monitoring</h1>"
            f"<pre>{tree}</pre>"
            f"<h2>Drivers</h2><pre>{self.driver_panel()}</pre>"
            "</body></html>"
        )
