"""Trace-invariant harness: every query trace must be structurally sound.

The tracer threads one span per hop through the same path the deadline
already travels (gateway → request manager → dispatcher → connection
pool → driver selection → native round-trip → GMA wire).  Whatever the
scenario — clean fan-out, retries against a dead agent, hedged requests,
deadline expiry, cross-site routing — the resulting span trees must
satisfy the invariants in :mod:`repro.obs.invariants`:

* every span is closed, with ``end >= start``;
* child intervals nest within their parent's (cancelled hedge losers
  exempt: their branch timeline legitimately outlives the winner's);
* of N hedge spans under one attempt, exactly N-1 are cancelled;
* a source span's ``attempts`` attribute equals its attempt-span count;
* a deadline-exceeded span names the spending hop in its error.

The same checker closes every scenario run (``report.violations[
"trace_invariants"]``), so the invariants hold under injected faults too,
and the golden-trace test pins the rendering: one seeded scenario must
render byte-identical across runs.
"""

import pytest

from repro.core.dispatch import HEDGE_MIN_SAMPLES, FanoutDispatcher
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.obs import Tracer, check_trace, check_tracer
from repro.obs.trace import MAX_TRACES, Span
from repro.simnet.clock import VirtualClock
from repro.testbed import build_site, build_testbed

from .test_query_analysed_once import EXPIRED, read_with_expired
from .test_stream_frames import scenario as streaming_site

SQL = "SELECT HostName FROM Host"


def make_site(policy=None, *, n_hosts=2, agents=("snmp",), seed=3):
    network, (site,) = build_testbed(
        n_hosts=n_hosts, agents=agents, seed=seed, policy=policy
    )
    network.clock.advance(5.0)
    return site


def assert_clean(tracer):
    violations = check_tracer(tracer)
    assert violations == [], "\n".join(violations)


# ----------------------------------------------------------------------
# The invariant checker itself (unit level)
# ----------------------------------------------------------------------
class TestChecker:
    def _trace(self):
        tracer = Tracer(VirtualClock())
        with tracer.start_trace("query"):
            with tracer.span("execute"):
                pass
        return tracer.last()

    def test_clean_trace_passes(self):
        assert check_trace(self._trace()) == []

    def test_unclosed_span_flagged(self):
        trace = self._trace()
        trace.spans[1].end = None
        assert any("never closed" in v for v in check_trace(trace))

    def test_reversed_interval_flagged(self):
        trace = self._trace()
        trace.spans[1].end = trace.spans[1].start - 1.0
        assert any("ends before" in v for v in check_trace(trace))

    def test_child_escaping_parent_flagged(self):
        trace = self._trace()
        root = trace.root
        child = trace.spans[1]
        child.end = root.end + 5.0
        assert any("outlives parent" in v for v in check_trace(trace))

    def test_cancelled_child_may_outlive_parent(self):
        trace = self._trace()
        child = trace.spans[1]
        child.end = trace.root.end + 5.0
        child.cancel()
        assert check_trace(trace) == []

    def test_hedge_accounting_flagged(self):
        tracer = Tracer(VirtualClock())
        with tracer.start_trace("query"):
            with tracer.span("attempt", index=1):
                with tracer.span("hedge", index=0):
                    pass
                with tracer.span("hedge", index=1):
                    pass
        # Neither hedge cancelled: exactly-one-loser violated.
        assert any("hedge" in v for v in check_tracer(tracer))

    def test_attempt_count_mismatch_flagged(self):
        tracer = Tracer(VirtualClock())
        with tracer.start_trace("query"):
            with tracer.span("source", url="u") as span:
                with tracer.span("attempt", index=1):
                    pass
                span.annotate(attempts=3)
        assert any("attempts" in v for v in check_tracer(tracer))

    def test_deadline_span_must_name_spender(self):
        tracer = Tracer(VirtualClock())
        with tracer.start_trace("query"):
            with tracer.span("source", url="u") as span:
                span.status = "deadline_exceeded"
                span.error = ""
        assert any("deadline" in v for v in check_tracer(tracer))


# ----------------------------------------------------------------------
# Live-gateway scenarios
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_clean_fanout_query(self):
        site = make_site(n_hosts=3)
        gw = site.gateway
        result = gw.query(site.source_urls, SQL, mode=QueryMode.REALTIME)
        assert result.trace_id
        trace = gw.tracer.get(result.trace_id)
        assert trace is not None
        assert trace.root.name == "query"
        names = {s.name for s in trace.spans}
        assert {"query", "execute", "source", "attempt", "native"} <= names
        assert_clean(gw.tracer)

    def test_every_span_closed_even_after_failure(self):
        """The breaker is off so it cannot open mid-test (this
        test set a threshold of 10 before the threshold became
        a constant)."""
        site = make_site(GatewayPolicy(breaker_enabled=False))
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)  # warm driver cache
        site.network.close(site.agents["snmp"][0].address)
        result = gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert result.failed_sources == 1
        for trace in gw.tracer.traces():
            assert all(s.closed for s in trace.spans)
        assert_clean(gw.tracer)

    def test_span_count_equals_retry_attempts(self):
        """The breaker is off so it cannot open mid-test (this
        test set a threshold of 10 before the threshold became
        a constant)."""
        # Two retries: within retry.RETRY_BUDGET's 3 tokens.
        site = make_site(GatewayPolicy(retry_attempts=3, breaker_enabled=False))
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        site.network.close(site.agents["snmp"][0].address)
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        trace = gw.tracer.last()
        source = trace.find_span("source")
        attempts = [s for s in trace.spans if s.name == "attempt"]
        assert source.attrs["attempts"] == 3
        assert len(attempts) == 3
        assert [s.attrs["index"] for s in attempts] == [1, 2, 3]
        assert_clean(gw.tracer)

    def test_cache_hit_annotated(self):
        site = make_site()
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        gw.query(url, SQL, mode=QueryMode.CACHED_OK)
        trace = gw.tracer.last()
        assert trace.find_span("source").attrs["cache"] == "hit"
        assert_clean(gw.tracer)

    def test_a_literal_variant_opens_plan_instantiate_first(self):
        """The root's first child names how the plan was found: a cold
        text compiles, a text that differs from it only in a literal is
        instantiated (one span, no children), a repeat is a hit."""
        site = make_site()
        gw = site.gateway
        url = site.url_for("snmp")
        firsts = []
        for sql in (
            "SELECT HostName FROM Processor WHERE CPUCount >= 0",
            "SELECT HostName FROM Processor WHERE CPUCount >= 1",
            "SELECT HostName FROM Processor WHERE CPUCount >= 1",
        ):
            gw.query(url, sql, mode=QueryMode.REALTIME)
            first = gw.tracer.last().root.children[0]
            firsts.append((first.name, [c.name for c in first.children]))
        assert firsts == [
            ("plan.compile", ["parse", "validate"]),
            ("plan.instantiate", []),
            ("plan.cache_hit", []),
        ]
        assert_clean(gw.tracer)

    def test_deadline_exceeded_names_spending_span(self):
        site = make_site(n_hosts=3)
        gw = site.gateway
        # A budget big enough to dispatch the first source but not the
        # rest (serial dispatch: fan-out disabled).
        policy = GatewayPolicy(fanout_enabled=False)
        site2 = make_site(policy, n_hosts=3)
        gw = site2.gateway
        result = gw.query(
            site2.source_urls, SQL, mode=QueryMode.REALTIME, timeout=0.0011
        )
        assert any("deadline" in (s.error or "") for s in result.statuses)
        trace = gw.tracer.last()
        blamed = [s for s in trace.spans if s.status == "deadline_exceeded"]
        assert blamed, "no span blamed for the blown deadline"
        assert all(s.error for s in blamed)
        assert_clean(gw.tracer)

    def test_trace_disabled_by_policy(self):
        site = make_site(GatewayPolicy(tracing_enabled=False))
        gw = site.gateway
        result = gw.query(site.url_for("snmp"), SQL, mode=QueryMode.REALTIME)
        assert result.trace_id == ""
        assert gw.tracer.traces() == []

    def test_trace_retention_bounded(self):
        # The ring's size is a constant of the tracer module, so the
        # gateway's tracer is driven past that.
        site = make_site()
        gw = site.gateway
        keep = MAX_TRACES
        url = site.url_for("snmp")
        for _ in range(keep + 3):
            gw.query(url, SQL, mode=QueryMode.CACHED_OK)
        assert len(gw.tracer.traces()) == keep == 256
        assert gw.tracer.get("q3") is None  # evicted
        assert gw.tracer.get(f"q{keep + 3}") is not None


# ----------------------------------------------------------------------
# Cached reads: hits are answered before anything is dispatched
# ----------------------------------------------------------------------
class TestCachedReads:
    @pytest.mark.parametrize("n_expired", sorted(EXPIRED))
    def test_hit_spans_hang_off_execute_and_only_misses_fan_out(self, n_expired):
        site, result = read_with_expired(n_expired)
        trace = site.gateway.tracer.get(result.trace_id)
        execute = trace.find_span("execute")
        hits = [s for s in execute.children if s.attrs.get("cache") == "hit"]
        assert [s.name for s in hits] == ["source"] * (9 - n_expired)
        assert trace.find_span("fanout") is None or n_expired > 1
        assert check_trace(trace) == []
        assert_clean(site.gateway.tracer)


# ----------------------------------------------------------------------
# Stream frames: one push span per datagram, wherever a frame is cut
# ----------------------------------------------------------------------
class TestStreamFrames:
    def test_push_spans_sit_under_source_and_replay_and_nest_cleanly(self):
        """The name is kept, the parent moved: a query round publishes
        once, after its fan-out, so a publishing query's push spans sit
        under ``execute``, not under a ``source`` branch."""
        site, _ = streaming_site()
        tracer = site.gateway.tracer
        assert_clean(tracer)
        cut_under = set()
        for trace in tracer.traces():
            for span in trace.spans:
                for child in span.children:
                    if child.name == "push":
                        cut_under.add((trace.name, span.name))
                        assert child.status == "ok" and child.attrs["cqs"]
        # A publishing fetch and an attach replay both cut frames.
        assert cut_under == {("query", "execute"), ("subscribe", "replay")}


# ----------------------------------------------------------------------
# Refused queries: the security boundary sits inside the trace
# ----------------------------------------------------------------------
class TestRefusedQueries:
    """Only the coarse-grained check runs before the trace opens; the
    plan span is the root's first child, and whatever refuses the query
    after it (parser, FGSL, validator) leaves one failed trace."""

    BAD = "SELECT FROM WHERE"
    BAD_MESSAGE = (
        "expected identifier at position 7 (near 'FROM') in 'SELECT FROM WHERE'"
    )

    def _secured(self):
        from repro.core.security import AccessRule, Principal

        site = make_site(GatewayPolicy(security_enabled=True))
        gw = site.gateway
        gw.cgsl.restrict("query", "role:operator")
        gw.fgsl.add_rule(AccessRule(False, "role:student", "*", "Processor"))
        operator = Principal.with_roles("olga", "operator")
        student = Principal.with_roles("sam", "operator", "student")
        return site, gw, operator, student

    def test_cgsl_denied_before_any_sql_work_or_trace(self):
        from repro.core.errors import SecurityError
        from repro.core.security import Principal

        site, gw, _, _ = self._secured()
        looked_up = gw.plans.hits + gw.plans.misses
        # Re-aimed: the durable store's start-up recovery and checkpoint
        # are traced, so "no trace" is "no trace beyond those".
        start_up = gw.tracer.traces()
        with pytest.raises(SecurityError, match="may not perform 'query'"):
            gw.query(
                site.url_for("snmp"), self.BAD,
                principal=Principal.with_roles("eve", "guest"),
            )
        assert gw.plans.hits + gw.plans.misses == looked_up
        assert gw.tracer.traces() == start_up

    def test_unparsable_text_keeps_its_type_and_message(self):
        from urllib.parse import quote

        from repro.core.acil import ClientRequest
        from repro.sql.errors import SqlParseError
        from repro.web.servlet import GatewayServlet, http_get

        site = make_site()
        gw = site.gateway
        url = site.url_for("snmp")
        for run in (
            lambda: gw.query(url, self.BAD),
            lambda: gw.query(url, self.BAD, mode=QueryMode.HISTORY),
            lambda: gw.acil.query(ClientRequest(urls=[url], sql=self.BAD)),
        ):
            before = len(gw.tracer.traces())
            with pytest.raises(SqlParseError) as err:
                run()
            assert type(err.value) is SqlParseError
            assert str(err.value) == self.BAD_MESSAGE
            assert len(gw.tracer.traces()) == before + 1
            trace = gw.tracer.last()
            assert trace.root.status == "error"
            assert [c.name for c in trace.root.children] == ["plan.compile"]
        servlet = GatewayServlet(gw)
        reply = http_get(
            site.network, gw.host, servlet.address,
            f"/query?url={quote(url)}&sql={quote(self.BAD)}",
        )
        assert reply == (500, f"SqlParseError: {self.BAD_MESSAGE}")
        assert gw.request_manager.stats["queries"] == 0
        assert_clean(gw.tracer)

    def test_fgsl_denied_touches_neither_agent_nor_cache(self):
        from repro.core.errors import SecurityError

        site, gw, operator, student = self._secured()
        url = site.url_for("snmp")
        sql = "SELECT HostName FROM Processor"
        gw.query(url, sql, principal=operator, mode=QueryMode.REALTIME)
        requests = site.network.stats.requests
        lookups = gw.cache.hits + gw.cache.misses
        with pytest.raises(SecurityError, match="may not read group 'Processor'"):
            gw.query(url, sql, principal=student, mode=QueryMode.CACHED_OK)
        assert site.network.stats.requests == requests
        assert gw.cache.hits + gw.cache.misses == lookups
        trace = gw.tracer.last()
        assert trace.root.status == "error"
        assert [c.name for c in trace.root.children] == ["plan.cache_hit"]
        assert len(trace.spans) == 2
        assert_clean(gw.tracer)

    def test_fgsl_checked_before_validation_findings_reject(self):
        from repro.core.errors import QueryValidationError, SecurityError

        site, gw, operator, student = self._secured()
        url = site.url_for("snmp")
        invalid = "SELECT NoSuchField FROM Processor"
        start_up = len(gw.tracer.traces())  # recovery + checkpoint, both ok
        with pytest.raises(SecurityError):
            gw.query(url, invalid, principal=student)
        assert gw.request_manager.stats["validation_rejects"] == 0
        with pytest.raises(QueryValidationError):
            gw.query(url, invalid, principal=operator)
        assert gw.request_manager.stats["validation_rejects"] == 1
        assert [t.root.status for t in gw.tracer.traces()[start_up:]] == ["error", "error"]
        assert_clean(gw.tracer)


# ----------------------------------------------------------------------
# Hedged losers
# ----------------------------------------------------------------------
class TestHedgeSpans:
    def _dispatcher(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        dispatcher = FanoutDispatcher(
            clock, GatewayPolicy(), tracer=tracer
        )
        # Arm the hedge timer at 0.1 s, as the shipped sample count asks.
        for _ in range(HEDGE_MIN_SAMPLES):
            dispatcher._note_latency("src", 0.1)
        return clock, tracer, dispatcher

    def test_losing_hedge_marked_cancelled(self):
        clock, tracer, dispatcher = self._dispatcher()

        def fetch():
            clock.advance(1.0)
            return "slow-primary"

        with tracer.start_trace("query"):
            with tracer.span("attempt", index=1):
                dispatcher.run_flight("src", SQL, fetch)
        assert dispatcher.stats.hedges_fired == 1
        trace = tracer.last()
        hedges = [s for s in trace.spans if s.name == "hedge"]
        assert len(hedges) == 2
        assert sum(1 for h in hedges if h.status == "cancelled") == 1
        assert_clean(tracer)

    def test_no_hedge_no_hedge_spans(self):
        clock, tracer, dispatcher = self._dispatcher()
        with tracer.start_trace("query"):
            dispatcher.run_flight("src", SQL, lambda: "fast")
        assert dispatcher.stats.hedges_fired == 0
        assert all(s.name != "hedge" for s in tracer.last().spans)
        assert_clean(tracer)


# ----------------------------------------------------------------------
# Cross-site (GMA) traces
# ----------------------------------------------------------------------
class TestRemoteTraces:
    def _fabric(self):
        from repro.gma.directory import GMADirectory
        from repro.gma.global_layer import GlobalLayer
        from repro.simnet.network import Network

        clock = VirtualClock()
        network = Network(clock, seed=41)
        a = build_site(network, name="site-a", n_hosts=2, agents=("snmp",), seed=1)
        b = build_site(network, name="site-b", n_hosts=2, agents=("snmp",), seed=2)
        clock.advance(20.0)
        directory = GMADirectory(network)
        GlobalLayer(a.gateway, directory)
        GlobalLayer(b.gateway, directory)
        return a, b

    def test_remote_query_reparents_at_remote_site(self):
        a, b = self._fabric()
        remote_url = str(b.gateway.sources()[0].url)
        result = a.gateway.query(remote_url, SQL, mode=QueryMode.REALTIME)
        assert result.ok_sources >= 1
        local = a.gateway.tracer.get(result.trace_id)
        wire = local.find_span("wire")
        assert wire is not None and wire.attrs["remote_trace"]
        remote = b.gateway.tracer.get(wire.attrs["remote_trace"])
        assert remote is not None
        # The remote trace records where in the caller's trace it hangs.
        assert remote.root.attrs["remote_trace"] == local.trace_id
        assert remote.root.attrs["remote_span"] == wire.parent_id
        assert_clean(a.gateway.tracer)
        assert_clean(b.gateway.tracer)


# ----------------------------------------------------------------------
# Chaos soak: the invariants hold under injected faults
# ----------------------------------------------------------------------
class TestChaosSoak:
    def test_invariants_under_standard_chaos(self):
        from repro.scenario import run
        from repro.scenarios import CHAOS

        report = run(CHAOS, seed=5, rounds=8, warmup_rounds=4, period=10.0)
        # 12 query traces + the durable engine's start-up recovery trace
        # and the checkpoint it takes (every scenario is durable now).
        assert report.measurements["traces_checked"] == 14
        violations = report.violations["trace_invariants"]
        assert violations == [], "\n".join(violations)

    def test_invariants_with_hedging_off(self):
        from repro.scenario import run
        from repro.scenarios import CHAOS

        report = run(
            CHAOS, seed=5, rounds=8, warmup_rounds=4, period=10.0, hedging=False
        )
        assert report.violations["trace_invariants"] == []


# ----------------------------------------------------------------------
# Golden trace: the rendering is deterministic
# ----------------------------------------------------------------------
class TestGoldenTrace:
    def _render(self):
        site = make_site(n_hosts=2, seed=42)
        gw = site.gateway
        result = gw.query(site.source_urls, SQL, mode=QueryMode.REALTIME)
        return gw.tracer.get(result.trace_id).render()

    def test_byte_identical_across_runs(self):
        first = self._render()
        second = self._render()
        assert first == second
        # The durable store's start-up recovery and checkpoint are q1, q2.
        assert first.startswith("trace q3 · query ·")

    def test_handbuilt_trace_renders_exactly(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.start_trace("query", sql=SQL) as root:
            with tracer.span("execute", sources=1):
                with tracer.span("source", url="jdbc:snmp://h0/system"):
                    clock.advance(0.25)
            root.annotate(rows=1)
        assert tracer.last().render() == (
            "trace q1 · query · 0.250000s\n"
            "query [+0.000000s → +0.250000s] rows=1 sql=SELECT HostName FROM Host\n"
            "└─ execute [+0.000000s → +0.250000s] sources=1\n"
            "   └─ source [+0.000000s → +0.250000s] url=jdbc:snmp://h0/system\n"
        )


# ----------------------------------------------------------------------
# Span basics
# ----------------------------------------------------------------------
class TestSpan:
    def test_setitem_and_annotate(self):
        span = Span(1, "s", None, 0.0)
        span["a"] = 1
        span.annotate(b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_fail_records_error_and_status(self):
        span = Span(1, "s", None, 0.0)
        span.fail(ValueError("boom"))
        assert span.status == "error" and "boom" in span.error

    def test_exception_inside_span_recorded_and_closed(self):
        tracer = Tracer(VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.start_trace("query"):
                with tracer.span("source"):
                    raise RuntimeError("agent exploded")
        trace = tracer.last()
        source = trace.find_span("source")
        assert source.closed and source.status == "error"
        assert trace.root.status == "error"
        assert check_trace(trace) == []


# ----------------------------------------------------------------------
# Scope objects: what ``span()`` / ``start_trace()`` hand to ``with``
# ----------------------------------------------------------------------
class TestScopes:
    """The scopes are plain objects with ``__enter__`` / ``__exit__``;
    they keep the semantics the generator-based ones had."""

    def test_exception_marks_error_and_deadline_marks_deadline_exceeded(self):
        from repro.core.errors import DeadlineExceededError

        tracer = Tracer(VirtualClock())
        with pytest.raises(DeadlineExceededError):
            with tracer.start_trace("query"):
                with pytest.raises(ValueError):
                    with tracer.span("broken"):
                        raise ValueError("boom")
                with tracer.span("late"):
                    raise DeadlineExceededError("budget spent in late")
        trace = tracer.last()
        assert trace.find_span("broken").status == "error"
        assert trace.find_span("broken").error == "boom"
        assert trace.find_span("late").status == "deadline_exceeded"
        assert trace.root.status == "deadline_exceeded"
        assert all(s.closed for s in trace.spans)

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, GeneratorExit])
    def test_non_exception_closes_without_marking(self, exc_type):
        tracer = Tracer(VirtualClock())
        with pytest.raises(exc_type):
            with tracer.start_trace("query"):
                with tracer.span("interrupted"):
                    raise exc_type()
        trace = tracer.last()
        assert [(s.status, s.error, s.closed) for s in trace.spans] == [
            ("ok", "", True)
        ] * 2
        assert tracer.current_trace() is None

    def test_span_with_no_trace_open_is_null_even_if_one_opens_inside(self):
        from repro.obs import NULL_SPAN

        tracer = Tracer(VirtualClock())
        with tracer.span("orphan") as orphan:
            assert orphan is NULL_SPAN
            with tracer.start_trace("query"):
                pass
        assert [s.name for s in tracer.last().spans] == ["query"]
        assert tracer.current_trace() is None

    def test_scope_entered_with_tracing_off_records_nothing(self):
        from repro.obs import NULL_SPAN

        tracer = Tracer(VirtualClock(), enabled=False)
        with tracer.start_trace("query") as root:
            tracer.enabled = True  # flipped mid-body: decided at enter
            with pytest.raises(RuntimeError):
                with tracer.span("child") as child:
                    raise RuntimeError("unseen")
        assert root is NULL_SPAN and child is NULL_SPAN
        assert tracer.traces() == [] and tracer.current_trace() is None

    def test_nested_traces_unwind_lifo(self):
        tracer = Tracer(VirtualClock())
        with tracer.start_trace("outer"):
            with tracer.span("before"):
                with tracer.start_trace("inner"):
                    with tracer.span("inside"):
                        assert tracer.current_trace().name == "inner"
                assert tracer.current_trace().name == "outer"
                assert tracer.current_span().name == "before"
            with tracer.span("after"):
                pass
        inner, outer = tracer.traces()
        assert [s.name for s in inner.spans] == ["inner", "inside"]
        assert [s.name for s in outer.spans] == ["outer", "before", "after"]
        assert_clean(tracer)

    def test_status_set_in_the_body_survives_exit(self):
        tracer = Tracer(VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.start_trace("query"):
                with pytest.raises(RuntimeError):
                    with tracer.span("shed") as shed:
                        shed.fail("refused", status="shed")
                        raise RuntimeError("later")
                with pytest.raises(RuntimeError):
                    with tracer.span("loser") as loser:
                        loser.cancel()
                        raise RuntimeError("later")
                raise RuntimeError("root")
        trace = tracer.last()
        assert (shed.status, shed.error) == ("shed", "refused")
        assert (loser.status, loser.error) == ("cancelled", "")
        assert (trace.root.status, trace.root.error) == ("error", "root")

    def test_hedge_that_never_fired_renders_as_fetch(self):
        clock, tracer, dispatcher = TestHedgeSpans()._dispatcher()
        dispatcher._note_latency("src", 0.1)
        with tracer.start_trace("query"):
            dispatcher.run_flight("src", SQL, lambda: "fast")
        assert tracer.last().render() == (
            "trace q1 · query · 0.000000s\n"
            "query [+0.000000s → +0.000000s]\n"
            "└─ fetch [+0.000000s → +0.000000s]\n"
        )
