"""Structural invariants over finished traces.

These are the properties a correct query path cannot help but satisfy,
independent of workload or fault schedule — which makes them ideal
chaos-soak assertions: :func:`check_trace` is run by the test harness
(`tests/test_trace_invariants.py`) *and*, as the ``trace_invariants``
checker, at the end of every :func:`repro.scenario.run`, so any future
change to the dispatch or retry machinery that warps a span tree fails
loudly in both places.

Checked per trace:

1. **Closure** — every span has an end; nothing leaks open past the
   root's exit.
2. **Ordering** — no span ends before it starts.
3. **Containment** — a child starts no earlier than its parent, and
   ends no later than its parent *unless* it (or an ancestor) is
   ``cancelled``: a hedge loser is abandoned mid-flight, so its branch
   legitimately outlives the parent that stopped waiting for it.
4. **Hedge accounting** — of N ``hedge`` spans under one parent,
   exactly N−1 are cancelled (one winner per race).
5. **Attempt accounting** — a ``source`` span's ``attempts`` attribute
   equals its number of ``attempt``/``hedge``-child attempts.
6. **Deadline blame** — a ``deadline_exceeded`` span names the hop
   that spent the budget in its ``error``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span, Trace, Tracer

#: Tolerance for float comparisons of virtual-clock instants.
_EPS = 1e-9


def _in_cancelled_subtree(span: "Span", parents: "dict[int, Span]") -> bool:
    node: "Span | None" = span
    while node is not None:
        if node.status == "cancelled":
            return True
        node = parents.get(node.span_id)
    return False


def check_trace(trace: "Trace") -> list[str]:
    """All invariant violations in one trace (empty list == healthy)."""
    violations: list[str] = []

    def where(span: "Span") -> str:
        return f"{trace.trace_id}/{span.span_id}:{span.name}"

    parents: dict[int, Span] = {}
    for span in trace.spans:
        for child in span.children:
            parents[child.span_id] = span

    for span in trace.spans:
        if span.end is None:
            violations.append(f"{where(span)}: span never closed")
            continue
        if span.end < span.start - _EPS:
            violations.append(
                f"{where(span)}: ends before it starts "
                f"({span.end:.6f} < {span.start:.6f})"
            )
        parent = parents.get(span.span_id)
        if parent is not None:
            if span.start < parent.start - _EPS:
                violations.append(
                    f"{where(span)}: starts before parent {parent.name} "
                    f"({span.start:.6f} < {parent.start:.6f})"
                )
            if (
                parent.end is not None
                and span.end > parent.end + _EPS
                and not _in_cancelled_subtree(span, parents)
            ):
                violations.append(
                    f"{where(span)}: outlives parent {parent.name} "
                    f"({span.end:.6f} > {parent.end:.6f}) without being cancelled"
                )
        if span.status == "deadline_exceeded" and not span.error:
            violations.append(
                f"{where(span)}: deadline exceeded but no spending hop named"
            )

    for span in trace.spans:
        hedges = [c for c in span.children if c.name == "hedge"]
        if hedges:
            cancelled = sum(1 for c in hedges if c.status == "cancelled")
            if cancelled != len(hedges) - 1:
                violations.append(
                    f"{where(span)}: {len(hedges)} hedged attempts but "
                    f"{cancelled} cancelled (want exactly one winner)"
                )
        if span.name == "source" and "attempts" in span.attrs:
            tries = [c for c in span.children if c.name == "attempt"]
            if tries and len(tries) != span.attrs["attempts"]:
                violations.append(
                    f"{where(span)}: {len(tries)} attempt spans but "
                    f"attempts={span.attrs['attempts']}"
                )

    return violations


def check_tracer(tracer: "Tracer") -> list[str]:
    """Violations across every finished trace a tracer holds."""
    violations: list[str] = []
    for trace in tracer.traces():
        violations.extend(check_trace(trace))
    return violations
