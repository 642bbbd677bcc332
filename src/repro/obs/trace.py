"""Hop-by-hop query tracing on the virtual clock.

A :class:`Tracer` rides the same path the ``Deadline`` already travels:
the gateway opens a trace per query, every hop (fan-out, source fetch,
retry attempt, hedge, pool acquire, driver connect, native round-trip,
GMA wire) opens a child span, and the finished trace trees are kept in
a bounded ring for the console ``trace_panel``, the servlet
``GET /trace/<qid>``, and the ``python -m repro trace`` CLI.

Everything is deterministic: trace ids are ``q1, q2, ...`` in start
order, span ids count up per trace, and all timestamps come from the
:class:`~repro.simnet.clock.VirtualClock` — so a seeded scenario
renders a byte-identical trace tree every run (the golden-trace test
holds this to the same discipline as the chaos replay signature).

Concurrency note: branches of a :class:`~repro.simnet.clock.ConcurrentScope`
execute sequentially on a rewound clock, so a simple span stack yields
correct nesting even for fan-outs.  The one wrinkle is hedging — the
dispatcher abandons the losing attempt *after* its branch already ran,
so a loser's span can end later than its parent; such spans are marked
``cancelled`` and the invariant checker exempts them from parent-end
containment.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.clock import VirtualClock


def _is_deadline_error(exc: BaseException) -> bool:
    # Imported lazily: repro.core imports this module (via the Gateway),
    # so a module-level import here would be circular.  By the time a
    # DeadlineExceededError is in flight, repro.core.errors is loaded.
    try:
        from repro.core.errors import DeadlineExceededError
    except ImportError:  # pragma: no cover
        return False
    return isinstance(exc, DeadlineExceededError)


class Span:
    """One hop of one query: a named, attributed time interval."""

    __slots__ = (
        "span_id",
        "name",
        "parent_id",
        "start",
        "end",
        "status",
        "error",
        "attrs",
        "children",
    )

    def __init__(
        self, span_id: int, name: str, parent_id: "int | None", start: float
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.error = ""
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def cancel(self) -> None:
        """Mark this span an abandoned loser (hedge that lost the race).

        Cancelled spans — and their subtrees — are exempt from the
        parent-end containment invariant.
        """
        self.status = "cancelled"

    def fail(self, error: BaseException | str, *, status: str = "error") -> None:
        self.status = status
        self.error = str(error)

    def __repr__(self) -> str:
        return (
            f"Span({self.span_id}, {self.name!r}, status={self.status!r}, "
            f"start={self.start!r}, end={self.end!r})"
        )


class _NullSpan:
    """No-op span handed out when tracing is off or no trace is open."""

    __slots__ = ()
    span_id = 0
    name = "null"
    parent_id = None
    start = 0.0
    end = 0.0
    status = "ok"
    error = ""
    closed = True
    duration = 0.0

    @property
    def attrs(self) -> dict[str, Any]:
        return {}

    @property
    def children(self) -> "list[Span]":
        return []

    def annotate(self, **attrs: Any) -> None:
        pass

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def cancel(self) -> None:
        pass

    def fail(self, error: BaseException | str, *, status: str = "error") -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class Trace:
    """One query's finished (or in-flight) span tree."""

    def __init__(self, trace_id: str, name: str) -> None:
        self.trace_id = trace_id
        self.name = name
        self.spans: list[Span] = []
        self.remote_parent: dict[str, Any] | None = None

    @property
    def root(self) -> "Span | None":
        return self.spans[0] if self.spans else None

    @property
    def duration(self) -> float:
        root = self.root
        return root.duration if root is not None else 0.0

    def find_span(self, ref: "int | str") -> "Span | None":
        """A span by id, or the first (document-order) span by name."""
        for span in self.spans:
            if span.span_id == ref or span.name == ref:
                return span
        return None

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) pairs from the root."""
        root = self.root
        if root is None:
            return
        stack: list[tuple[Span, int]] = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    @staticmethod
    def _fmt_value(value: Any) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return format(value, ".6f")
        return str(value)

    def render(self) -> str:
        """Deterministic ASCII tree; byte-identical for a fixed seed.

        Times are relative to the root span's start and printed with
        fixed precision; attributes are sorted by key.
        """
        root = self.root
        header = f"trace {self.trace_id} · {self.name}"
        if root is None:
            return header + " (empty)\n"
        base = root.start
        lines = [f"{header} · {self.duration:.6f}s"]

        def describe(span: Span) -> str:
            end = span.end if span.end is not None else span.start
            parts = [
                span.name,
                f"[{span.start - base:+.6f}s → {end - base:+.6f}s]",
            ]
            if span.status != "ok":
                parts.append(f"!{span.status}")
            if not span.closed:
                parts.append("!open")
            for key in sorted(span.attrs):
                parts.append(f"{key}={self._fmt_value(span.attrs[key])}")
            if span.error:
                parts.append(f"error={span.error}")
            return " ".join(parts)

        def walk(span: Span, prefix: str) -> None:
            for i, child in enumerate(span.children):
                last = i == len(span.children) - 1
                branch = "└─ " if last else "├─ "
                lines.append(prefix + branch + describe(child))
                walk(child, prefix + ("   " if last else "│  "))

        lines.append(describe(root))
        walk(root, "")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, {self.name!r}, spans={len(self.spans)})"


class _Frame:
    """One active trace plus its open-span stack."""

    __slots__ = ("trace", "stack")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.stack: list[Span] = []


def _mark_failure(span: Span, exc: "BaseException | None") -> None:
    """An ``Exception`` leaving a span's body marks a span that is still
    ``ok`` as ``error`` (``deadline_exceeded`` for a spent deadline); any
    other ``BaseException`` leaves the status alone."""
    if isinstance(exc, Exception) and span.status == "ok":
        status = "deadline_exceeded" if _is_deadline_error(exc) else "error"
        span.fail(exc, status=status)


class _SpanScope:
    """What :meth:`Tracer.span` hands to ``with``: a child span of the
    innermost open span, covering the body.

    A plain slotted object, not a generator — a query opens a span per
    hop, so entering and leaving one is two method calls.  Whether
    anything is recorded is decided when the scope is *entered*: with
    tracing off or no trace open, ``__enter__`` returns
    :data:`NULL_SPAN` and ``__exit__`` does nothing.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_frame", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> "Span | _NullSpan":
        tracer = self._tracer
        if not tracer.enabled or not tracer._frames:
            return NULL_SPAN
        frame = self._frame = tracer._frames[-1]
        spans = frame.trace.spans
        stack = frame.stack
        clock = tracer.clock
        now = clock.now() if clock is not None else 0.0
        if stack:
            parent = stack[-1]
            span = Span(len(spans) + 1, self._name, parent.span_id, now)
            parent.children.append(span)
        else:
            span = Span(len(spans) + 1, self._name, None, now)
        span.attrs = self._attrs
        spans.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: Any, exc: "BaseException | None", tb: Any) -> None:
        span = self._span
        if span is None:
            return
        if exc is not None:
            _mark_failure(span, exc)
        if span.end is None:
            clock = self._tracer.clock
            span.end = clock.now() if clock is not None else 0.0
        stack = self._frame.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)


class _TraceScope:
    """What :meth:`Tracer.start_trace` hands to ``with``: a new trace
    whose root span covers the body (:data:`NULL_SPAN`, and nothing
    recorded, when tracing is off at enter)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_remote_parent", "_frame")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        remote_parent: "dict[str, Any] | None",
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._remote_parent = remote_parent
        self._frame: _Frame | None = None

    def __enter__(self) -> "Span | _NullSpan":
        tracer = self._tracer
        if not tracer.enabled:
            return NULL_SPAN
        trace = Trace(f"q{tracer._next_trace}", self._name)
        tracer._next_trace += 1
        remote_parent = trace.remote_parent = self._remote_parent
        frame = self._frame = _Frame(trace)
        root = Span(1, self._name, None, tracer._now())
        root.attrs = self._attrs
        if remote_parent:
            root.attrs.setdefault("remote_trace", remote_parent.get("trace"))
            root.attrs.setdefault("remote_span", remote_parent.get("span"))
        trace.spans.append(root)
        frame.stack.append(root)
        tracer._frames.append(frame)
        return root

    def __exit__(self, exc_type: Any, exc: "BaseException | None", tb: Any) -> None:
        frame = self._frame
        if frame is None:
            return
        _mark_failure(frame.trace.spans[0], exc)
        self._tracer._close_frame(frame)


class Tracer:
    """Mints traces and spans for one gateway.

    A stack of frames supports nested traces: ``query_batch`` members
    and alert polls fired by scheduled callbacks each start their own
    trace while an outer one is still open.
    """

    def __init__(
        self,
        clock: "VirtualClock | None" = None,
        *,
        enabled: bool = True,
        max_traces: int = 256,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1: {max_traces!r}")
        self.clock = clock
        self.enabled = enabled
        self.max_traces = max_traces
        self._frames: list[_Frame] = []
        self._finished: deque[Trace] = deque(maxlen=max_traces)
        self._next_trace = 1

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    @property
    def active(self) -> bool:
        return self.enabled and bool(self._frames)

    def current_span(self) -> "Span | _NullSpan":
        if not self._frames or not self._frames[-1].stack:
            return NULL_SPAN
        return self._frames[-1].stack[-1]

    def current_trace(self) -> "Trace | None":
        return self._frames[-1].trace if self._frames else None

    def context(self) -> "dict[str, Any] | None":
        """Wire-portable span context for the GMA message envelope."""
        if not self._frames or not self._frames[-1].stack:
            return None
        frame = self._frames[-1]
        return {"trace": frame.trace.trace_id, "span": frame.stack[-1].span_id}

    def start_trace(
        self,
        name: str,
        *,
        remote_parent: "dict[str, Any] | None" = None,
        **attrs: Any,
    ) -> _TraceScope:
        """Open a new trace whose root span covers the ``with`` body."""
        return _TraceScope(self, name, attrs, remote_parent)

    def _close_frame(self, frame: _Frame) -> None:
        now = self._now()
        # Close any spans left open by a non-local exit, root last.
        while frame.stack:
            span = frame.stack.pop()
            if span.end is None:
                span.end = now
        if self._frames and self._frames[-1] is frame:
            self._frames.pop()
        else:  # pragma: no cover - defensive; frames unwind LIFO
            self._frames = [f for f in self._frames if f is not frame]
        self._finished.append(frame.trace)

    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """Open a child span of the innermost open span."""
        return _SpanScope(self, name, attrs)

    # -- finished-trace access -------------------------------------------

    def traces(self) -> list[Trace]:
        return list(self._finished)

    def last(self) -> "Trace | None":
        return self._finished[-1] if self._finished else None

    def get(self, trace_id: str) -> "Trace | None":
        for trace in self._finished:
            if trace.trace_id == trace_id:
                return trace
        return None

    def clear(self) -> None:
        self._finished.clear()


#: Shared disabled tracer for components constructed standalone.
NO_TRACER = Tracer(enabled=False)
