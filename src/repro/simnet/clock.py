"""Virtual clock.

All timing in the reproduction flows through :class:`VirtualClock` so that
experiments are deterministic and can compress hours of monitoring into
milliseconds of wall time.  The clock is a plain monotone float of seconds
plus an ordered schedule of callbacks (used for periodic agent metric
updates, cache expiry sweeps and event redelivery).

Concurrency is modelled with :class:`ConcurrentScope` (see
:meth:`VirtualClock.concurrent`): every branch of a scope starts at the
same virtual instant on its own private timeline, and joining the scope
advances the shared clock by the *maximum* branch elapsed time — the
semantics of work done in parallel.  It is the one way to overlap work
in virtual time: the scheduler stack (fan-out queries, hedging,
scatter-gather, batches) is built on it.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass(order=True)
class ScheduledCall:
    """A callback registered to fire at a virtual time.

    Instances are ordered by ``(when, seq)`` so the schedule is a stable
    priority queue: two calls scheduled for the same instant fire in
    registration order.
    """

    when: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    period: Optional[float] = field(default=None, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent this call (and, if periodic, all future firings)."""
        self.cancelled = True


class VirtualClock:
    """A deterministic, manually advanced clock.

    >>> clock = VirtualClock()
    >>> clock.now()
    0.0
    >>> clock.advance(2.5)
    >>> clock.now()
    2.5

    Scheduled callbacks fire during :meth:`advance` in timestamp order,
    with the clock set to each callback's due time while it runs — i.e.
    the same semantics as an event-driven simulator main loop.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._schedule: list[ScheduledCall] = []
        self._seq = itertools.count()
        # Depth of active ConcurrentScope branches: while positive, time
        # moves on a branch-private timeline and scheduled callbacks stay
        # queued (they fire exactly once, when the outermost scope joins).
        self._branch_depth = 0
        # Lane stack: one (scope_id, branch_index) frame per active
        # nested branch.  The tuple snapshot (``lane``) names the branch
        # currently executing; the race detector's happens-before
        # relation is defined over these vectors (see
        # repro.analysis.races).  Empty tuple = sequential context.
        self._scope_seq = itertools.count(1)
        self._lane: list[tuple[int, int]] = []

    @property
    def lane(self) -> tuple[tuple[int, int], ...]:
        """The executing branch's lane vector (empty when sequential).

        Each frame is ``(scope_id, branch_index)`` for one level of
        :class:`ConcurrentScope` nesting, outermost first.  Two lane
        vectors are *unordered* (virtually simultaneous) iff at the
        first frame where they differ the scope ids are equal but the
        branch indices are not — sibling branches of one scope.
        """
        return tuple(self._lane)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds, firing due callbacks."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt!r}")
        self.advance_to(self._now + dt)

    def advance_to(self, t: float) -> None:
        """Move time forward to absolute time ``t``, firing due callbacks."""
        if t < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now!r}, target={t!r}"
            )
        if self._branch_depth:
            # Inside a concurrent branch: time passes on the branch's
            # private timeline only.  Scheduled callbacks are deferred to
            # the scope join so they fire exactly once, not once per
            # branch that happens to sweep past their due time.
            self._now = t
            return
        target = t
        while self._schedule and self._schedule[0].when <= target:
            call = heapq.heappop(self._schedule)
            if call.cancelled:
                continue
            # Fire with the clock at the callback's due instant.
            self._now = max(self._now, call.when)
            call.callback()
            # The callback may itself have advanced the clock (nested
            # blocking RPC work): never move backwards past it.
            target = max(target, self._now)
            if call.period is not None and not call.cancelled:
                call.when = call.when + call.period
                heapq.heappush(self._schedule, call)
        self._now = max(self._now, target)

    def call_at(self, when: float, callback: Callable[[], None]) -> ScheduledCall:
        """Schedule ``callback`` to run at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when!r} < {self._now!r}")
        call = ScheduledCall(when=when, seq=next(self._seq), callback=callback)
        heapq.heappush(self._schedule, call)
        return call

    def call_later(self, delay: float, callback: Callable[[], None]) -> ScheduledCall:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.call_at(self._now + delay, callback)

    def call_every(
        self, period: float, callback: Callable[[], None], *, first_in: float | None = None
    ) -> ScheduledCall:
        """Schedule ``callback`` to run every ``period`` seconds.

        ``first_in`` controls the delay before the first firing (defaults
        to one full period).  Cancel via the returned handle.
        """
        if period <= 0:
            raise ValueError(f"period must be positive: {period!r}")
        delay = period if first_in is None else first_in
        call = ScheduledCall(
            when=self._now + delay,
            seq=next(self._seq),
            callback=callback,
            period=period,
        )
        heapq.heappush(self._schedule, call)
        return call

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled calls."""
        return sum(1 for c in self._schedule if not c.cancelled)

    # ------------------------------------------------------------------
    # Concurrency (virtual-time parallelism)
    # ------------------------------------------------------------------
    @property
    def in_concurrent_branch(self) -> bool:
        """True while executing inside a :class:`ConcurrentScope` branch."""
        return self._branch_depth > 0

    def concurrent(self) -> "ConcurrentScope":
        """A scope whose branches run "simultaneously" in virtual time.

        >>> clock = VirtualClock()
        >>> with clock.concurrent() as scope:
        ...     with scope.branch():
        ...         clock.advance(3.0)   # branch A takes 3s
        ...     with scope.branch():
        ...         clock.advance(5.0)   # branch B takes 5s
        >>> clock.now()                  # joined: max, not sum
        5.0
        """
        return ConcurrentScope(self)


class ConcurrentScope:
    """Models simultaneous branches of work on one :class:`VirtualClock`.

    Branch bodies execute sequentially (the simulator is single-threaded)
    but each starts at the scope's opening instant on a private timeline;
    joining the scope advances the real clock by the *maximum* branch
    elapsed time, so N parallel round-trips cost ``max`` rather than
    ``sum`` of their delays.  Scopes nest: a branch may open its own
    scope, in which case the inner join is deferred along with everything
    else until the outermost scope joins.  Callbacks scheduled during any
    branch (datagram deliveries, periodic agent updates) stay queued and
    fire exactly once, at the join.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self.started_at = clock.now()
        self._ends: list[float] = []
        self._joined = False
        self.scope_id = next(clock._scope_seq)
        self._branch_seq = itertools.count()

    @contextmanager
    def branch(self) -> Iterator[None]:
        """Run the ``with`` body as one concurrent branch of this scope.

        Each branch gets a ``(scope_id, branch_index)`` lane frame pushed
        onto the clock's lane stack for its duration; the race detector
        uses the resulting lane vectors to decide which state accesses
        were virtually simultaneous.
        """
        if self._joined:
            raise RuntimeError("ConcurrentScope already joined")
        clock = self._clock
        clock._branch_depth += 1
        clock._now = self.started_at
        clock._lane.append((self.scope_id, next(self._branch_seq)))
        try:
            yield
        finally:
            clock._lane.pop()
            self._ends.append(clock._now)
            clock._branch_depth -= 1
            clock._now = self.started_at

    @property
    def elapsed(self) -> float:
        """Longest branch duration recorded so far."""
        return max(self._ends, default=self.started_at) - self.started_at

    def join(self) -> None:
        """Advance the clock past the slowest branch (idempotent).

        Fires any callbacks that became due during the branches — unless
        this scope is itself nested inside another scope's branch, in
        which case firing is deferred to the outermost join.
        """
        if self._joined:
            return
        self._joined = True
        self._clock.advance_to(max(self._ends, default=self.started_at))

    def __enter__(self) -> "ConcurrentScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.join()
