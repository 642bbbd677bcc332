"""The stream hub's per-subscription round, kept as the tests' reference.

Until subscriptions of one statement shape were evaluated together
(:class:`repro.sql.plan.ShapeGroup`), :meth:`StreamHub.publish` ran each
live subscription's plan on its own, once per layout of the round, and
that loop is :func:`outcomes` here, verbatim.  :class:`ReferenceHub` is
a :class:`~repro.gma.streams.StreamHub` whose round is that loop and
nothing else: everything after evaluation — offers, pause buffers,
counters, frames — is the hub's own, so a difference in what a
subscription is delivered is a difference in evaluation
(``tests/test_stream_shapes.py``).
"""

from __future__ import annotations

from typing import Any

from repro.gma.streams import StreamHub
from repro.sql.plan import CompiledPlan


def outcomes(
    plan: CompiledPlan,
    layouts: dict[tuple[str, ...], list[int]],
    snapshots: list[list[list[Any]]],
) -> list[Any]:
    """``plan`` over every snapshot of one publish, in source order: a
    result or the :class:`~repro.sql.errors.SqlError` that snapshot
    raised."""
    if len(layouts) == 1:
        (layout,) = layouts
        return plan.bind(layout).execute_each(snapshots)
    each: list[Any] = [None] * len(snapshots)
    for layout, indices in layouts.items():
        parts = [snapshots[i] for i in indices]
        for i, outcome in zip(indices, plan.bind(layout).execute_each(parts)):
            each[i] = outcome
    return each


class ReferenceHub(StreamHub):
    """A hub that evaluates each live subscription on its own."""

    @staticmethod
    def _evaluate(live, sources, snapshots):  # type: ignore[override]
        layouts: dict[tuple[str, ...], list[int]] = {}
        for index, (_, columns, _, _) in enumerate(sources):
            layouts.setdefault(tuple(columns), []).append(index)
        return [outcomes(cq.plan, layouts, snapshots) for cq in live]
