"""Subscriptions of one shape, evaluated together, against the
per-subscription loop.

The stream hub groups its live subscriptions by statement shape (the
:class:`~repro.core.plans.PlanCache` template their plans came from) and
evaluates each group once per round and layout
(:class:`~repro.sql.plan.ShapeGroup`): one ``_finish`` per distinct
(kept rows, LIMIT, OFFSET).  Two properties hold that to the
loop it replaced, under the fixed derandomized Hypothesis profile
``stream-shapes``:

* **plan by plan** — ``ShapeGroup(plans).execute_each(parts)`` equals
  ``[plan.execute_each(parts) for plan in plans]`` result for result:
  columns, rows (by ``repr``, so a NaN equals itself), and an error's
  type and message.  The plans are literal variants of random shapes —
  ``=``, ``!=``, orders either way round, ``IN``, ``NOT IN``, ``LIKE``,
  ``[NOT] BETWEEN``, ``IS [NOT] NULL`` and ``OR`` conjuncts over int,
  float and str literals, LIMIT and OFFSET, ``DISTINCT``, ORDER BY and
  one aggregate — grouped by shape and also thrown into one group; the
  parts hold NULL, ``bool``, NaN, numeric-string and missing values,
  short rows and a row object met twice.
* **hub by hub** — a :class:`~repro.gma.streams.StreamHub` and
  ``tests/reference_hub.py``'s :class:`ReferenceHub` (the per-subscription
  loop), given the same registrations over two consumer addresses and
  the same multi-source, mixed-layout rounds, with one subscription
  paused for a while, deliver every subscription the same batches,
  batch for batch, and count the same pushes, tuples, frames, drops and
  unsatisfied snapshots.

``PYTHONPATH=src python -m pytest tests/test_stream_shapes.py -q``.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.gma.streams import StreamConsumer, StreamHub
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.errors import SqlError
from repro.sql.plan import ShapeGroup
from tests.reference_hub import ReferenceHub

settings.register_profile(
    "stream-shapes", max_examples=250, derandomize=True, deadline=None, database=None
)

PROBE = GlueGroup(
    name="Probe",
    fields=(
        GlueField("HostName", "TEXT"),
        GlueField("SiteName", "TEXT"),
        GlueField("Load", "REAL"),
        GlueField("Temp", "REAL"),
        GlueField("Slot", "INTEGER"),
    ),
)
COLUMNS = tuple(f.name for f in PROBE.fields)
NUMERIC = ("Load", "Temp", "Slot")
TEXT = ("HostName", "SiteName")
PROJECTIONS = (
    "*",
    "HostName, Load",
    "Slot, HostName, Temp",
    "DISTINCT SiteName",
    "HostName, Load * 2 AS Twice",
    "COUNT(*) AS N, MAX(Load) AS Top",  # the aggregate: answers empty parts too
)
AGGREGATE = PROJECTIONS[-1]
ORDERS = ("", " ORDER BY Slot", " ORDER BY HostName DESC, Load")
OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _schema() -> GlueSchema:
    return GlueSchema("shapes-1", groups=(PROBE,))


# ----------------------------------------------------------------------
# Shapes and their literal variants
# ----------------------------------------------------------------------
class Conjunct(NamedTuple):
    """One WHERE conjunct's form; its literals are drawn per variant."""

    form: str  # cmp | flipped | in | not_in | between | not_between | like | null | or
    column: str
    op: str = "="
    arity: int = 1


class Shape(NamedTuple):
    projection: str
    conjuncts: tuple[Conjunct, ...]
    order: str
    limit: bool
    offset: bool
    #: The class of the shape's numeric literals: a slot's class is part
    #: of the shape, and so is a sign.
    numbers: str  # int | float | negative


_compared = st.builds(
    Conjunct, st.sampled_from(("cmp", "cmp", "flipped")), st.sampled_from(COLUMNS),
    st.sampled_from(OPS),
)
_compared_or_in = st.one_of(
    _compared,
    st.builds(Conjunct, st.just("in"), st.sampled_from(COLUMNS), st.just("="), st.integers(1, 3)),
)
_conjuncts = st.one_of(
    _compared,
    st.builds(Conjunct, st.sampled_from(("in", "in", "not_in")), st.sampled_from(COLUMNS),
              st.just("="), st.integers(1, 3)),
    st.builds(Conjunct, st.sampled_from(("between", "not_between")), st.sampled_from(NUMERIC)),
    st.builds(Conjunct, st.just("like"), st.sampled_from(TEXT)),
    st.builds(Conjunct, st.just("null"), st.sampled_from(COLUMNS), st.sampled_from(("", "NOT "))),
    st.builds(Conjunct, st.just("or"), st.sampled_from(NUMERIC)),
)


@st.composite
def _shapes(draw) -> Shape:
    projection = draw(st.sampled_from(PROJECTIONS))
    # Mostly led by comparisons and IN lists, the column kernels' stages.
    leading = draw(st.lists(_compared_or_in, max_size=2))
    return Shape(
        projection,
        (*leading, *draw(st.lists(_conjuncts, max_size=2))),
        "" if projection == AGGREGATE else draw(st.sampled_from(ORDERS)),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.sampled_from(("int", "int", "float", "negative"))),
    )


#: A shape's numeric literals, by class: small, so that values meet
#: them exactly and each comparison's boundaries are exercised.
_NUMBERS = {
    "int": st.integers(0, 8),
    "float": st.integers(0, 16).map(lambda n: n / 2),
    "negative": st.integers(-3, -1),
}
_words = st.sampled_from(("n0", "n1", "n2", "n3", "site-0", "site-1", "2.5", "", "N1"))
_patterns = st.sampled_from(("n%", "n1", "%1", "site-_", "%", "N%"))


def _render(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


@st.composite
def _sql(draw, shape: Shape) -> str:
    """One literal variant of ``shape``."""
    def literal(column: str) -> str:
        return _render(draw(_words if column in TEXT else _NUMBERS[shape.numbers]))

    clauses = []
    for c in shape.conjuncts:
        if c.form == "cmp":
            clauses.append(f"{c.column} {c.op} {literal(c.column)}")
        elif c.form == "flipped":
            clauses.append(f"{literal(c.column)} {c.op} {c.column}")
        elif c.form in ("in", "not_in"):
            items = ", ".join(literal(c.column) for _ in range(c.arity))
            clauses.append(f"{c.column} {'NOT ' if c.form == 'not_in' else ''}IN ({items})")
        elif c.form in ("between", "not_between"):
            low, high = literal(c.column), literal(c.column)
            negated = "NOT " if c.form == "not_between" else ""
            clauses.append(f"{c.column} {negated}BETWEEN {low} AND {high}")
        elif c.form == "like":
            clauses.append(f"{c.column} LIKE {_render(draw(_patterns))}")
        elif c.form == "null":
            clauses.append(f"{c.column} IS {c.op}NULL")
        else:
            clauses.append(f"({c.column} > {literal(c.column)} OR HostName = {literal('HostName')})")
    sql = f"SELECT {shape.projection} FROM Probe"
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += shape.order
    if shape.limit:
        sql += f" LIMIT {draw(st.integers(0, 3))}"
        if shape.offset:
            sql += f" OFFSET {draw(st.integers(0, 2))}"
    return sql


@st.composite
def _subscriptions(draw) -> list[str]:
    """Literal variants of one to three shapes, interleaved."""
    sqls = []
    for shape in draw(st.lists(_shapes(), min_size=1, max_size=3)):
        sqls += [draw(_sql(shape)) for _ in range(draw(st.integers(1, 8)))]
    return draw(st.permutations(sqls))


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
#: A cell no kernel reads natively: NULL, ``bool``, NaN, numeric and
#: other strings in a numeric column, numbers in a text one.
_hostile = st.one_of(
    st.none(),
    st.booleans(),
    st.just(math.nan),
    st.sampled_from(("2.5", "3", "-1", "n1", 2, 2.5)),
)
#: Per column kind, mostly typed values near the literals.
_CELLS = {
    "numeric": st.one_of(
        *[st.integers(-3, 9), st.integers(-2, 18).map(lambda n: n / 2)] * 4,
        st.just(math.nan),  # a float that no order holds
        _hostile,
    ),
    "text": st.one_of(*[_words] * 8, _hostile),
}


@st.composite
def _layouts(draw) -> tuple[str, ...]:
    columns = list(draw(st.permutations(COLUMNS)))
    if draw(st.integers(0, 4)) == 0:
        columns.pop(draw(st.integers(0, len(columns) - 1)))
    return tuple(columns)


@st.composite
def _parts(draw, columns: tuple[str, ...]) -> list[list[list[Any]]]:
    """1-4 relations of one layout: typed and hostile cells, now and
    then a short row, and now and then one row object in two parts."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            row = [draw(_CELLS["text" if c in TEXT else "numeric"]) for c in columns]
            if draw(st.integers(0, 9)) == 0:
                row = row[: draw(st.integers(0, len(row)))]
            rows.append(row)
        parts.append(rows)
    if len(parts) > 1 and parts[0] and draw(st.booleans()):
        parts[-1].append(parts[0][0])
    return parts


# ----------------------------------------------------------------------
# Plan by plan
# ----------------------------------------------------------------------
def _seen(outcome: Any) -> Any:
    if isinstance(outcome, SqlError):
        return type(outcome), str(outcome)
    return repr((outcome.columns, outcome.rows))


def _answers(run) -> Any:
    try:
        return [[_seen(outcome) for outcome in answers] for answers in run()]
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


@st.composite
def _plan_cases(draw):
    sqls = draw(_subscriptions())
    columns = draw(_layouts())
    return sqls, columns, draw(_parts(columns))


@settings(settings.get_profile("stream-shapes"))
@given(case=_plan_cases())
def test_a_shape_group_answers_what_its_plans_answer(case):
    sqls, columns, parts = case
    cache = PlanCache(_schema())
    groups: dict[Any, list[Any]] = {}
    everything = []
    for i, sql in enumerate(sqls):
        entry = cache.get(sql)
        if entry.findings:
            continue
        plan = entry.compiled().bind(columns)
        groups.setdefault(("alone", i) if entry.shape is None else entry.shape, []).append(plan)
        everything.append(plan)
    for plans in [*groups.values(), everything]:
        if not plans:
            continue
        want = _answers(lambda: [plan.execute_each(parts) for plan in plans])
        got = _answers(lambda: ShapeGroup(plans).execute_each(parts))
        assert got == want, f"{[p.select for p in plans]} over {parts!r}"


# ----------------------------------------------------------------------
# Hub by hub
# ----------------------------------------------------------------------
def _fabric(hub_class):
    clock = VirtualClock()
    network = Network(clock, seed=0)
    network.add_host("hub-host", site="shapes")
    schema = _schema()
    hub = hub_class(
        network, "hub-host", plans=PlanCache(schema), schema=schema, policy=GatewayPolicy()
    )
    consumers = [StreamConsumer(network, "wall"), StreamConsumer(network, "desk")]
    return clock, network, hub, consumers


@st.composite
def _hub_cases(draw):
    sqls = draw(_subscriptions())
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        snapshots = []
        for _ in range(draw(st.integers(1, 5))):
            columns = draw(_layouts())
            rows = [r for part in draw(_parts(columns)) for r in part]
            snapshots.append((list(columns), rows))
        rounds.append(snapshots)
    paused = draw(st.integers(0, len(rounds)))
    return sqls, rounds, paused


def _run(hub_class, sqls, rounds, paused):
    """Register every clean statement (alternating consumers), publish
    the rounds, pause the first subscription before round ``paused``
    and resume it at the end; what each subscription was delivered and
    what the hub counted."""
    clock, network, hub, consumers = _fabric(hub_class)
    cache = PlanCache(_schema())
    registered = []
    for i, sql in enumerate(sqls):
        if not cache.get(sql).findings:
            consumer = consumers[i % 2]
            registered.append((consumer, consumer.register(hub.address, sql, max_buffer=3)))
    clock.advance(1.0)
    for n, snapshots in enumerate(rounds):
        if n == paused and registered:
            registered[0][0].pause(hub.address, registered[0][1])
        now = clock.now()
        hub.publish(
            "Probe",
            [(f"probe://s{i}", columns, rows, now) for i, (columns, rows) in enumerate(snapshots)],
        )
        clock.advance(1.0)
    if registered:
        registered[0][0].resume(hub.address, registered[0][1])
        clock.advance(1.0)
    delivered = [
        [
            repr((b["cq"], b["columns"], b["rows"], b["published_at"], b["source_url"], b["replay"]))
            for b in consumer.delivered.get((hub.host, cq), [])
        ]
        for consumer, cq in registered
    ]
    counted = {k: hub.stats[k] for k in ("pushes", "tuples", "frames", "dropped", "unsatisfied")}
    return delivered, counted


def _outcome(hub_class, *case):
    """What :func:`_run` returns, or the class of what escaped a publish.
    Nothing a statement raises escapes either hub: ``BETWEEN`` and unary
    minus over a TEXT value are typed SQL errors now, as every other
    comparison that cannot be made is, and leave their snapshot
    unsatisfied.  An exception here is a fault of the hub itself, and
    which subscription would meet it first follows the order they are
    evaluated in, so only its class is compared."""
    try:
        return _run(hub_class, *case)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@settings(settings.get_profile("stream-shapes"))
@given(case=_hub_cases())
def test_the_hub_delivers_what_the_per_subscription_loop_delivers(case):
    assert _outcome(StreamHub, *case) == _outcome(ReferenceHub, *case)


def test_literal_variants_at_their_boundaries():
    """Variants of each comparison and of ``IN``, their literals met
    exactly, just missed, by the other numeric class and by NaN, in three
    rounds: typed values only; with a bool, a NULL and a numeric string,
    which the column kernels hand to their closures; and with a value and
    a short row that make every member raise.  Variants that keep the
    same rows share one result, and each still answers what its own plan
    answers."""
    cache = PlanCache(_schema())
    columns = ("HostName", "SiteName", "Load", "Temp", "Slot")
    typed = [0, 1, 1.0, 1.5, 2, 3, math.nan]
    rounds = [
        [[["n1", "s", v, 0.5, 1] for v in typed[:4]], [["n2", "s", v, 0.5, 1] for v in typed[4:]]],
        [[["n1", "s", v, 0.5, 1] for v in typed]] + [[["n2", "s", v, 0.5, 1] for v in (True, None, "2")]],
        [[["n1", "s", v, 0.5, 1] for v in typed]] + [[["n2", "s", "n1", 0.5, 1], ["n3", "s"]]],
    ]
    forms = [f"Load {op} {{}}" for op in OPS] + ["{} < Load", "Load IN ({}, 7)"]
    for form in forms:
        for literals in ((0, 1, 2, 3), (0.5, 1.0, 1.5, 2.0)):
            plans = [
                cache.get(f"SELECT HostName, Load FROM Probe WHERE {form.format(k)}")
                .compiled().bind(columns)
                for k in literals
            ]
            group = ShapeGroup(plans)
            for parts in rounds:
                want = _answers(lambda: [plan.execute_each(parts) for plan in plans])
                assert _answers(lambda: group.execute_each(parts)) == want, (form, parts)
