"""Differential tests: compiled plans ≡ the reference interpreter.

The interpreter is ``tests/reference_sql.py`` (``repro.sql.executor``
until PR 23); the last test of this module keeps it out of ``src/`` and
out of reach of the code it judges.  The compiled path (:mod:`repro.sql.plan`) must be byte-identical to
:func:`tests.reference_sql.execute_select` — same columns, same rows, same
row order, and the same exception type/message whenever the interpreter
raises.  A seeded generator sweeps projections, aliases, LIKE, NULLs,
aggregates, GROUP BY/HAVING, ORDER BY, DISTINCT and LIMIT/OFFSET over a
relation with NULLs, numeric strings and mixed types; the one binding
(``bind``) is checked against the oracle over the relation's positional
twin twice: as a driver's lists and as the tuples a table stores.

The sweep runs over four relations: the six typed rows; those plus a
row for every edge of a column kernel's class guard (``bool``, a
``str`` subclass, NaN, ±inf, ``2**63``, a non-numeric string in a numeric
column, ``'1e3'``); one whose dict rows lack keys (a row keyed in
another case, one missing a middle key), which has no positional twin
and checks the reference alone; and its positional cut, a slot row
shorter than its layout.  The generator writes literals on either side of a
comparison, negative literals, ``-'x'``, numeric ``IN`` lists, string
``BETWEEN`` and comparisons that raise behind conjuncts that are NULL.

Every ``assert_equivalent`` also runs ``BoundPlan.execute_each`` (the
stream hub's round: one WHERE pass over several relations) over the
rows cut into 2-3 seeded parts, as lists and as tuples: each part's outcome
must be the reference over that part alone — same result, or the same
exception type and message in that part's slot.  Hand mutations seen to
fail here: every survivor credited to the first part, an aggregating
plan skipping the parts that kept nothing, one part's error copied into
every slot.

``Database`` DML runs the same closures (``plan.compile_expr``), so a
second seeded sweep (``TestGeneratedDml``) loads the typed and the edge
relation into a ``Table`` and holds 300 generated UPDATE / DELETE
statements to the reference's ``evaluate_expr`` / ``evaluate_predicate``
over a copy of the rows: same rows in the same order, same count, same
exception, and nothing written by a statement that raises.  Seen to
fail with UPDATE writing ``row[name]`` as it walks (the parent's
behaviour): a swap reads the value it just wrote, and an error on a
later row leaves the earlier ones updated.

Hand mutations of ``sql/plan.py`` that must each fail this module (each
was applied and seen to fail; the statement that catches it is in
``KERNEL_EDGES`` as well as reachable by the sweep):

* the class guard of ``_guarded_stage`` loosened to ``isinstance`` —
  ``HostName IN ('h1', 'H11')`` loses the case-blind ``Host('h11')``,
  which a set lookup hashes past;
* a NULL conjunct short-circuited (``_deciding`` returns the closure
  whatever follows) — ``Load > 100 AND HostName > 3`` stops raising;
* ``LookupError`` swallowed in a kernel (a missing value reads as NULL
  instead of going to the closure) — ``Label BETWEEN 'a' AND 'h'``
  over the ``SHORT`` relation drops the row that lacks ``Label``
  instead of raising ``unknown column``;
* the sign fold applied to any literal (``-'x'``) — ``HostName = 'zz'
  AND Label = -'x'`` raises ``TypeError`` when bound instead of never;
* the empty-filter early return taken on a grouped plan — ``SELECT
  COUNT(*) ... WHERE Load > 100`` returns no row instead of ``[0]``;
* a batch fallback that raises its own error, or the first one in
  column or conjunct order (``_filter`` without the replay, ``_project``
  re-raising the ``LookupError``) — ``Load > 0 AND MemMB > 'x'`` over
  the edge relation and ``SELECT Label, MemMB`` over ``SHORT`` name
  the wrong operand types / the wrong column.
"""

import ast
import random
import re
from pathlib import Path

import pytest

import repro

from repro.sql import ast_nodes as sql_ast
from repro.sql.database import Database
from repro.sql.errors import SqlError, SqlExecutionError, SqlParseError
from repro.sql.parser import parse_select, parse_statement
from repro.sql.plan import CompiledPlan, compile_plan, join_rows
from tests import reference_sql
from tests.reference_sql import (
    evaluate_expr,
    evaluate_predicate,
    execute_select,
    natural_join,
)

COLUMNS = ["HostName", "SiteName", "Load", "MemMB", "Label"]

ROWS = [
    {"HostName": "h1", "SiteName": "s1", "Load": 0.5, "MemMB": 512, "Label": "alpha"},
    {"HostName": "h2", "SiteName": "s1", "Load": None, "MemMB": 1024, "Label": "Beta"},
    {"HostName": "h3", "SiteName": "s2", "Load": "2.5", "MemMB": None, "Label": None},
    {"HostName": "h4", "SiteName": "s2", "Load": 7, "MemMB": 2048, "Label": "alpha"},
    {"HostName": "h5", "SiteName": "s3", "Load": 0.5, "MemMB": 512, "Label": "gamma%"},
    {"HostName": "h6", "SiteName": "s3", "Load": -1.5, "MemMB": 256, "Label": ""},
]


class Host(str):
    """A ``str`` that is not exactly a ``str``: host names compare (and
    hash) without regard to case.  Only the closure's ``==`` scan gets
    ``IN`` right for it; a native set lookup misses."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.lower())


#: ``ROWS`` plus one value for every way a kernel's guard can miss.
EDGE_ROWS = ROWS + [
    {"HostName": "h7", "SiteName": "s1", "Load": True, "MemMB": 2**63, "Label": "alpha"},
    {"HostName": "h8", "SiteName": "s4", "Load": float("nan"), "MemMB": float("inf"), "Label": "Beta"},
    {"HostName": "h9", "SiteName": "s4", "Load": "n/a", "MemMB": float("-inf"), "Label": "1e3"},
    {"HostName": "h10", "SiteName": "s2", "Load": "1e3", "MemMB": "1e3", "Label": "h1"},
    {"HostName": Host("h11"), "SiteName": "s1", "Load": -0.0, "MemMB": 4096, "Label": "s2"},
]

#: Rows that lack a bind-time key.  h3 spells ``MemMB`` in another case
#: (the closure's slow lookup finds it), h4 has no such key at all and
#: h5 lacks the trailing ``Label`` — as a slot row, it is short.
LACKING_ROWS = [
    ROWS[0],
    ROWS[1],
    {"HostName": "h3", "SiteName": "s2", "Load": "2.5", "memmb": 512, "Label": None},
    {"HostName": "h4", "SiteName": "s2", "Load": 7, "Label": "alpha"},
    {"HostName": "h5", "SiteName": "s3", "Load": 0.5, "MemMB": 512},
]
#: The positional twin where there is one: a slot row cannot lack a
#: middle column, it can only be short.
SHORT_ROWS = [ROWS[0], ROWS[1], LACKING_ROWS[4]]


def slot_rows():
    return [[r[c] for c in COLUMNS] for r in ROWS]


def positional(columns, dict_rows):
    """Slot rows of ``dict_rows``: a row lacking trailing keys is short;
    None when some row lacks a key in the middle (no positional twin)."""
    out = []
    for r in dict_rows:
        present = [c in r for c in columns]
        width = max((i + 1 for i, there in enumerate(present) if there), default=0)
        if not all(present[:width]):
            return None
        out.append([r[c] for c in columns[:width]])
    return out


def outcome(fn, head=lambda result: (result.columns, result.rows)):
    """Result triple or exception fingerprint — compared across paths:
    a SELECT's ``(columns, rows)``, a DML statement's ``(count, rows)``.
    Rows compare by ``repr``: NaN equals NaN, 1 does not equal 1.0."""
    try:
        first, rows = head(fn())
        return ("ok", first, repr(rows))
    except Exception as exc:  # noqa: BLE001 - fingerprinting all failures
        return ("err", type(exc).__name__, str(exc))


def assert_equivalent(sql, columns=COLUMNS, dict_rows=ROWS):
    """The reference over ``dict_rows`` against ``bind`` over their
    positional twin, twice: as a driver's lists and as the tuples a
    table stores.  (Re-aimed: the mapping binding that read the dicts
    themselves is gone, so a relation with no positional twin checks
    the reference alone.)"""
    select = parse_select(sql)
    ref = outcome(lambda: execute_select(select, columns, dict_rows))
    rows = positional(columns, dict_rows)
    if rows is None:
        return ref
    if any(len(r) < len(columns) for r in rows) and (
        select.is_star or (select.order_by and any(i.alias for i in select.items))
    ):
        # A short slot row is adopted into a star projection (and into
        # the alias-extended sort rows) as it is, where the interpreter
        # pads a dict row's missing keys with NULL: not a kernel's doing
        # and not comparable.
        return ref
    plan = compile_plan(select)
    for kind, twin in (("list", rows), ("tuple", [tuple(r) for r in rows])):
        got = outcome(lambda: plan.bind(tuple(columns)).execute(twin))
        assert got == ref, f"{kind} rows diverged on {sql!r}:\n{got}\n{ref}"
    assert_each_equivalent(sql, columns, dict_rows, rows)
    return ref


def cut(rng, rows):
    """``rows`` in 2-3 consecutive parts, any of which may be empty."""
    bounds = sorted(rng.randint(0, len(rows)) for _ in range(rng.randint(1, 2)))
    edges = [0, *bounds, len(rows)]
    return [rows[a:b] for a, b in zip(edges, edges[1:])]


#: The errors ``execute_each`` returns in a slot; any other propagates.
SQL_ERRORS = {cls.__name__ for cls in (SqlError, SqlExecutionError, SqlParseError)}


def each_outcome(run):
    """``execute_each``'s answer: every slot's fingerprint (a result's,
    or its :class:`SqlError`'s), or the exception it raised."""
    return outcome(
        run,
        head=lambda results: ("each", [
            ("err", type(r).__name__, str(r)) if isinstance(r, SqlError)
            else ("ok", r.columns, repr(r.rows))
            for r in results
        ]),
    )


def each_reference(select, columns, parts):
    """What ``each_outcome`` must read: the reference over each part
    alone — up to the first failure that is not a :class:`SqlError`,
    which ``[execute(p) for p in parts]`` raises."""
    slots = [outcome(lambda p=part: execute_select(select, columns, p)) for part in parts]
    for slot in slots:
        if slot[0] == "err" and slot[1] not in SQL_ERRORS:
            return slot
    return ("ok", "each", repr(slots))


def assert_each_equivalent(sql, columns, dict_rows, slot_rows):
    """``execute_each`` over the positional twin ``slot_rows`` of
    ``dict_rows`` — lists, then tuples — cut into seeded parts: each
    part's outcome is the reference over that part's rows alone."""
    select = parse_select(sql)
    plan = compile_plan(select)
    rng = random.Random(f"{sql}/{len(dict_rows)}")
    indices = cut(rng, list(range(len(dict_rows))))
    want = each_reference(select, columns, [[dict_rows[i] for i in p] for p in indices])
    for kind, twin in (("list", slot_rows), ("tuple", [tuple(r) for r in slot_rows])):
        got = each_outcome(
            lambda: plan.bind(tuple(columns)).execute_each(
                [[twin[i] for i in p] for p in indices]
            )
        )
        assert got == want, f"{kind} execute_each diverged on {sql!r} cut {indices}:\n{got}\n{want}"


HAND_PICKED = [
    "SELECT * FROM Processor",
    "SELECT HostName, Load FROM Processor",
    "SELECT hostname, LOAD FROM Processor",
    "SELECT HostName FROM Processor WHERE Load > 1",
    "SELECT HostName FROM Processor WHERE Load > '1'",
    "SELECT * FROM Processor WHERE Load IS NULL",
    "SELECT * FROM Processor WHERE Load IS NOT NULL AND MemMB >= 512",
    "SELECT * FROM Processor WHERE Label LIKE 'a%'",
    "SELECT * FROM Processor WHERE Label LIKE '%a%'",
    "SELECT * FROM Processor WHERE Label LIKE 'gamma\\%'",
    "SELECT * FROM Processor WHERE Label LIKE Label",
    "SELECT * FROM Processor WHERE HostName LIKE '_2'",
    "SELECT HostName, Load * 2 AS Dbl FROM Processor ORDER BY Dbl DESC",
    "SELECT HostName, Load * 2 AS Load FROM Processor ORDER BY Load",
    "SELECT HostName AS a, SiteName AS a FROM Processor ORDER BY a",
    "SELECT * FROM Processor ORDER BY Load, HostName DESC",
    "SELECT * FROM Processor ORDER BY Missing",
    "SELECT COUNT(*) FROM Processor",
    "SELECT SUM(*) FROM Processor",
    "SELECT COUNT(Load), SUM(Load), AVG(Load), MIN(Load), MAX(MemMB) FROM Processor",
    "SELECT COUNT(DISTINCT Label) FROM Processor",
    "SELECT SiteName, COUNT(*) FROM Processor GROUP BY SiteName",
    "SELECT SiteName, AVG(MemMB) FROM Processor GROUP BY SiteName ORDER BY SiteName",
    "SELECT SiteName, COUNT(*) AS n FROM Processor GROUP BY SiteName"
    " HAVING n > 1 ORDER BY n DESC, SiteName",
    "SELECT SiteName, MAX(MemMB) FROM Processor WHERE Load IS NOT NULL"
    " GROUP BY SiteName",
    "SELECT SUM(MemMB) + 1 FROM Processor",
    "SELECT COUNT(*) * 2 FROM Processor WHERE Load > 100",
    "SELECT -Load FROM Processor",
    "SELECT NOT (Load > 1) FROM Processor",
    "SELECT DISTINCT SiteName FROM Processor",
    "SELECT DISTINCT Load, Label FROM Processor ORDER BY Load LIMIT 3",
    "SELECT * FROM Processor LIMIT 2 OFFSET 3",
    "SELECT * FROM Processor WHERE Load BETWEEN 0 AND 5",
    "SELECT * FROM Processor WHERE Load NOT BETWEEN 0 AND 5",
    "SELECT * FROM Processor WHERE SiteName IN ('s1', 's3')",
    "SELECT * FROM Processor WHERE SiteName NOT IN ('s1', Label)",
    "SELECT * FROM Processor WHERE Load + MemMB > 500",
    "SELECT * FROM Processor WHERE Load / 0 = 1",
    "SELECT * FROM Processor WHERE Load % 2 = 1",
    "SELECT Missing FROM Processor",
    "SELECT * FROM Processor WHERE Missing = 1",
    "SELECT *, COUNT(*) FROM Processor",
    "SELECT * FROM Processor GROUP BY SiteName",
    "SELECT HostName FROM Processor WHERE Load > Label",
]


#: One statement per edge of a column kernel: guard misses, the literal
#: on the left, the sign fold and what it must not fold, NULL conjuncts
#: in front of conjuncts that raise, errors out of row order.
KERNEL_EDGES = [
    "SELECT HostName FROM Processor WHERE 1 < Load",
    "SELECT HostName FROM Processor WHERE '1' >= Load",
    "SELECT HostName FROM Processor WHERE Load >= -1",
    "SELECT HostName FROM Processor WHERE Load > - -1",
    "SELECT HostName FROM Processor WHERE -1.5 = Load",
    "SELECT HostName FROM Processor WHERE Load != -1.5",
    "SELECT HostName FROM Processor WHERE Load = TRUE",
    "SELECT HostName FROM Processor WHERE Load > -TRUE",
    "SELECT HostName FROM Processor WHERE Load = NULL",
    "SELECT HostName FROM Processor WHERE Label = -'x'",
    "SELECT HostName FROM Processor WHERE HostName = 'zz' AND Label = -'x'",
    "SELECT HostName FROM Processor WHERE Load BETWEEN -2 AND 1e3",
    "SELECT HostName FROM Processor WHERE Load NOT BETWEEN -2 AND 0.5",
    "SELECT HostName FROM Processor WHERE Label BETWEEN 'a' AND 'h'",
    "SELECT HostName FROM Processor WHERE Label BETWEEN 0 AND 5",
    "SELECT HostName FROM Processor WHERE Load BETWEEN '0' AND 5",
    "SELECT HostName FROM Processor WHERE MemMB IN (512, 4096)",
    "SELECT HostName FROM Processor WHERE MemMB NOT IN (512, 4096.0, -1)",
    "SELECT HostName FROM Processor WHERE MemMB IN (512, '1e3')",
    "SELECT HostName FROM Processor WHERE Load IN (0.5, 1, 1000)",
    "SELECT HostName FROM Processor WHERE Label IN ('alpha', NULL)",
    "SELECT SiteName FROM Processor WHERE HostName IN ('h1', 'H11')",
    "SELECT SiteName FROM Processor WHERE HostName = 'H11' OR HostName > 'h5'",
    "SELECT HostName FROM Processor WHERE Label NOT IN ('alpha', '1e3')",
    "SELECT HostName FROM Processor WHERE Load LIKE '%5'",
    "SELECT HostName FROM Processor WHERE MemMB LIKE 512 AND Label LIKE '%A'",
    "SELECT HostName FROM Processor WHERE Label LIKE NULL OR HostName LIKE 'H1_'",
    "SELECT HostName FROM Processor WHERE memmb IS NULL",
    "SELECT HostName FROM Processor WHERE Processor.Label IS NOT NULL",
    "SELECT HostName FROM Processor WHERE Load > 100 AND HostName > 3",
    "SELECT HostName FROM Processor WHERE Load IS NULL AND HostName > 3",
    "SELECT HostName FROM Processor WHERE Load > 100 AND MemMB < 0 AND HostName > 3",
    "SELECT HostName FROM Processor WHERE Load > 0 AND MemMB > 'x'",
    "SELECT HostName FROM Processor WHERE HostName > 3 AND Load > 0",
    "SELECT HostName FROM Processor WHERE MemMB >= 512",
    "SELECT HostName FROM Processor WHERE MemMB >= 512 AND Label LIKE 'a%'",
    "SELECT COUNT(*) FROM Processor WHERE Load > 100",
    "SELECT COUNT(*), MAX(MemMB) FROM Processor WHERE MemMB > 1e400",
    "SELECT HostName, Load FROM Processor WHERE MemMB > 1e400 ORDER BY Missing LIMIT 2",
    "SELECT Label, MemMB FROM Processor",
    "SELECT MemMB, Label FROM Processor",
    "SELECT Label FROM Processor ORDER BY MemMB DESC, HostName",
    "SELECT SiteName, COUNT(MemMB), MIN(Label) FROM Processor GROUP BY SiteName",
    "SELECT MemMB, Label, COUNT(*) FROM Processor GROUP BY MemMB, Label",
    "SELECT Label, COUNT(*) FROM Processor GROUP BY Label ORDER BY Label DESC",
    "SELECT Load, COUNT(*) FROM Processor GROUP BY Load",
]

RELATIONS = {"typed": ROWS, "edge": EDGE_ROWS, "lacking": LACKING_ROWS, "short": SHORT_ROWS}


class TestHandPicked:
    @pytest.mark.parametrize("sql", HAND_PICKED)
    def test_equivalent(self, sql):
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        assert_equivalent(sql)

    @pytest.mark.parametrize("relation", RELATIONS)
    @pytest.mark.parametrize("sql", HAND_PICKED + KERNEL_EDGES)
    def test_kernel_edges(self, sql, relation):
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        assert_equivalent(sql, COLUMNS, RELATIONS[relation])

    def test_a_value_in_a_list_groups_with_its_tuple(self):
        # ``_hashable``: the group-key kernel meets an unhashable value
        # and hands the whole batch back to the closures.
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        rows = [
            {**ROWS[0], "Label": ["a", 1]},
            {**ROWS[1], "Label": ["a", 1]},
            {**ROWS[3], "Label": "alpha"},
        ]
        ref = assert_equivalent(
            "SELECT SiteName, Label, COUNT(*) FROM Processor GROUP BY SiteName, Label",
            COLUMNS,
            rows,
        )
        assert ref[0] == "ok" and "2]" in ref[2]

    def test_the_edges_are_met(self):
        """The relations do raise, and do not only raise: each edge
        statement succeeds over the typed rows or is one of the known
        raisers, and the lacking relation raises ``unknown column``, as
        a short positional row does under the plan.
        (Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        raisers = 0
        for sql in KERNEL_EDGES:
            raisers += assert_equivalent(sql)[0] == "err"
        assert 0 < raisers < len(KERNEL_EDGES) // 3
        assert assert_equivalent(
            "SELECT HostName FROM Processor WHERE MemMB >= 512", COLUMNS, LACKING_ROWS
        ) == ("err", "SqlExecutionError", "unknown column: 'MemMB'")
        assert assert_equivalent(
            "SELECT Label, MemMB FROM Processor", COLUMNS, SHORT_ROWS
        ) == ("err", "SqlExecutionError", "unknown column: 'Label'")
        assert assert_equivalent(
            "SELECT SiteName FROM Processor WHERE HostName IN ('h1', 'H11')", COLUMNS, EDGE_ROWS
        ) == ("ok", ["SiteName"], "[['s1'], ['s1']]")

    def test_empty_relation(self):
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        for sql in (
            "SELECT * FROM Processor",
            "SELECT COUNT(*) FROM Processor",
            "SELECT SUM(Load) FROM Processor",
            "SELECT HostName FROM Processor ORDER BY Load",
            "SELECT SiteName, COUNT(*) FROM Processor GROUP BY SiteName",
        ):
            assert_equivalent(sql, COLUMNS, [])

    def test_aggregate_references_column_on_empty_group(self):
        # Implicit single empty group: the interpreter resolves plain
        # columns against an empty sample row and raises.
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        ref = assert_equivalent(
            "SELECT HostName, COUNT(*) FROM Processor", COLUMNS, []
        )
        assert ref[0] == "err"

    def test_duplicate_source_labels_resolve_like_dicts(self):
        # dict(zip(...)) keeps the FIRST key position with the LAST value;
        # the slot binder must match both halves of that.
        columns = ["a", "B", "a"]
        dict_rows = [dict(zip(columns, row)) for row in [[1, 2, 3], [4, 5, 6]]]
        for sql in (
            "SELECT a FROM t",
            "SELECT A FROM t",
            "SELECT b FROM t ORDER BY a DESC",
            "SELECT * FROM t",
        ):
            select = parse_select(sql)
            ref = outcome(lambda: execute_select(select, columns, dict_rows))
            plan = compile_plan(select)
            positional = [[1, 2, 3], [4, 5, 6]]
            got = outcome(lambda: plan.bind(tuple(columns)).execute(positional))
            assert got == ref, sql


class TestExecuteEach:
    """``execute_each`` cases the seeded cuts of the sweep need not draw."""

    def test_a_row_object_in_two_parts_is_kept_in_both(self):
        select = parse_select("SELECT HostName FROM Processor WHERE MemMB >= 512")
        plan = compile_plan(select).bind(tuple(COLUMNS))
        first, second, third = slot_rows()[:3]
        parts = [[first, second], [third, first], [first]]
        got = plan.execute_each(parts)
        assert [r.rows for r in got] == [[["h1"], ["h2"]], [["h1"]], [["h1"]]]

    def test_an_error_stays_in_its_part(self):
        """Over stored tuples (re-aimed from the mapping binding, which
        read the dicts and is gone)."""
        sql = "SELECT HostName FROM Processor WHERE Load > 1"
        parts = [ROWS[:2], [EDGE_ROWS[8]], ROWS[3:]]  # h9's Load is 'n/a'
        stored = [[tuple(r[c] for c in COLUMNS) for r in part] for part in parts]
        plan = compile_plan(parse_select(sql)).bind(tuple(COLUMNS))
        first, error, last = plan.execute_each(stored)
        assert isinstance(error, SqlExecutionError) and error.__traceback__ is None
        assert (first.rows, last.rows) == ([], [["h4"]])
        assert each_outcome(lambda: plan.execute_each(stored)) == each_reference(
            parse_select(sql), COLUMNS, parts
        )

    def test_an_aggregate_answers_every_part(self):
        plan = compile_plan(
            parse_select("SELECT COUNT(*) FROM Processor WHERE Load > 100")
        ).bind(tuple(COLUMNS))
        got = plan.execute_each([slot_rows()[:2], [], slot_rows()[2:]])
        assert [r.rows for r in got] == [[[0]], [[0]], [[0]]]

    def test_no_parts(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor WHERE Load > 1"))
        assert plan.bind(tuple(COLUMNS)).execute_each([]) == []


NUMERIC = ["Load", "MemMB"]
TEXTUAL = ["HostName", "SiteName", "Label"]


def random_predicate(rng):
    """One random predicate over the test relation's columns."""
    roll = rng.randrange(13)
    col = rng.choice(COLUMNS)
    if roll == 0:
        return f"{col} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if roll == 1:
        return f"{rng.choice(TEXTUAL)} LIKE '{rng.choice(['a%', '%a%', 'h_', '%', 'Beta'])}'"
    if roll == 2:
        return f"{rng.choice(NUMERIC)} BETWEEN {rng.randrange(-2, 3)} AND {rng.randrange(3, 3000)}"
    if roll == 3:
        return f"SiteName IN ('s1', 's{rng.randrange(2, 5)}')"
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    if roll == 4:
        rhs = rng.choice(["0.5", "2", "512", "'1'"])
        return f"{rng.choice(NUMERIC)} {op} {rhs}"
    if roll == 5:
        return f"{rng.choice(TEXTUAL)} {op} '{rng.choice(['h1', 'alpha', 's2', ''])}'"
    if roll == 6:
        return f"{rng.choice(NUMERIC)} {rng.choice(['+', '-', '*', '/', '%'])} {rng.randrange(0, 4)} {op} {rng.randrange(0, 1024)}"
    if roll == 7:
        return f"{rng.choice(COLUMNS)} {op} {rng.choice(COLUMNS)}"
    # Column-kernel shapes the first eight never write.
    if roll == 8:  # the literal on the left, signed
        lhs = rng.choice(["0.5", "-1.5", "- -2", "512", "1e3", "'1'", "'alpha'", "-0"])
        return f"{lhs} {op} {col}"
    if roll == 9:  # a sign in front of anything
        rhs = rng.choice(["-1", "-1.5", "-4096", "- - 7", "-'x'", "-TRUE", "-NULL"])
        return f"{rng.choice(NUMERIC)} {op} {rhs}"
    if roll == 10:  # numeric / mixed / negated membership
        items = rng.sample(["512", "4096", "0.5", "-1.5", "7", "'1e3'", "'2.5'", "NULL"], 3)
        return f"{rng.choice(NUMERIC)} {'NOT ' if rng.random() < 0.3 else ''}IN ({', '.join(items)})"
    if roll == 11:  # string and ill-typed ranges
        low, high = rng.choice([("'a'", "'h'"), ("''", "'s2'"), ("0", "'z'"), ("-1", "1")])
        return f"{col} {'NOT ' if rng.random() < 0.3 else ''}BETWEEN {low} AND {high}"
    # A type error unless something in front of it is false: the
    # NULLs of the other conjuncts decide whether it is reached.
    return f"{rng.choice(TEXTUAL)} {rng.choice(['<', '<=', '>', '>='])} {rng.randrange(0, 4)}"


def random_where(rng):
    """One to three predicates glued by AND / OR, some negated."""
    parts = [random_predicate(rng) for _ in range(rng.randrange(1, 4))]
    glue = [rng.choice([" AND ", " OR "]) for _ in parts[1:]]
    out = parts[0]
    for g, p in zip(glue, parts[1:]):
        p = f"NOT ({p})" if rng.random() < 0.2 else p
        out += g + p
    return out


def random_select(rng):
    """One random SELECT over the test relation (always parseable)."""
    grouped = rng.random() < 0.4
    sql_parts = ["SELECT"]
    if rng.random() < 0.2:
        sql_parts.append("DISTINCT")
    if grouped:
        aggs = ["COUNT(*)", "SUM(Load)", "AVG(MemMB)", "MIN(Label)",
                "MAX(Load)", "COUNT(DISTINCT Label)"]
        items = ["SiteName"] + rng.sample(aggs, rng.randrange(1, 3))
        if rng.random() < 0.5:
            items[1] += " AS agg"
        sql_parts.append(", ".join(items))
        sql_parts.append("FROM Processor")
        if rng.random() < 0.6:
            sql_parts.append("WHERE " + random_where(rng))
        sql_parts.append("GROUP BY SiteName")
        if rng.random() < 0.4:
            sql_parts.append("HAVING COUNT(*) >= " + str(rng.randrange(0, 3)))
        if rng.random() < 0.5:
            sql_parts.append("ORDER BY SiteName" + rng.choice(["", " DESC"]))
    else:
        if rng.random() < 0.3:
            sql_parts.append("*")
        else:
            items = rng.sample(COLUMNS, rng.randrange(1, 4))
            if rng.random() < 0.4:
                items.append(f"{rng.choice(NUMERIC)} * 2 AS Scaled")
            sql_parts.append(", ".join(items))
        sql_parts.append("FROM Processor")
        if rng.random() < 0.7:
            sql_parts.append("WHERE " + random_where(rng))
        if rng.random() < 0.5:
            keys = rng.sample(COLUMNS + ["Scaled"], rng.randrange(1, 3))
            sql_parts.append(
                "ORDER BY "
                + ", ".join(k + rng.choice(["", " DESC"]) for k in keys)
            )
    if rng.random() < 0.3:
        sql_parts.append(f"LIMIT {rng.randrange(0, 6)}")
        if rng.random() < 0.5:
            sql_parts.append(f"OFFSET {rng.randrange(0, 4)}")
    return " ".join(sql_parts)


class TestGeneratedDifferential:
    def test_seeded_sweep(self):
        """400 generated SELECTs, byte-identical across all three paths,
        over each relation.
        (Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        rng = random.Random(20260809)
        for i in range(400):
            sql = random_select(rng)
            for name, rows in RELATIONS.items():
                try:
                    assert_equivalent(sql, COLUMNS, rows)
                except AssertionError:
                    raise AssertionError(f"iteration {i} over {name}: {sql}") from None

    def test_generator_exercises_interesting_shapes(self):
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        rng = random.Random(20260809)
        batch = [random_select(rng) for _ in range(400)]
        assert any("LIKE" in s for s in batch)
        assert any("GROUP BY" in s for s in batch)
        assert any("ORDER BY" in s for s in batch)
        assert any(" AS " in s for s in batch)
        assert any("DISTINCT" in s for s in batch)
        assert any("LIMIT" in s for s in batch)
        # Kernel edges: a literal on the left, signs, numeric IN, string
        # BETWEEN, and a raising conjunct behind an AND.
        assert any(re.search(r"WHERE (-|'|\d)[^ ]* (=|!=|<|>)", s) for s in batch)
        assert any("- -" in s for s in batch) and any("-'x'" in s for s in batch)
        assert any(re.search(r"(Load|MemMB) (NOT )?IN \(", s) for s in batch)
        assert any("BETWEEN 'a' AND 'h'" in s for s in batch)
        assert any(re.search(r"AND (HostName|SiteName|Label) [<>]=? \d", s) for s in batch)
        # ... and the sweep is not all errors: most statements succeed
        # over the typed rows, and a fair share still do over the edges.
        ok = {
            name: sum(assert_equivalent(s, COLUMNS, rows)[0] == "ok" for s in batch)
            for name, rows in RELATIONS.items()
        }
        assert ok["typed"] >= 280 and ok["edge"] >= 120 and ok["short"] >= 120, ok


# ----------------------------------------------------------------------
# DML: Database runs the compiled closures, held to the same reference
# ----------------------------------------------------------------------
#: The test relation's columns as a table declares them: assignments are
#: coerced (``cannot coerce 'x' to INTEGER``), loaded rows are not.
DML_COLUMNS = [("HostName", "TEXT"), ("SiteName", "TEXT"), ("Load", "REAL"),
               ("MemMB", "INTEGER"), ("Label", "TEXT")]


def recased(rng, text):
    """``text`` with some column names spelt in another case: they
    resolve through the case-insensitive fallback."""
    return re.sub(
        r"\b(%s)\b" % "|".join(COLUMNS),
        lambda m: rng.choice([m[0], m[0], m[0].lower(), m[0].upper()]),
        text,
    )


def random_dml(rng):
    """One random ``UPDATE … SET … [WHERE …]`` / ``DELETE … [WHERE …]``
    over the test relation (always parseable)."""
    where = ""
    if rng.random() < 0.85:
        where = " WHERE " + random_where(rng)
        if rng.random() < 0.3:
            where = recased(rng, where)
    if rng.random() < 0.35:
        return "DELETE FROM Processor" + where

    def value():
        roll = rng.randrange(5)
        if roll == 0:  # what a declared type takes, refuses, or overflows on
            return rng.choice(["0", "7", "-1.5", "'9'", "'2.5'", "'x'", "NULL", "TRUE", "1e400"])
        if roll == 1:
            return recased(rng, rng.choice(COLUMNS))
        if roll == 2:
            op = rng.choice(["+", "-", "*", "/", "%"])
            return f"{rng.choice(NUMERIC)} {op} {rng.randrange(0, 4)}"
        if roll == 3:
            return f"-{rng.choice(NUMERIC)}"
        return f"{rng.choice(NUMERIC)} + {rng.choice(NUMERIC)}"

    if rng.random() < 0.15:  # a swap reads the row as found
        a, b = rng.sample(COLUMNS, 2)
        assignments = [f"{a} = {b}", f"{b} = {a}"]
    else:
        # An assignment's target is spelt exactly or not known at all.
        targets = COLUMNS + ["load"] if rng.random() < 0.05 else COLUMNS
        assignments = [f"{rng.choice(targets)} = {value()}" for _ in range(rng.randrange(1, 4))]
    return f"UPDATE Processor SET {', '.join(assignments)}" + where


def loaded_table(dict_rows):
    """A table holding ``dict_rows`` as it stores rows: tuples in column
    order, the values as they are (edges stay edges).  Re-aimed from
    storing the dicts themselves."""
    db = Database()
    table = db.create_table("Processor", DML_COLUMNS)
    table.rows = [tuple(r[c] for c in table.column_names) for r in dict_rows]
    return db, table


def reference_dml(stmt, table):
    """``(count, rows)`` after ``stmt``, by the reference interpreter over
    dict copies of ``table``'s rows, handed back as the tuples the table
    stores; only ``Table.coerce`` is the table's."""
    count, rows = _reference_dml(stmt, table, [dict(zip(table.column_names, r)) for r in table.rows])
    return count, [tuple(r.values()) for r in rows]


def _reference_dml(stmt, table, rows):
    if isinstance(stmt, sql_ast.Delete):
        kept = [r for r in rows if not evaluate_predicate(stmt.where, r)]
        return len(rows) - len(kept), kept
    coldefs = {c.name: c for c in table.columns}
    for name, _ in stmt.assignments:
        if name not in coldefs:
            raise SqlExecutionError(f"unknown column {name!r} in UPDATE {stmt.table}")
    count = 0
    for row in rows:
        if evaluate_predicate(stmt.where, row):
            row.update({
                name: table.coerce(coldefs[name], evaluate_expr(expr, row))
                for name, expr in stmt.assignments
            })
            count += 1
    return count, rows


def assert_dml_equivalent(sql, dict_rows):
    stmt = parse_statement(sql)
    db, table = loaded_table(dict_rows)
    found = repr(table.rows)
    ref = outcome(lambda: reference_dml(stmt, table), tuple)
    got = outcome(lambda: (db.execute_ast(stmt), table.rows), tuple)
    assert got == ref, f"Database diverged on {sql!r}:\n{got}\n{ref}"
    if ref[0] == "err":
        assert repr(table.rows) == found, f"{sql!r} raised and left the table changed"
    return ref


class TestGeneratedDml:
    def test_seeded_sweep(self):
        """300 generated UPDATE / DELETE statements over the typed and the
        kernel-edge relation: same surviving rows in the same order, same
        count, same exception type and message as the reference, and a
        statement that raises leaves the table as it found it.
        (Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        rng = random.Random(20261003)
        batch = [random_dml(rng) for _ in range(300)]
        seen = {name: {"ok": 0, "err": 0, "touched": 0} for name in ("typed", "edge")}
        for i, sql in enumerate(batch):
            for name, tally in seen.items():
                try:
                    ref = assert_dml_equivalent(sql, RELATIONS[name])
                except AssertionError:
                    raise AssertionError(f"iteration {i} over {name}: {sql}") from None
                tally[ref[0]] += 1
                tally["touched"] += ref[0] == "ok" and ref[1] > 0
        # The generator writes what the sweep is for ...
        assert sum(s.startswith("DELETE") for s in batch) >= 60
        assert sum(" WHERE " not in s for s in batch) >= 20
        assert any(re.search(r" WHERE .*\b(load|memmb|LABEL|HOSTNAME)\b", s) for s in batch)
        assert any(re.search(r"SET (\w+) = (\w+), \2 = \1\b", s) for s in batch)
        assert any("IS NULL" in s for s in batch) and any("'1'" in s for s in batch)
        # ... and the statements both change rows and raise, over both.
        for name, tally in seen.items():
            assert tally["touched"] >= 60 and tally["err"] >= 40, (name, tally)

    def test_the_errors_are_the_typed_ones(self):
        """(Re-aimed: the plan binds with ``bind`` over lists and stored tuples.)"""
        typed = ("err", "SqlExecutionError")
        for sql, rows, expected in [
            ("UPDATE Processor SET MemMB = Label", ROWS,
             (*typed, "cannot coerce 'alpha' to INTEGER for Processor.MemMB")),
            ("UPDATE Processor SET MemMB = 1e400", ROWS,
             (*typed, "cannot coerce inf to INTEGER for Processor.MemMB")),
            ("UPDATE Processor SET load = 1", ROWS,
             (*typed, "unknown column 'load' in UPDATE Processor")),
            ("DELETE FROM Processor WHERE nope = 1", ROWS,
             (*typed, "unknown column: 'nope'")),
            ("DELETE FROM Processor WHERE Load > 100 AND HostName > 3", EDGE_ROWS,
             (*typed, "type error in '>': str vs int")),
            ("DELETE FROM Processor WHERE load > '1'", ROWS, ("ok", 2)),
        ]:
            assert assert_dml_equivalent(sql, rows)[: len(expected)] == expected, sql


class TestBindingCache:
    def test_bindings_cached_per_layout(self):
        """One binding per layout; ``bind_mapping`` (re-aimed) is only
        the alias the e2e benchmark's layer table resolves, and hands
        back the same binding."""
        plan = compile_plan(parse_select("SELECT HostName FROM Processor"))
        assert plan.bind(tuple(COLUMNS)) is plan.bind(tuple(COLUMNS))
        assert plan.bind_mapping(tuple(COLUMNS)) is plan.bind(tuple(COLUMNS))
        assert plan.bind(tuple(COLUMNS)) is not plan.bind(("HostName",))

    def test_compile_plan_returns_compiled_plan(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        assert isinstance(plan, CompiledPlan)
        assert plan.select.table == "Processor"


class TestJoinRows:
    def relations(self):
        a_cols = ["HostName", "SiteName", "Load"]
        b_cols = ["HostName", "SiteName", "MemMB", "Vendor"]
        a_rows = [
            {"HostName": "h1", "SiteName": "s1", "Load": 1.0},
            {"HostName": "h2", "SiteName": "s1", "Load": 2.0},
            {"HostName": "h3", "SiteName": "s2", "Load": None},
        ]
        b_rows = [
            {"HostName": "h1", "SiteName": "s1", "MemMB": 512, "Vendor": "x"},
            {"HostName": "h2", "SiteName": "s1", "MemMB": 1024, "Vendor": "y"},
            {"HostName": "h2", "SiteName": "s1", "MemMB": 2048, "Vendor": "z"},
        ]
        return (a_cols, a_rows), (b_cols, b_rows)

    def positional(self, relation):
        cols, dict_rows = relation
        return cols, [[r.get(c) for c in cols] for r in dict_rows]

    def test_matches_natural_join(self):
        rel_a, rel_b = self.relations()
        for key_columns in (None, ("HostName", "SiteName"), ("SiteName",)):
            cols, dict_rows = natural_join([rel_a, rel_b], key_columns=key_columns)
            pcols, prow = join_rows(
                [self.positional(rel_a), self.positional(rel_b)],
                key_columns=key_columns,
            )
            assert pcols == cols
            assert prow == [[d.get(c) for c in cols] for d in dict_rows]

    def test_empty_and_errors_match(self):
        assert join_rows([]) == ([], [])
        rel_a, _ = self.relations()
        disjoint = (["Other"], [{"Other": 1}])
        import pytest as _pytest

        with _pytest.raises(Exception) as interp:
            natural_join([rel_a, disjoint])
        with _pytest.raises(Exception) as compiled:
            join_rows([self.positional(rel_a), self.positional(disjoint)])
        assert str(interp.value) == str(compiled.value)
        assert type(interp.value) is type(compiled.value)


class TestZeroCopy:
    def test_star_projection_adopts_rows(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        rows = slot_rows()
        result = plan.bind(tuple(COLUMNS)).execute(rows)
        # Caller-relinquished rows are adopted, not copied.
        assert all(out is src for out, src in zip(result.rows, rows))

    def test_mapping_star_builds_fresh_rows(self):
        """Re-aimed from mapping rows, which no table stores any more:
        over stored tuples, a star answer's rows are lists of its own,
        so mutating one leaves the stored row as it was."""
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        stored = [tuple(r) for r in slot_rows()]
        result = plan.bind(tuple(COLUMNS)).execute(stored)
        assert all(type(row) is list for row in result.rows)
        result.rows[0][0] = "mutated"
        assert stored[0][0] == "h1"


def test_only_the_executor_module_names_the_interpreter():
    """One expression evaluator serves.  (The id is from when the
    reference was ``repro.sql.executor``; it lives in
    ``tests/reference_sql.py`` now.)  No file under ``src/repro`` names
    an interpreter entry point or imports from ``tests``, and the
    reference imports nothing of ``repro`` but the AST, the error types
    and the value helpers — never the code it judges."""
    root = Path(repro.__file__).parent
    names = re.compile(
        r"\b(execute_select|evaluate_expr|evaluate_predicate|natural_join)\b"
        r"|^\s*(from|import)\s+tests\b",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if names.search(path.read_text())
    ]
    assert offenders == []
    imported = set()
    for node in ast.walk(ast.parse(Path(reference_sql.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] in ("repro", "tests")} == {
        "repro.sql.ast_nodes",
        "repro.sql.errors",
        "repro.sql.values",
    }
