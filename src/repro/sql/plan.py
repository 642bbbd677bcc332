"""Compiled query plans: the one expression evaluator under ``src/repro``.

A tree-walking interpreter re-walks the AST for every row: each column
reference re-resolves its name against the row mapping and every
operator dispatch is an ``isinstance`` ladder.  This module compiles a
parsed :class:`~repro.sql.ast_nodes.Select` **once**, into closures and,
in front of them, column kernels:

* :func:`compile_plan` produces a :class:`CompiledPlan` — a layout-
  independent holder for the statement;
* ``plan.bind(columns)`` resolves every column name to a tuple-slot index
  against a concrete column layout and returns a :class:`BoundPlan`
  whose ``execute(rows)`` evaluates predicate/projection/ordering/
  aggregation over **positional rows** — a driver's lists or the
  tuples a table stores, in its column order — building no per-row
  dicts, and whose ``execute_each(parts)`` answers several relations
  of that layout at once — one WHERE pass over all their rows, the rest
  of the plan per relation that kept any (the stream hub's round);
* :func:`compile_expr` is that compiler for one expression on its own
  — what :class:`~repro.sql.database.Database` runs INSERT values,
  UPDATE assignments and UPDATE / DELETE predicates through.

Bindings are cached per layout on the plan, so repeated queries pay the
closure-construction cost once.

Every AST node compiles to a **closure** over one row
(:func:`_compile_expr`), and those closures are the semantics: NULL
tri-state, numeric-string coercion, the case-insensitive column
fallback and every error message are defined there and nowhere else.
The shapes that make up almost every monitoring query also get a
**column kernel**: a loop over the whole batch that subscripts the row
once, by slot index, and applies the native operator with no Python
call per row.

* A top-level WHERE conjunct ``column <op> literal`` (either order, a
  sign folded into a numeric literal), ``column LIKE 'pattern'``,
  ``[NOT] BETWEEN`` / ``[NOT] IN`` over literals or ``IS [NOT] NULL``
  is a filter stage (:func:`_compile_filter`).  Its guard is the
  value's **exact class**: ``float`` / ``int`` against a numeric
  literal, ``str`` against a string literal — the pairs
  ``coerce_pair`` leaves alone, so the native operator *is* the
  closure's answer.  Never ``isinstance``: ``bool``, NULL, a numeric
  string, ``Decimal`` or a short row all go to the node's closure.
* A projection, GROUP BY key list, ORDER BY key or aggregate argument
  made only of plain columns is one ``itemgetter`` / comprehension per
  batch; an ``IndexError`` (a short row) sends the whole batch back
  through the per-row closures, so the first error raised is the same
  one.

A kernel is chosen from the AST shape when the plan is bound (a few
``isinstance`` checks — no generated source, because a bind happens on
every plan-cache miss) and is only ever a guard in front of the closure
``_compile_expr`` built for the same node.

Semantics are **byte-identical** to the reference interpreter the tests
keep (``tests/reference_sql.py``) — NULL tri-state logic, AND/OR
short-circuiting, numeric-string coercion, the case-insensitive column
fallback, alias-aware ORDER BY, error messages — and a differential
property test (``tests/test_sql_plan.py``) enforces the equivalence over
generated SELECT, UPDATE and DELETE statements.  The value-level helpers
both sides must share live in :mod:`repro.sql.values`.

:func:`join_rows` is the positional natural join of the gateway's
multi-group join path (the reference has the dict-row one).
"""

from __future__ import annotations

import operator
from collections import defaultdict
from functools import partial
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlError, SqlExecutionError
from repro.sql.values import (
    SelectResult,
    SortKey,
    aggregate_values,
    apply_binop_values,
    coerce_pair,
    compile_like,
    hashable,
)

#: A compiled accessor/evaluator over one positional row.
RowFn = Callable[[Any], Any]
#: A compiled evaluator over one group: (member rows, sample row) -> value.
GroupFn = Callable[[list[Any], Any], Any]
#: A column kernel over one batch: rows in, the surviving rows / the
#: extracted values out, as a fresh list.
BatchFn = Callable[[Sequence[Any]], list[Any]]

#: The exact classes of a row value that ``coerce_pair`` leaves alone
#: against a numeric / a string literal: there the native operator is
#: the closure's answer.  Subclasses (``bool``) are not in them.
_NUMBERS = (float, int)
_STRINGS = (str, str)


def _raise_unknown(qualified: str) -> Any:
    raise SqlExecutionError(f"unknown column: {qualified!r}")


class _Layout:
    """One column layout of positional rows; a name resolves to its
    slot index in it."""

    __slots__ = ("columns", "_exact")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        # Each distinct label in first-seen order, at its slot.  As in
        # ``dict(zip(columns, row))``, a duplicate's last place wins.
        self._exact = {c: i for i, c in enumerate(self.columns)}

    def slot(self, column: ast.Column) -> int | None:
        """A column reference's slot, or None when absent: the reference
        interpreter's resolution against a dict row keyed by the layout
        — exact name, then qualified name, then the first distinct label
        that matches case-insensitively."""
        exact = self._exact
        index = exact.get(column.name)
        if index is None:
            index = exact.get(column.qualified)
        if index is None:
            lowered = column.name.lower()
            index = next((i for c, i in exact.items() if c.lower() == lowered), None)
        return index

    def resolve(self, column: ast.Column) -> RowFn:
        index = self.slot(column)
        qualified = column.qualified
        if index is None:
            return lambda row: _raise_unknown(qualified)

        def accessor(row: Any, i: int = index, q: str = qualified) -> Any:
            try:
                return row[i]
            except IndexError:
                return _raise_unknown(q)

        return accessor

    def star_rows(self, filtered: list[Any]) -> list[list[Any]]:
        # A driver's lists under this layout ARE the star projection:
        # adopt them without building per-row copies (zero-copy path).
        # A batch's rows are all of one kind, and tuples are rows a
        # table stores: the answer gets lists of its own.  Duplicate
        # labels are the one exception — the interpreter's dict
        # round-trip makes the last occurrence's value show at every
        # duplicate position, so mirror that explicitly.
        if len(self._exact) != len(self.columns):
            idx = [self._exact[c] for c in self.columns]
            return [[row[i] for i in idx] for row in filtered]
        if filtered and filtered[0].__class__ is tuple:
            return list(map(list, filtered))
        return filtered


# ----------------------------------------------------------------------
# Expression compilation (row-level)
# ----------------------------------------------------------------------
def _literal(expr: ast.Expr) -> ast.Literal | None:
    """``expr`` as a constant: a literal, or a sign in front of a numeric
    one (``-3`` parses as a negation).  Only what cannot raise when
    evaluated is folded: ``-'x'`` and ``-TRUE`` stay expressions."""
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _literal(expr.operand)
        if inner is not None and inner.value.__class__ in _NUMBERS:
            return ast.Literal(-inner.value)  # type: ignore[operator]
    return None


def _compile_expr(expr: ast.Expr, layout: _Layout) -> RowFn:
    """Compile an expression to a closure over one row.

    Compilation is total: anything the reference interpreter rejects at
    evaluation time compiles to a closure raising the identical
    :class:`SqlExecutionError` when (and only when) evaluated.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Column):
        return layout.resolve(expr)
    if isinstance(expr, ast.Star):
        def star_error(row: Any) -> Any:
            raise SqlExecutionError(
                "'*' is only valid as a projection or in COUNT(*)"
            )
        return star_error
    if isinstance(expr, ast.UnaryOp):
        constant = _literal(expr)
        if constant is not None:
            return _compile_expr(constant, layout)
        inner = _compile_expr(expr.operand, layout)
        if expr.op == "NOT":
            def not_fn(row: Any) -> Any:
                val = inner(row)
                if val is None:
                    return None
                return not bool(val)
            return not_fn
        # The parser builds no unary operator but NOT and minus.
        def neg_fn(row: Any) -> Any:
            val = inner(row)
            if val is None:
                return None
            return -val
        return neg_fn
    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr, layout)
    if isinstance(expr, ast.InList):
        target = _compile_expr(expr.expr, layout)
        items = [_compile_expr(i, layout) for i in expr.items]
        negated = expr.negated

        def in_fn(row: Any) -> Any:
            val = target(row)
            if val is None:
                return None
            found = False
            for item in items:
                a, b = coerce_pair(val, item(row))
                if a == b:
                    found = True
                    break
            return (not found) if negated else found
        return in_fn
    if isinstance(expr, ast.Between):
        target = _compile_expr(expr.expr, layout)
        low = _compile_expr(expr.low, layout)
        high = _compile_expr(expr.high, layout)
        negated = expr.negated

        def between_fn(row: Any) -> Any:
            val = target(row)
            lo = low(row)
            hi = high(row)
            if val is None or lo is None or hi is None:
                return None
            a, l_ = coerce_pair(val, lo)
            a2, h = coerce_pair(val, hi)
            result = l_ <= a and a2 <= h
            return (not result) if negated else result
        return between_fn
    if isinstance(expr, ast.IsNull):
        target = _compile_expr(expr.expr, layout)
        negated = expr.negated

        def isnull_fn(row: Any) -> Any:
            val = target(row)
            return (val is not None) if negated else (val is None)
        return isnull_fn
    # Every other node is a function call: the parser builds no other
    # expression (``ast.Expr``).
    func_name = expr.name

    def agg_error(row: Any) -> Any:
        raise SqlExecutionError(
            f"aggregate {func_name} used outside an aggregating query"
        )
    return agg_error


#: Operators whose value-level form is a plain binary function (the
#: zero-divisor ops and AND/OR/LIKE need their own closures).
_DIRECT_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def _compile_binop(expr: ast.BinOp, layout: _Layout) -> RowFn:
    op = expr.op
    left = _compile_expr(expr.left, layout)
    if op == "AND":
        right = _compile_expr(expr.right, layout)

        def and_fn(row: Any) -> Any:
            lv = left(row)
            if lv is not None and not lv:
                return False
            rv = right(row)
            if rv is not None and not rv:
                return False
            if lv is None or rv is None:
                return None
            return True
        return and_fn
    if op == "OR":
        right = _compile_expr(expr.right, layout)

        def or_fn(row: Any) -> Any:
            lv = left(row)
            if lv is not None and lv:
                return True
            rv = right(row)
            if rv is not None and rv:
                return True
            if lv is None or rv is None:
                return None
            return False
        return or_fn
    if (
        op == "LIKE"
        and isinstance(expr.right, ast.Literal)
        and expr.right.value is not None
    ):
        # The common shape — a constant pattern — compiles its regex
        # exactly once, at plan-compile time.
        pattern = compile_like(str(expr.right.value))

        def like_fn(row: Any) -> Any:
            lv = left(row)
            if lv is None:
                return None
            return pattern.match(str(lv)) is not None
        return like_fn
    right = _compile_expr(expr.right, layout)
    fn = _DIRECT_OPS.get(op)
    if fn is not None:
        # Hot path: prebound operator function, no dispatch ladder.  The
        # None / coercion / error behaviour mirrors apply_binop_values
        # exactly (the differential oracle holds both to the letter).
        def direct_fn(row: Any) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            a, b = coerce_pair(lv, rv)
            try:
                return fn(a, b)
            except TypeError as exc:
                raise SqlExecutionError(
                    f"type error in {op!r}: "
                    f"{type(lv).__name__} vs {type(rv).__name__}"
                ) from exc
        return direct_fn
    if op in ("/", "%"):
        div = operator.truediv if op == "/" else operator.mod

        def div_fn(row: Any) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            a, b = coerce_pair(lv, rv)
            try:
                if b == 0:
                    return None
                return div(a, b)
            except TypeError as exc:
                raise SqlExecutionError(
                    f"type error in {op!r}: "
                    f"{type(lv).__name__} vs {type(rv).__name__}"
                ) from exc
        return div_fn

    def binop_fn(row: Any) -> Any:
        return apply_binop_values(op, left(row), right(row))
    return binop_fn


# ----------------------------------------------------------------------
# Column kernels
# ----------------------------------------------------------------------
#: Stands in for a value the subscript did not find; its class fails
#: every guard, so the node's closure gets to look (or to raise).
_MISSING = object()

#: ``literal <op> column`` read with the column on the left, and back.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _conjuncts(where: ast.Expr | None) -> Iterator[ast.Expr]:
    """The operands of the top-level AND chain, in evaluation order."""
    if isinstance(where, ast.BinOp) and where.op == "AND":
        yield from _conjuncts(where.left)
        yield from _conjuncts(where.right)
    elif where is not None:
        yield where


def _column_vs_literal(
    expr: ast.Expr,
) -> tuple[str, ast.Column, ast.Literal] | None:
    """A comparison of one plain column with a constant, as ``(op,
    column, literal)`` with the column on the left (``5 < c`` reads
    ``(">", c, 5)``)."""
    if not isinstance(expr, ast.BinOp) or expr.op not in _MIRRORED:
        return None
    if isinstance(expr.left, ast.Column):
        literal = _literal(expr.right)
        if literal is not None:
            return expr.op, expr.left, literal
    elif isinstance(expr.right, ast.Column):
        literal = _literal(expr.left)
        if literal is not None:
            return _MIRRORED[expr.op], expr.right, literal
    return None


def _guard_for(values: Sequence[Any]) -> tuple[type, type] | None:
    """The class guard under which a native comparison with every one
    of these literal values is what the closure computes, if any."""
    classes = {v.__class__ for v in values}
    if classes <= {float, int}:
        return _NUMBERS
    if classes == {str}:
        return _STRINGS
    return None


def _column_test(
    expr: ast.Expr,
) -> tuple[ast.Column, tuple[type, type], Callable[[Any], Any]] | None:
    """``(column, guard, test)`` when ``expr`` tests one plain column
    against literals: for a value ``v`` of that column whose exact class
    is in ``guard``, ``test(v)`` is what the closure for ``expr``
    returns, or a value as true or false as that.  (``IS NULL`` needs no
    guard; see :func:`_null_stage`.)"""
    compared = _column_vs_literal(expr)
    if compared is not None:
        op, column, literal = compared
        guard = _guard_for([literal.value])
        if guard is None:
            return None
        # test(v) is ``literal <mirrored op> v``: one C call per row.
        return column, guard, partial(_DIRECT_OPS[_MIRRORED[op]], literal.value)
    if isinstance(expr, ast.BinOp) and expr.op == "LIKE":
        column, pattern = expr.left, expr.right
        if (
            isinstance(column, ast.Column)
            and isinstance(pattern, ast.Literal)
            and pattern.value is not None
        ):
            # A match object is truthy, no match is None: that is enough.
            return column, _STRINGS, compile_like(str(pattern.value)).match
        return None
    if not isinstance(expr, (ast.Between, ast.InList)):
        return None
    column, negated = expr.expr, expr.negated
    if not isinstance(column, ast.Column):
        return None
    operands = expr.items if isinstance(expr, ast.InList) else (expr.low, expr.high)
    literals = [_literal(o) for o in operands]
    if None in literals:
        return None
    values: list[Any] = [lit.value for lit in literals]  # type: ignore[union-attr]
    guard = _guard_for(values)
    if guard is None:
        return None
    if isinstance(expr, ast.Between):
        low, high = values
        return column, guard, lambda v: (low <= v <= high) is not negated
    # Membership by hash agrees with the closure's ``==`` scan except
    # for a NaN item, which equals nothing but is found by identity.
    if any(v != v for v in values):
        return None
    members = frozenset(values)
    if negated:
        return column, guard, lambda v: v not in members
    return column, guard, members.__contains__


def _guarded_stage(
    key: Any, guard: tuple[type, type], test: Callable[[Any], Any], decide: RowFn
) -> BatchFn:
    """Filter a batch on ``test(row[key])``; a row whose value is not of
    a ``guard`` class (NULL, numeric string, ``bool``, ...) or is not
    there at all (missing key, short row) is ``decide``'s."""
    first, second = guard

    def stage(rows: Sequence[Any]) -> list[Any]:
        out: list[Any] = []
        keep = out.append
        for row in rows:
            try:
                value = row[key]
            except LookupError:
                value = _MISSING
            cls = value.__class__
            if test(value) if cls is first or cls is second else decide(row):
                keep(row)
        return out
    return stage


def _null_stage(key: Any, negated: bool, decide: RowFn) -> BatchFn:
    """``column IS [NOT] NULL`` over a batch.  The test cannot be NULL
    and cannot raise once the value is found, so a lookup failure
    anywhere redoes the batch through the closure."""
    def stage(rows: Sequence[Any]) -> list[Any]:
        try:
            return [row for row in rows if (row[key] is None) is not negated]
        except LookupError:
            return [row for row in rows if decide(row)]
    return stage


def _deciding(closure: RowFn, later: Sequence[RowFn]) -> RowFn:
    """A conjunct's closure as the judge of one row inside an AND chain
    that runs stage by stage: truthy keeps the row.

    NULL rejects it, but AND goes on evaluating the conjuncts after a
    NULL one until one of them is false, and they may raise (``NULL AND
    <type error>`` is an error, not a rejection) — so they are evaluated
    here before the row is let go."""
    if not later:
        return closure

    def decide(row: Any) -> Any:
        value = closure(row)
        if value is None:
            for conjunct in later:
                rest = conjunct(row)
                if rest is not None and not rest:
                    break
        return value
    return decide


def _kernel_stage(
    conjunct: ast.Expr, layout: _Layout, decide: RowFn
) -> BatchFn | None:
    """The column kernel for one conjunct, when its shape has one."""
    if isinstance(conjunct, ast.IsNull):
        key = _plain_key(conjunct.expr, layout)
        if key is None:
            return None
        return _null_stage(key, conjunct.negated, decide)
    found = _column_test(conjunct)
    if found is not None:
        column, guard, test = found
        key = layout.slot(column)
        if key is not None:
            return _guarded_stage(key, guard, test, decide)
    return None


def _closure_stage(decide: RowFn) -> BatchFn:
    """A conjunct of any other shape: its closure judges every row."""
    return lambda rows: [row for row in rows if decide(row)]


def _compile_filter(where: ast.Expr | None, layout: _Layout) -> list[BatchFn]:
    """WHERE clause -> one batch stage per top-level conjunct, applied
    in order to a shrinking batch (NULL counts false); [] = no filter.

    Stage by stage, an error on a late row can surface before an earlier
    row's; :meth:`BoundPlan._filter` replays such a batch row by row."""
    conjuncts = list(_conjuncts(where))
    closures = [_compile_expr(c, layout) for c in conjuncts]
    stages: list[BatchFn] = []
    for i, conjunct in enumerate(conjuncts):
        decide = _deciding(closures[i], closures[i + 1:])
        stages.append(
            _kernel_stage(conjunct, layout, decide) or _closure_stage(decide)
        )
    return stages


def _owned(kept: list[Any], parts: Sequence[Sequence[Any]]) -> dict[int, list[Any]]:
    """``kept`` — what the WHERE stages kept of ``parts`` concatenated —
    cut back into each part's survivors: part index -> its kept rows, in
    order, for the parts that kept any.

    Sound because every stage passes on its input row *objects*, in
    order (``_guarded_stage``, ``_null_stage``, ``_closure_stage``, and
    ``BoundPlan._filter``'s copy when there are none), and a conjunct
    reads its own row only (the dialect has no subquery and no scalar
    function): ``kept`` is a subsequence of the concatenation, a part
    keeps alone exactly the kept rows it owns, and one walk matching
    by identity finds them.  A row object met twice is judged twice
    alike, so it is kept at both places or at neither."""
    owned: dict[int, list[Any]] = {}
    ahead = iter(kept)
    wanted = next(ahead, _MISSING)
    for index, part in enumerate(parts):
        if wanted is _MISSING:
            break
        for row in part:
            if row is wanted:
                owned.setdefault(index, []).append(row)
                wanted = next(ahead, _MISSING)
    return owned


def _detached(exc: SqlError) -> SqlError:
    """``exc``, and every error it was raised from, without tracebacks.

    An error returned as a value outlives the frames it passed through,
    and a traceback keeps them — and, through ``f_back``, every caller,
    down to the one that holds the value: a cycle that only the garbage
    collector frees."""
    link: BaseException | None = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


def _plain_key(expr: ast.Expr, layout: _Layout) -> Any:
    """The subscript that reads ``expr`` when it is a plain column the
    layout has; None when it needs its closure."""
    return layout.slot(expr) if isinstance(expr, ast.Column) else None


def _plain_keys(exprs: Sequence[ast.Expr], layout: _Layout) -> tuple[Any, ...] | None:
    """The subscripts of ``exprs`` when every one is a plain column (and
    there is one); None when any needs its closure."""
    keys = tuple(_plain_key(expr, layout) for expr in exprs)
    return None if None in keys or not keys else keys


def _cells_of(keys: tuple[Any, ...]) -> BatchFn:
    """rows -> ``[[row[k] for k in keys] for row in rows]``, without a
    Python call per cell."""
    if len(keys) == 1:
        (key,) = keys
        return lambda rows: [[row[key]] for row in rows]
    getter = operator.itemgetter(*keys)
    return lambda rows: list(map(list, map(getter, rows)))


def _column_values(rows: Sequence[Any], key: Any, closure: RowFn) -> list[Any]:
    """One plain column of a batch (``key`` None: not a plain column).
    A row the subscript fails on sends the whole batch through the
    closure, which finds the value its slow way or raises for the first
    such row."""
    if key is not None:
        try:
            return [row[key] for row in rows]
        except LookupError:
            pass
    return [closure(row) for row in rows]


# ----------------------------------------------------------------------
# Aggregate compilation (group-level)
# ----------------------------------------------------------------------
def _compile_aggregate(call: ast.FuncCall, layout: _Layout) -> GroupFn:
    if call.star:
        if call.name != "COUNT":
            message = f"{call.name}(*) is not valid"

            def star_error(rows: list[Any], sample: Any) -> Any:
                raise SqlExecutionError(message)
            return star_error
        return lambda rows, sample: len(rows)
    if len(call.args) != 1:
        arity_message = f"{call.name} takes exactly one argument"

        def arity_error(rows: list[Any], sample: Any) -> Any:
            raise SqlExecutionError(arity_message)
        return arity_error
    arg = _compile_expr(call.args[0], layout)
    key = _plain_key(call.args[0], layout)
    name = call.name
    distinct = call.distinct

    def aggregate(rows: list[Any], sample: Any) -> Any:
        return aggregate_values(name, _column_values(rows, key, arg), distinct)
    return aggregate


def _compile_agg_expr(expr: ast.Expr, layout: _Layout) -> GroupFn:
    """Compile an expression that may contain aggregate calls.

    Mirrors the reference's ``_eval_with_aggregates``: aggregates reduce
    the member rows, BinOp/UnaryOp combine already-computed values (both
    operands evaluated — no short-circuit, as in the reference), and
    anything else evaluates against the group's sample row.
    """
    if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATES:
        return _compile_aggregate(expr, layout)
    if isinstance(expr, ast.BinOp):
        left = _compile_agg_expr(expr.left, layout)
        right = _compile_agg_expr(expr.right, layout)
        op = expr.op

        def binop(rows: list[Any], sample: Any) -> Any:
            return apply_binop_values(op, left(rows, sample), right(rows, sample))
        return binop
    if isinstance(expr, ast.UnaryOp):
        inner = _compile_agg_expr(expr.operand, layout)
        op = expr.op

        def unary(rows: list[Any], sample: Any) -> Any:
            val = inner(rows, sample)
            if op == "NOT":
                return None if val is None else (not bool(val))
            return None if val is None else -val
        return unary
    plain = _compile_expr(expr, layout)
    return lambda rows, sample: plain(sample)


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
#: One ORDER BY key: its closure, its direction, and its subscript when
#: it is a plain column of the rows it sorts (None otherwise).
OrderKey = tuple[RowFn, bool, Any]


def _order_keys(select: ast.Select, layout: _Layout) -> list[OrderKey]:
    return [
        (_compile_expr(o.expr, layout), o.descending, _plain_key(o.expr, layout))
        for o in select.order_by
    ]


def _sort_values(rows: list[Any], key_fn: RowFn, key: Any) -> list[Any]:
    """One ORDER BY key over the rows it sorts."""
    if key is not None:
        try:
            return [r[key] for r in rows]
        except LookupError:
            pass
    # Row by row, not per batch: an evaluation error is that row's NULL.
    values = []
    for r in rows:
        try:
            values.append(key_fn(r))
        except SqlExecutionError:
            values.append(None)
    return values


def _sort_payload(
    order_keys: list[OrderKey], key_rows: list[Any], payload: list[Any]
) -> list[Any]:
    """The reference's ``_ordered`` over compiled key closures: stable
    multi-key sort applied right-to-left, None-first, evaluation errors
    sorting as None."""
    indexed = list(range(len(payload)))
    for key_fn, descending, key in reversed(order_keys):
        values = _sort_values(key_rows, key_fn, key)
        # Homogeneous keys (all numbers, or all strings — no NULLs) sort
        # identically raw, because SortKey's total order reduces to the
        # native one when every pairwise comparison is defined.  That is
        # the overwhelmingly common case and skips one wrapper object +
        # one Python __lt__ frame per comparison.
        if all(type(v) is str for v in values) or all(
            isinstance(v, (int, float)) for v in values
        ):
            indexed.sort(key=values.__getitem__, reverse=descending)
        else:
            indexed.sort(
                key=lambda i: SortKey(values[i]), reverse=descending
            )
    return [payload[i] for i in indexed]


# ----------------------------------------------------------------------
# Bound plans
# ----------------------------------------------------------------------
class BoundPlan:
    """A :class:`CompiledPlan` resolved against one column layout.

    ``execute(rows)`` consumes positional rows in the bound layout and
    returns a :class:`SelectResult` whose rows are lists of its own.
    Lists must be fresh ones the caller relinquishes: star projections
    adopt them into the result without copying.  Tuples are rows a
    table keeps: they are read, never adopted.
    """

    __slots__ = (
        "select",
        "_layout",
        "_stages",
        "_out_cols",
        "_item_fns",
        "_item_cells",
        "_grouped",
        "_group_keys",
        "_group_key",
        "_having",
        "_agg_items",
        "_order_plain",
        "_order_grouped",
        "_aliases",
        "_alias_actions",
        "_ext_columns",
        "_star",
        "_star_with_aggregates",
        "_leading_bounds",
    )

    def __init__(self, select: ast.Select, layout: _Layout) -> None:
        self.select = select
        self._layout = layout
        self._leading_bounds: dict[str, tuple[tuple[str, float], ...]] = {}
        self._stages = _compile_filter(select.where, layout)
        self._star = select.is_star
        has_aggregates = any(
            ast.contains_aggregate(i.expr) for i in select.items
        )
        self._grouped = bool(select.group_by) or has_aggregates
        self._star_with_aggregates = self._grouped and self._star
        self._group_keys: list[RowFn] = []
        self._group_key: Callable[[Any], Any] | None = None
        self._having: GroupFn | None = None
        self._agg_items: list[GroupFn] = []
        self._item_fns: list[RowFn] = []
        self._item_cells: BatchFn | None = None
        self._order_plain: list[OrderKey] = []
        self._order_grouped: list[OrderKey] = []
        self._aliases: list[tuple[str, RowFn]] = []
        self._alias_actions: list[int | None] = []
        self._ext_columns: list[str] = []
        if self._grouped:
            self._out_cols = (
                [] if self._star_with_aggregates else select.projected_names()
            )
            self._group_keys = [
                _compile_expr(g, layout) for g in select.group_by
            ]
            plain = _plain_keys(select.group_by, layout)
            if plain is not None:
                # One key: the bare value; several: their tuple.  Either
                # groups as the closures' tuple of values does.
                self._group_key = operator.itemgetter(*plain)
            if select.having is not None:
                self._having = _compile_agg_expr(select.having, layout)
            if not self._star_with_aggregates:
                self._agg_items = [
                    _compile_agg_expr(i.expr, layout) for i in select.items
                ]
            if select.order_by:
                # Grouped output: ORDER BY keys resolve against the
                # projected columns over the projected (positional) rows.
                self._order_grouped = _order_keys(
                    select, _Layout(self._out_cols)
                )
        else:
            self._out_cols = (
                list(layout.columns) if self._star else select.projected_names()
            )
            if not self._star:
                self._item_fns = [
                    _compile_expr(i.expr, layout) for i in select.items
                ]
                plain = _plain_keys([i.expr for i in select.items], layout)
                if plain is not None:
                    self._item_cells = _cells_of(plain)
            if select.order_by:
                self._compile_plain_order(select, layout)

    # -- plain-path ORDER BY (alias-augmented rows) --------------------
    def _compile_plain_order(self, select: ast.Select, layout: _Layout) -> None:
        self._aliases = [
            (item.alias, _compile_expr(item.expr, layout))
            for item in select.items
            if item.alias is not None
        ]
        if not self._aliases:
            self._order_plain = _order_keys(select, layout)
            return
        # Sort keys see the source row augmented with the computed
        # aliases — an alias sharing an existing column's name
        # overwrites that value in place (dict semantics), a new name
        # appends a slot.
        ext_columns = list(layout.columns)
        at = dict(layout._exact)
        actions: list[int | None] = []
        for alias, _ in self._aliases:
            actions.append(at.get(alias))
            if alias not in at:
                at[alias] = len(ext_columns)
                ext_columns.append(alias)
        self._alias_actions = actions
        self._ext_columns = ext_columns
        self._order_plain = _order_keys(select, _Layout(ext_columns))

    def _extended_rows(self, filtered: list[Any]) -> list[list[Any]]:
        """Source rows + computed alias values, as positional rows under
        ``self._ext_columns`` (alias evaluation errors become None)."""
        out: list[list[Any]] = []
        appended = sum(1 for a in self._alias_actions if a is None)
        width = len(self._layout.columns)
        for r in filtered:
            ext = list(r)
            if appended:
                ext.extend([None] * appended)
            slot = width
            for (alias, fn), action in zip(self._aliases, self._alias_actions):
                try:
                    value = fn(r)
                except SqlExecutionError:
                    value = None
                if action is None:
                    ext[slot] = value
                    slot += 1
                else:
                    ext[action] = value
            out.append(ext)
        return out

    # -- range pruning -------------------------------------------------
    def leading_bounds(self, name: str) -> tuple[tuple[str, float], ...]:
        """The ``name <op> number`` conjuncts that *lead* the WHERE
        clause, as ``(op, number)`` with the column on the left
        (``5 < c`` reads ``(">", 5)``); ops are ``<  <=  >  >=``.
        ``name BETWEEN a AND b`` reads as its two bounds and ``name = t``
        as ``>= t`` and ``<= t``; ``NOT BETWEEN`` and ``!=`` bound nothing.

        A caller holding rows sorted by ``name`` may skip every row whose
        non-NULL numeric value fails one of them and still hand the whole
        predicate the rest: AND evaluates left to right and stops at the
        first false conjunct, and these conjuncts cannot raise on a
        number, so for such a row nothing after the failing one runs —
        it is rejected silently either way.  The walk stops at the first
        conjunct of any other shape, because a later bound would skip
        rows on which that conjunct has to be evaluated first (and may
        raise).  A row whose value is NULL makes a bound NULL, not false,
        and evaluation continues: such rows must not be skipped.

        Extracted once per bound plan and column, not per execution.
        """
        bounds = self._leading_bounds.get(name)
        if bounds is None:
            found: list[tuple[str, float]] = []
            for conjunct in _conjuncts(self.select.where):
                more = self._bounds_on(name, conjunct)
                if not more:
                    break
                found.extend(more)
            bounds = self._leading_bounds[name] = tuple(found)
        return bounds

    def _bounds_on(self, name: str, expr: ast.Expr) -> list[tuple[str, float]]:
        """What one conjunct bounds ``name`` by; [] when it is no bound."""
        limits: list[tuple[str, ast.Literal | None]]
        compared = _column_vs_literal(expr)
        if compared is not None:
            op, column, literal = compared
            if op == "!=":
                return []
            limits = [(o, literal) for o in ((">=", "<=") if op == "=" else (op,))]
        elif (
            isinstance(expr, ast.Between)
            and not expr.negated
            and isinstance(expr.expr, ast.Column)
        ):
            column = expr.expr
            limits = [(">=", _literal(expr.low)), ("<=", _literal(expr.high))]
        else:
            return []
        slot = self._layout.slot(column)
        if slot is None or self._layout.columns[slot] != name:
            return []
        bounds: list[tuple[str, float]] = []
        for op, literal in limits:
            value = None if literal is None else literal.value
            if value.__class__ not in _NUMBERS or value != value:
                return []
            bounds.append((op, value))  # type: ignore[arg-type]
        return bounds

    def refiltered(self, select: ast.Select) -> BoundPlan:
        """This binding for ``select``, a statement that differs from this
        one's at most in the literals of its WHERE, LIMIT and OFFSET:
        the WHERE stages are compiled afresh, every other closure and
        kernel (projection, grouping, HAVING, ordering) is shared."""
        bound = object.__new__(BoundPlan)
        for name in BoundPlan.__slots__:
            setattr(bound, name, getattr(self, name))
        bound.select = select
        bound._stages = _compile_filter(select.where, self._layout)
        bound._leading_bounds = {}
        return bound

    # -- execution -----------------------------------------------------
    def execute(self, rows: Sequence[Any]) -> SelectResult:
        """Run the bound plan over ``rows``."""
        return self._finish(self._filter(rows))

    def execute_each(
        self, parts: Sequence[Sequence[Any]]
    ) -> list[SelectResult | SqlError]:
        """``[execute(part) for part in parts]``, except that a part's
        :class:`SqlError` is returned in that part's slot instead of
        raised, without tracebacks (:func:`_detached`); any other
        exception propagates.

        The WHERE stages run once, over every part's rows together, and
        only the parts with surviving rows are ordered, projected, de-
        duplicated and sliced — every part of an aggregating plan, whose
        answer over no rows is still a row; the parts of any other plan
        that keep nothing share one empty result, which nobody may
        mutate.  If the one pass raises, each part runs on its own, so an
        error is the one its part alone would raise.
        """
        rows = parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))
        try:
            kept = self._filter(rows)
        except SqlError as exc:
            if len(parts) == 1:
                return [_detached(exc)]
            return [self._settled(part) for part in parts]
        owned = _owned(kept, parts)
        empty = SelectResult.adopt(self._out_cols, [])
        out: list[SelectResult | SqlError] = [empty] * len(parts)
        # An aggregating plan answers a part that kept nothing, too.
        finished: Iterable[int] = range(len(parts)) if self._grouped else owned
        for index in finished:
            try:
                out[index] = self._finish(owned.get(index, []))
            except SqlError as exc:
                out[index] = _detached(exc)
        return out

    def _settled(self, part: Sequence[Any]) -> SelectResult | SqlError:
        """``execute(part)``, its :class:`SqlError` returned, not raised."""
        try:
            return self._finish(self._filter(part))
        except SqlError as exc:
            return _detached(exc)

    def _finish(self, filtered: list[Any]) -> SelectResult:
        """Everything after the WHERE clause, over the rows it kept."""
        if self._grouped:
            out_cols, out_rows = self._execute_grouped(filtered)
        elif not filtered:
            # Nothing to order, project, de-duplicate or slice.
            return SelectResult.adopt(self._out_cols, [])
        else:
            if self._order_plain:
                if self._aliases:
                    key_rows: list[Any] = self._extended_rows(filtered)
                else:
                    key_rows = filtered
                order = _sort_payload(
                    self._order_plain, key_rows, list(range(len(filtered)))
                )
                filtered = [filtered[i] for i in order]
            out_cols = self._out_cols
            if self._star:
                out_rows = self._layout.star_rows(filtered)
            else:
                out_rows = self._project(filtered)

        stmt = self.select
        if stmt.distinct:
            seen: set[tuple[Any, ...]] = set()
            unique: list[list[Any]] = []
            for r in out_rows:
                key = tuple(hashable(v) for v in r)
                if key not in seen:
                    seen.add(key)
                    unique.append(r)
            out_rows = unique
        if stmt.offset:
            out_rows = out_rows[stmt.offset:]
        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]
        return SelectResult.adopt(out_cols, out_rows)

    def _filter(self, rows: Sequence[Any]) -> list[Any]:
        """The rows the WHERE clause keeps, as a fresh list."""
        if not self._stages:
            return list(rows)
        kept: Any = rows
        try:
            for stage in self._stages:
                kept = stage(kept)
                if not kept:
                    break
        except Exception:
            # Conjunct by conjunct this may be a later row's error, or a
            # later conjunct's.  The interpreter goes row by row: replay
            # the WHERE clause's own closure that way, and it raises the
            # error the interpreter would have raised first.
            where = _compile_expr(self.select.where, self._layout)  # type: ignore[arg-type]
            for row in rows:
                where(row)
            raise
        return kept

    def _project(self, filtered: list[Any]) -> list[list[Any]]:
        cells = self._item_cells
        if cells is not None:
            try:
                return cells(filtered)
            except LookupError:
                pass
        # Per cell, in row order: the first error raised is the
        # interpreter's (the kernel above fails on the first row that
        # lacks ANY key, which need not be the first cell that raises).
        item_fns = self._item_fns
        return [[fn(r) for fn in item_fns] for r in filtered]

    def _groups(self, filtered: list[Any]) -> Mapping[Any, list[Any]]:
        """Member rows per GROUP BY key, in first-appearance order."""
        key_of = self._group_key
        if key_of is not None:
            fast: defaultdict[Any, list[Any]] = defaultdict(list)
            try:
                for key, r in zip(map(key_of, filtered), filtered):
                    fast[key].append(r)
                return fast
            except (LookupError, TypeError):
                # A row the subscript fails on, or a value the dict
                # cannot hash (``hashable`` turns a list into a tuple).
                pass
        groups: dict[tuple[Any, ...], list[Any]] = {}
        group_keys = self._group_keys
        for r in filtered:
            key = tuple(hashable(fn(r)) for fn in group_keys)
            groups.setdefault(key, []).append(r)
        return groups

    def _execute_grouped(
        self, filtered: list[Any]
    ) -> tuple[list[str], list[list[Any]]]:
        if self._star_with_aggregates:
            raise SqlExecutionError(
                "SELECT * cannot be combined with aggregation"
            )
        # Implicit single group: aggregates over empty input still
        # produce one row (COUNT(*) = 0).
        groups = self._groups(filtered) if self._group_keys else {(): filtered}

        having = self._having
        agg_items = self._agg_items
        out: list[list[Any]] = []
        for members in groups.values():
            # An empty implicit group's sample is ``()``: every accessor
            # raises "unknown column" on it, as on the interpreter's ``{}``.
            sample = members[0] if members else ()
            if having is not None:
                hv = having(members, sample)
                if hv is None or not hv:
                    continue
            out.append([fn(members, sample) for fn in agg_items])
        if self._order_grouped:
            out = _sort_payload(self._order_grouped, out, out)
        return self._out_cols, out


#: Bindings the plans of one statement shape share: layout -> the first
#: :class:`BoundPlan` any of them built (see :meth:`BoundPlan.refiltered`).
ShapeBindings = dict[tuple[str, ...], BoundPlan]


class CompiledPlan:
    """A SELECT compiled once, bindable to any column layout.

    Layout bindings (the expensive closure construction) are cached on
    the plan, keyed by the column tuple, so a plan held in the
    :class:`~repro.core.plans.PlanCache` pays compilation exactly once
    per (query, layout) pair.  Plans of statements that differ only in
    the literals of their WHERE, LIMIT and OFFSET may also share
    ``shape_bindings``: a layout one of them bound is only re-filtered
    for the next.
    """

    __slots__ = ("select", "_bindings", "_shape_bindings")

    def __init__(
        self, select: ast.Select, shape_bindings: ShapeBindings | None = None
    ) -> None:
        self.select = select
        self._bindings: dict[tuple[str, ...], BoundPlan] = {}
        self._shape_bindings = shape_bindings

    def bind(self, columns: Sequence[str]) -> BoundPlan:
        """Bind to a layout of positional rows (lists or tuples)."""
        key = tuple(columns)
        bound = self._bindings.get(key)
        if bound is None:
            bound = self._bindings[key] = self._bound(key)
        return bound

    # Kept only because the e2e benchmark's layer table
    # (benchmarks/e2e/layers.py) resolves this name and its traced run
    # raises on a missing one; nothing under src/repro calls it.
    bind_mapping = bind

    def _bound(self, key: tuple[str, ...]) -> BoundPlan:
        shared = self._shape_bindings
        if shared is None:
            return BoundPlan(self.select, _Layout(key))
        sibling = shared.get(key)
        if sibling is not None:
            return sibling.refiltered(self.select)
        bound = shared[key] = BoundPlan(self.select, _Layout(key))
        return bound


def compile_plan(
    select: ast.Select, shape_bindings: ShapeBindings | None = None
) -> CompiledPlan:
    """Compile a parsed SELECT into a reusable :class:`CompiledPlan`."""
    return CompiledPlan(select, shape_bindings)


def compile_expr(expr: ast.Expr, columns: Sequence[str]) -> RowFn:
    """One expression as a closure over one positional row laid out as
    ``columns``: the compiler ``bind`` uses, for the statements that are
    not a SELECT (DML values, assignments and predicates)."""
    return _compile_expr(expr, _Layout(columns))


# ----------------------------------------------------------------------
# Positional natural join
# ----------------------------------------------------------------------
def join_rows(
    relations: Sequence[tuple[Sequence[str], Sequence[Sequence[Any]]]],
    *,
    key_columns: Sequence[str] | None = None,
) -> tuple[list[str], list[list[Any]]]:
    """Inner natural join over positional rows.

    The slot-level mirror of the reference's dict-row join (same key
    selection, same output column order, same error) without building
    a dict per intermediate row: join keys and carried columns
    are resolved to indices once per relation.
    """
    if not relations:
        return [], []
    out_columns = list(relations[0][0])
    out_rows: list[list[Any]] = [list(r) for r in relations[0][1]]
    for columns, rows in relations[1:]:
        columns = list(columns)
        # A label's slot; as in ``dict(zip(columns, row))``, the last
        # place of a duplicate wins.
        left_at = {c: i for i, c in enumerate(out_columns)}
        right_at = {c: i for i, c in enumerate(columns)}
        if key_columns is None:
            keys = [c for c in out_columns if c in right_at]
        else:
            keys = [c for c in key_columns if c in left_at and c in right_at]
        if not keys:
            raise SqlExecutionError(
                "natural join requires at least one shared column "
                f"(left has {out_columns!r}, right has {list(columns)!r})"
            )
        new_columns = [c for c in columns if c not in left_at]
        left_key = [left_at[k] for k in keys]
        right_key = [right_at[k] for k in keys]
        new_index = [right_at[c] for c in new_columns]
        index: dict[tuple[Any, ...], list[Sequence[Any]]] = {}
        for row in rows:
            index.setdefault(
                tuple(row[i] for i in right_key), []
            ).append(row)
        joined: list[list[Any]] = []
        for left in out_rows:
            probe = tuple(left[i] for i in left_key)
            for right in index.get(probe, ()):
                joined.append(left + [right[i] for i in new_index])
        out_columns.extend(new_columns)
        out_rows = joined
    return out_columns, out_rows
