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
  aggregation over **positional rows** (lists), building no per-row
  dicts;
* ``plan.bind_mapping(columns)`` is the same machinery bound over
  mapping rows (the history store's dict storage), with each column
  name resolved to its canonical key once at bind time instead of once
  per row;
* :func:`compile_expr` is that mapping-flavour compiler for one
  expression on its own — what :class:`~repro.sql.database.Database`
  runs INSERT values, UPDATE assignments and UPDATE / DELETE predicates
  through.

Bindings are cached per layout on the plan, so repeated queries pay the
closure-construction cost once.

Every AST node compiles to a **closure** over one row
(:func:`_compile_expr`), and those closures are the semantics: NULL
tri-state, numeric-string coercion, the case-insensitive column
fallback and every error message are defined there and nowhere else.
The shapes that make up almost every monitoring query also get a
**column kernel**: a loop over the whole batch that subscripts the row
once (slot index or mapping key — both flavours share the kernels) and
applies the native operator with no Python call per row.

* A top-level WHERE conjunct ``column <op> literal`` (either order, a
  sign folded into a numeric literal), ``column LIKE 'pattern'``,
  ``[NOT] BETWEEN`` / ``[NOT] IN`` over literals or ``IS [NOT] NULL``
  is a filter stage (:func:`_compile_filter`).  Its guard is the
  value's **exact class**: ``float`` / ``int`` against a numeric
  literal, ``str`` against a string literal — the pairs
  ``coerce_pair`` leaves alone, so the native operator *is* the
  closure's answer.  Never ``isinstance``: ``bool``, NULL, a numeric
  string, ``Decimal``, a missing key or a short row all go to the
  node's closure.
* A projection, GROUP BY key list, ORDER BY key or aggregate argument
  made only of plain columns is one ``itemgetter`` / comprehension per
  batch; a ``LookupError`` sends the whole batch back through the
  per-row closures, so the first error raised is the same one.

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
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlExecutionError
from repro.sql.values import (
    SelectResult,
    SortKey,
    aggregate_values,
    apply_binop_values,
    coerce_pair,
    compile_like,
    hashable,
)

#: A compiled accessor/evaluator over one row (positional or mapping).
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

#: Slot-flavour sample row for an empty implicit group: every accessor
#: raises "unknown column" against it, matching the reference
#: interpreter's empty-dict sample.
_EMPTY_SLOT_ROW: tuple[Any, ...] = ()


def _last_index(columns: Sequence[str], name: str) -> int:
    """Index of the *last* occurrence of ``name`` (dict-build semantics:
    when a layout carries a duplicate label, the later value wins, as it
    does in ``dict(zip(columns, row))``)."""
    for i in range(len(columns) - 1, -1, -1):
        if columns[i] == name:
            return i
    raise ValueError(name)


def _resolve_slot(columns: Sequence[str], column: ast.Column) -> int | None:
    """Resolve a column reference to a slot index, or None when absent.

    Mirrors the reference interpreter's resolution against a dict row
    whose keys are ``columns``: exact name, then qualified name, then a
    case-insensitive scan in key order (first distinct key that matches,
    reading the last duplicate occurrence's value).
    """
    if column.name in columns:
        return _last_index(columns, column.name)
    qualified = column.qualified
    if qualified != column.name and qualified in columns:
        return _last_index(columns, qualified)
    lowered = column.name.lower()
    seen: set[str] = set()
    for c in columns:
        if c in seen:
            continue
        seen.add(c)
        if c.lower() == lowered:
            return _last_index(columns, c)
    return None


def _raise_unknown(qualified: str) -> Any:
    raise SqlExecutionError(f"unknown column: {qualified!r}")


def _slow_mapping_lookup(row: Mapping[str, Any], name: str, qualified: str) -> Any:
    """The reference interpreter's column resolution, verbatim — the
    mapping-flavour fallback when a row lacks the bind-time key."""
    if name in row:
        return row[name]
    if qualified in row:
        return row[qualified]
    lowered = name.lower()
    for key in row:
        if key.lower() == lowered:
            return row[key]
    raise SqlExecutionError(f"unknown column: {qualified!r}")


class _Layout:
    """One column layout; a name resolves to its position in it."""

    __slots__ = ("columns", "_exact")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        # A plan is bound on every plan-cache miss and names each column
        # several times; nearly every reference is an exact label.  As
        # in ``dict(zip(columns, row))``, a duplicate's last place wins.
        self._exact = {c: i for i, c in enumerate(self.columns)}

    def slot(self, column: ast.Column) -> int | None:
        index = self._exact.get(column.name)
        return _resolve_slot(self.columns, column) if index is None else index


class _SlotFlavour(_Layout):
    """Rows are positional lists; columns resolve to slot indices."""

    __slots__ = ()

    def subscript(self, column: ast.Column) -> int | None:
        """What a kernel subscripts a row with to read ``column``."""
        return self.slot(column)

    def resolve(self, column: ast.Column) -> RowFn:
        index = self.subscript(column)
        qualified = column.qualified
        if index is None:
            return lambda row: _raise_unknown(qualified)

        def accessor(row: Any, i: int = index, q: str = qualified) -> Any:
            try:
                return row[i]
            except IndexError:
                return _raise_unknown(q)

        return accessor

    def empty_sample(self) -> Any:
        return _EMPTY_SLOT_ROW

    def star_rows(self, filtered: list[Any]) -> list[list[Any]]:
        # Positional rows under this layout ARE the star projection:
        # adopt them without building per-row copies (zero-copy path).
        # Duplicate labels are the one exception — the interpreter's
        # dict round-trip makes the last occurrence's value show at
        # every duplicate position, so mirror that explicitly.
        cols = self.columns
        if len(set(cols)) != len(cols):
            idx = [_last_index(cols, c) for c in cols]
            return [[row[i] for i in idx] for row in filtered]
        return filtered


class _MappingFlavour(_Layout):
    """Rows are mappings; column names resolve to canonical keys once."""

    __slots__ = ()

    def subscript(self, column: ast.Column) -> str | None:
        """What a kernel subscripts a row with to read ``column``."""
        index = self.slot(column)
        return None if index is None else self.columns[index]

    def resolve(self, column: ast.Column) -> RowFn:
        key = self.subscript(column)
        name, qualified = column.name, column.qualified
        if key is None:
            return lambda row: _slow_mapping_lookup(row, name, qualified)

        def accessor(
            row: Any, k: str = key, n: str = name, q: str = qualified
        ) -> Any:
            try:
                return row[k]
            except KeyError:
                return _slow_mapping_lookup(row, n, q)

        return accessor

    def empty_sample(self) -> Any:
        return {}

    def star_rows(self, filtered: list[Any]) -> list[list[Any]]:
        cols = self.columns
        return [[r.get(c) for c in cols] for r in filtered]


_Flavour = _SlotFlavour | _MappingFlavour


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


def _compile_expr(expr: ast.Expr, flavour: _Flavour) -> RowFn:
    """Compile an expression to a closure over one row.

    Compilation is total: anything the reference interpreter rejects at
    evaluation time compiles to a closure raising the identical
    :class:`SqlExecutionError` when (and only when) evaluated.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Column):
        return flavour.resolve(expr)
    if isinstance(expr, ast.Star):
        def star_error(row: Any) -> Any:
            raise SqlExecutionError(
                "'*' is only valid as a projection or in COUNT(*)"
            )
        return star_error
    if isinstance(expr, ast.UnaryOp):
        constant = _literal(expr)
        if constant is not None:
            return _compile_expr(constant, flavour)
        inner = _compile_expr(expr.operand, flavour)
        if expr.op == "NOT":
            def not_fn(row: Any) -> Any:
                val = inner(row)
                if val is None:
                    return None
                return not bool(val)
            return not_fn
        if expr.op == "-":
            def neg_fn(row: Any) -> Any:
                val = inner(row)
                if val is None:
                    return None
                return -val
            return neg_fn
        bad_op = expr.op

        def unary_error(row: Any) -> Any:
            inner(row)
            raise SqlExecutionError(f"unknown unary operator {bad_op!r}")
        return unary_error
    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr, flavour)
    if isinstance(expr, ast.InList):
        target = _compile_expr(expr.expr, flavour)
        items = [_compile_expr(i, flavour) for i in expr.items]
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
        target = _compile_expr(expr.expr, flavour)
        low = _compile_expr(expr.low, flavour)
        high = _compile_expr(expr.high, flavour)
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
        target = _compile_expr(expr.expr, flavour)
        negated = expr.negated

        def isnull_fn(row: Any) -> Any:
            val = target(row)
            return (val is not None) if negated else (val is None)
        return isnull_fn
    if isinstance(expr, ast.FuncCall):
        func_name = expr.name

        def agg_error(row: Any) -> Any:
            raise SqlExecutionError(
                f"aggregate {func_name} used outside an aggregating query"
            )
        return agg_error
    type_name = type(expr).__name__

    def unknown_error(row: Any) -> Any:
        raise SqlExecutionError(f"cannot evaluate {type_name}")
    return unknown_error


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


def _compile_binop(expr: ast.BinOp, flavour: _Flavour) -> RowFn:
    op = expr.op
    left = _compile_expr(expr.left, flavour)
    if op == "AND":
        right = _compile_expr(expr.right, flavour)

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
        right = _compile_expr(expr.right, flavour)

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
    right = _compile_expr(expr.right, flavour)
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
    conjunct: ast.Expr, flavour: _Flavour, decide: RowFn
) -> BatchFn | None:
    """The column kernel for one conjunct, when its shape has one."""
    if isinstance(conjunct, ast.IsNull):
        key = _plain_key(conjunct.expr, flavour)
        if key is None:
            return None
        return _null_stage(key, conjunct.negated, decide)
    found = _column_test(conjunct)
    if found is not None:
        column, guard, test = found
        key = flavour.subscript(column)
        if key is not None:
            return _guarded_stage(key, guard, test, decide)
    return None


def _closure_stage(decide: RowFn) -> BatchFn:
    """A conjunct of any other shape: its closure judges every row."""
    return lambda rows: [row for row in rows if decide(row)]


def _compile_filter(where: ast.Expr | None, flavour: _Flavour) -> list[BatchFn]:
    """WHERE clause -> one batch stage per top-level conjunct, applied
    in order to a shrinking batch (NULL counts false); [] = no filter.

    Stage by stage, an error on a late row can surface before an earlier
    row's; :meth:`BoundPlan._filter` replays such a batch row by row."""
    conjuncts = list(_conjuncts(where))
    closures = [_compile_expr(c, flavour) for c in conjuncts]
    stages: list[BatchFn] = []
    for i, conjunct in enumerate(conjuncts):
        decide = _deciding(closures[i], closures[i + 1:])
        stages.append(
            _kernel_stage(conjunct, flavour, decide) or _closure_stage(decide)
        )
    return stages


def _plain_key(expr: ast.Expr, flavour: _Flavour) -> Any:
    """The subscript that reads ``expr`` when it is a plain column the
    layout has; None when it needs its closure."""
    return flavour.subscript(expr) if isinstance(expr, ast.Column) else None


def _plain_keys(exprs: Sequence[ast.Expr], flavour: _Flavour) -> tuple[Any, ...] | None:
    """The subscripts of ``exprs`` when every one is a plain column (and
    there is one); None when any needs its closure."""
    keys = tuple(_plain_key(expr, flavour) for expr in exprs)
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
def _compile_aggregate(call: ast.FuncCall, flavour: _Flavour) -> GroupFn:
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
    arg = _compile_expr(call.args[0], flavour)
    key = _plain_key(call.args[0], flavour)
    name = call.name
    distinct = call.distinct

    def aggregate(rows: list[Any], sample: Any) -> Any:
        return aggregate_values(name, _column_values(rows, key, arg), distinct)
    return aggregate


def _compile_agg_expr(expr: ast.Expr, flavour: _Flavour) -> GroupFn:
    """Compile an expression that may contain aggregate calls.

    Mirrors the reference's ``_eval_with_aggregates``: aggregates reduce
    the member rows, BinOp/UnaryOp combine already-computed values (both
    operands evaluated — no short-circuit, as in the reference), and
    anything else evaluates against the group's sample row.
    """
    if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATES:
        return _compile_aggregate(expr, flavour)
    if isinstance(expr, ast.BinOp):
        left = _compile_agg_expr(expr.left, flavour)
        right = _compile_agg_expr(expr.right, flavour)
        op = expr.op

        def binop(rows: list[Any], sample: Any) -> Any:
            return apply_binop_values(op, left(rows, sample), right(rows, sample))
        return binop
    if isinstance(expr, ast.UnaryOp):
        inner = _compile_agg_expr(expr.operand, flavour)
        op = expr.op

        def unary(rows: list[Any], sample: Any) -> Any:
            val = inner(rows, sample)
            if op == "NOT":
                return None if val is None else (not bool(val))
            if op == "-":
                return None if val is None else -val
            raise SqlExecutionError(f"unknown unary operator {op!r}")
        return unary
    plain = _compile_expr(expr, flavour)
    return lambda rows, sample: plain(sample)


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
#: One ORDER BY key: its closure, its direction, and its subscript when
#: it is a plain column of the rows it sorts (None otherwise).
OrderKey = tuple[RowFn, bool, Any]


def _order_keys(select: ast.Select, flavour: _Flavour) -> list[OrderKey]:
    return [
        (_compile_expr(o.expr, flavour), o.descending, _plain_key(o.expr, flavour))
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

    ``execute(rows)`` consumes rows in the bound representation —
    positional lists (slot flavour) or mappings (mapping flavour) — and
    returns a :class:`SelectResult`.  Slot rows must be fresh lists the
    caller relinquishes: star projections adopt them into the result
    without copying.
    """

    __slots__ = (
        "select",
        "columns",
        "_flavour",
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

    def __init__(self, select: ast.Select, flavour: _Flavour) -> None:
        self.select = select
        self.columns = list(flavour.columns)
        self._flavour = flavour
        self._leading_bounds: dict[str, tuple[tuple[str, float], ...]] = {}
        self._stages = _compile_filter(select.where, flavour)
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
                _compile_expr(g, flavour) for g in select.group_by
            ]
            plain = _plain_keys(select.group_by, flavour)
            if plain is not None:
                # One key: the bare value; several: their tuple.  Either
                # groups as the closures' tuple of values does.
                self._group_key = operator.itemgetter(*plain)
            if select.having is not None:
                self._having = _compile_agg_expr(select.having, flavour)
            if not self._star_with_aggregates:
                self._agg_items = [
                    _compile_agg_expr(i.expr, flavour) for i in select.items
                ]
            if select.order_by:
                # Grouped output: ORDER BY keys resolve against the
                # projected columns over the projected (positional) rows.
                self._order_grouped = _order_keys(
                    select, _SlotFlavour(self._out_cols)
                )
        else:
            self._out_cols = (
                list(flavour.columns) if self._star else select.projected_names()
            )
            if not self._star:
                self._item_fns = [
                    _compile_expr(i.expr, flavour) for i in select.items
                ]
                plain = _plain_keys([i.expr for i in select.items], flavour)
                if plain is not None:
                    self._item_cells = _cells_of(plain)
            if select.order_by:
                self._compile_plain_order(select, flavour)

    # -- plain-path ORDER BY (alias-augmented rows) --------------------
    def _compile_plain_order(self, select: ast.Select, flavour: _Flavour) -> None:
        self._aliases = [
            (item.alias, _compile_expr(item.expr, flavour))
            for item in select.items
            if item.alias is not None
        ]
        if not self._aliases:
            self._order_plain = _order_keys(select, flavour)
            return
        # Sort keys see the source row augmented with the computed
        # aliases — an alias sharing an existing column's name
        # overwrites that value in place (dict semantics), a new name
        # appends a slot.
        ext_columns = list(flavour.columns)
        actions: list[int | None] = []
        for alias, _ in self._aliases:
            if alias in ext_columns:
                actions.append(_last_index(ext_columns, alias))
            else:
                actions.append(None)
                ext_columns.append(alias)
        self._alias_actions = actions
        self._ext_columns = ext_columns
        self._order_plain = _order_keys(select, _SlotFlavour(ext_columns))

    def _extended_rows(self, filtered: list[Any]) -> list[list[Any]]:
        """Source rows + computed alias values, as positional rows under
        ``self._ext_columns`` (alias evaluation errors become None)."""
        flavour = self._flavour
        out: list[list[Any]] = []
        appended = sum(1 for a in self._alias_actions if a is None)
        for r in filtered:
            if isinstance(flavour, _SlotFlavour):
                ext = list(r)
            else:
                ext = [r.get(c) for c in flavour.columns]
            if appended:
                ext.extend([None] * appended)
            slot = len(flavour.columns)
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
        slot = self._flavour.slot(column)
        if slot is None or self.columns[slot] != name:
            return []
        bounds: list[tuple[str, float]] = []
        for op, literal in limits:
            value = None if literal is None else literal.value
            if value.__class__ not in _NUMBERS or value != value:
                return []
            bounds.append((op, value))  # type: ignore[arg-type]
        return bounds

    # -- execution -----------------------------------------------------
    def execute(self, rows: Sequence[Any]) -> SelectResult:
        """Run the bound plan over ``rows``."""
        filtered = self._filter(rows)
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
                out_rows = self._flavour.star_rows(filtered)
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
            where = _compile_expr(self.select.where, self._flavour)  # type: ignore[arg-type]
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
        empty_sample = self._flavour.empty_sample()
        out: list[list[Any]] = []
        for members in groups.values():
            sample = members[0] if members else empty_sample
            if having is not None:
                hv = having(members, sample)
                if hv is None or not hv:
                    continue
            out.append([fn(members, sample) for fn in agg_items])
        if self._order_grouped:
            out = _sort_payload(self._order_grouped, out, out)
        return self._out_cols, out


class CompiledPlan:
    """A SELECT compiled once, bindable to any column layout.

    Layout bindings (the expensive closure construction) are cached on
    the plan, keyed by the column tuple, so a plan held in the
    :class:`~repro.core.plans.PlanCache` pays compilation exactly once
    per (query, layout) pair.
    """

    __slots__ = ("select", "_slot_bindings", "_mapping_bindings")

    def __init__(self, select: ast.Select) -> None:
        self.select = select
        self._slot_bindings: dict[tuple[str, ...], BoundPlan] = {}
        self._mapping_bindings: dict[tuple[str, ...], BoundPlan] = {}

    def bind(self, columns: Sequence[str]) -> BoundPlan:
        """Bind to a positional-row layout (rows are lists of values)."""
        key = tuple(columns)
        bound = self._slot_bindings.get(key)
        if bound is None:
            bound = BoundPlan(self.select, _SlotFlavour(key))
            self._slot_bindings[key] = bound
        return bound

    def bind_mapping(self, columns: Sequence[str]) -> BoundPlan:
        """Bind to a mapping-row layout (rows are dicts; the history
        store's persistent representation)."""
        key = tuple(columns)
        bound = self._mapping_bindings.get(key)
        if bound is None:
            bound = BoundPlan(self.select, _MappingFlavour(key))
            self._mapping_bindings[key] = bound
        return bound


def compile_plan(select: ast.Select) -> CompiledPlan:
    """Compile a parsed SELECT into a reusable :class:`CompiledPlan`."""
    return CompiledPlan(select)


def compile_expr(expr: ast.Expr, columns: Sequence[str]) -> RowFn:
    """One expression as a closure over one mapping row keyed by
    ``columns``: the compiler ``bind_mapping`` uses, for the statements
    that are not a SELECT (DML values, assignments and predicates)."""
    return _compile_expr(expr, _MappingFlavour(columns))


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
        column_set = set(columns)
        if key_columns is None:
            keys = [c for c in out_columns if c in column_set]
        else:
            out_set = set(out_columns)
            keys = [c for c in key_columns if c in out_set and c in column_set]
        if not keys:
            raise SqlExecutionError(
                "natural join requires at least one shared column "
                f"(left has {out_columns!r}, right has {list(columns)!r})"
            )
        new_columns = [c for c in columns if c not in set(out_columns)]
        left_key = [_last_index(out_columns, k) for k in keys]
        right_key = [_last_index(columns, k) for k in keys]
        new_index = [_last_index(columns, c) for c in new_columns]
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
