"""The reference SQL interpreter: the oracle the compiled plans answer to.

A tree-walking evaluator that re-walks the AST for every row.  It was
``repro.sql.executor`` until PR 23; nothing under ``src/repro`` ever ran
a SELECT through it, so it lives here, where the differential tests
(``test_sql_plan``, ``test_streaming_oracle``, ``test_properties``,
``test_sql_executor``, ``test_multigroup_join``, ``test_cross_feature``,
``test_sql_render`` and the DML sweep in ``test_sql_plan``) hold
:mod:`repro.sql.plan` and :class:`repro.sql.database.Database` to it.

:func:`execute_select` evaluates a parsed SELECT against an in-memory
relation (column list + rows of dicts); :func:`evaluate_expr` and
:func:`evaluate_predicate` evaluate one expression / WHERE clause
against one row; :func:`natural_join` is the dict-row natural join.

NULL semantics are the pragmatic subset GridRM needs: any comparison or
arithmetic touching NULL yields NULL, and a NULL predicate is treated as
false; drivers signal "translation not possible" with NULL values (§3.2.3)
so NULL handling is exercised constantly.

It may import only the AST, the error types and the value helpers
(:mod:`repro.sql.values`) that both sides share so that operator, NULL
and coercion semantics cannot drift — never the parser, the planner or
the database it judges (``test_sql_plan`` checks).  Aggregate reduction
is its own (:func:`reduce_values`, the per-value loop), not the plans'
``aggregate_values``, which it judges.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import repro.sql.ast_nodes as ast
from repro.sql.errors import SqlExecutionError
from repro.sql.values import (
    SelectResult,
    SortKey,
    apply_binop_values,
    as_number,
    coerce_pair,
    hashable,
)

Row = Mapping[str, Any]


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def evaluate_expr(expr: ast.Expr, row: Row) -> Any:
    """Evaluate ``expr`` against ``row``; missing columns are an error."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Column):
        if expr.name in row:
            return row[expr.name]
        if expr.qualified in row:
            return row[expr.qualified]
        # Case-insensitive fallback: GLUE names are CamelCase but clients
        # frequently write lowercase column names.
        lowered = expr.name.lower()
        for key in row:
            if key.lower() == lowered:
                return row[key]
        raise SqlExecutionError(f"unknown column: {expr.qualified!r}")
    if isinstance(expr, ast.Star):
        raise SqlExecutionError("'*' is only valid as a projection or in COUNT(*)")
    if isinstance(expr, ast.UnaryOp):
        val = evaluate_expr(expr.operand, row)
        if expr.op == "NOT":
            if val is None:
                return None
            return not bool(val)
        if expr.op == "-":
            if val is None:
                return None
            try:
                return -val
            except TypeError as exc:
                raise SqlExecutionError(
                    f"type error in unary '-': {type(val).__name__}"
                ) from exc
        raise SqlExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr, row)
    if isinstance(expr, ast.InList):
        val = evaluate_expr(expr.expr, row)
        if val is None:
            return None
        found = False
        for item in expr.items:
            iv = evaluate_expr(item, row)
            a, b = coerce_pair(val, iv)
            if a == b:
                found = True
                break
        return (not found) if expr.negated else found
    if isinstance(expr, ast.Between):
        val = evaluate_expr(expr.expr, row)
        lo = evaluate_expr(expr.low, row)
        hi = evaluate_expr(expr.high, row)
        if val is None or lo is None or hi is None:
            return None
        a, l = coerce_pair(val, lo)
        a2, h = coerce_pair(val, hi)
        try:
            result = l <= a and a2 <= h
        except TypeError as exc:
            raise SqlExecutionError(
                f"type error in 'BETWEEN': {type(val).__name__} vs "
                f"{type(lo).__name__} and {type(hi).__name__}"
            ) from exc
        return (not result) if expr.negated else result
    if isinstance(expr, ast.IsNull):
        val = evaluate_expr(expr.expr, row)
        return (val is not None) if expr.negated else (val is None)
    if isinstance(expr, ast.FuncCall):
        raise SqlExecutionError(
            f"aggregate {expr.name} used outside an aggregating query"
        )
    raise SqlExecutionError(f"cannot evaluate {type(expr).__name__}")


def _eval_binop(expr: ast.BinOp, row: Row) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate_expr(expr.left, row)
        if left is not None and not left:
            return False
        right = evaluate_expr(expr.right, row)
        if right is not None and not right:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = evaluate_expr(expr.left, row)
        if left is not None and left:
            return True
        right = evaluate_expr(expr.right, row)
        if right is not None and right:
            return True
        if left is None or right is None:
            return None
        return False

    left = evaluate_expr(expr.left, row)
    right = evaluate_expr(expr.right, row)
    return apply_binop_values(op, left, right)


def evaluate_predicate(expr: ast.Expr | None, row: Row) -> bool:
    """Apply a WHERE clause; NULL results count as false (SQL semantics)."""
    if expr is None:
        return True
    value = evaluate_expr(expr, row)
    return bool(value) if value is not None else False


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _aggregate(call: ast.FuncCall, rows: list[Row]) -> Any:
    if call.star:
        if call.name != "COUNT":
            raise SqlExecutionError(f"{call.name}(*) is not valid")
        return len(rows)
    if len(call.args) != 1:
        raise SqlExecutionError(f"{call.name} takes exactly one argument")
    values = [evaluate_expr(call.args[0], r) for r in rows]
    return reduce_values(call.name, values, call.distinct)


def reduce_values(name: str, values: list[Any], distinct: bool) -> Any:
    """Reduce evaluated argument values with aggregate ``name``, one
    value at a time: the judge of ``repro.sql.values.aggregate_values``,
    which the plans reduce with.  NULLs are dropped, DISTINCT dedups by
    equality, and empty input is NULL for everything but COUNT."""
    values = [v for v in values if v is not None]
    if distinct:
        seen: list[Any] = []
        for v in values:
            if v not in seen:
                seen.append(v)
        values = seen
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(as_number(v) for v in values)
    if name == "AVG":
        return sum(as_number(v) for v in values) / len(values)
    if name in ("MIN", "MAX"):
        try:
            return min(values) if name == "MIN" else max(values)
        except TypeError as exc:
            raise SqlExecutionError(f"type error in {name}: {exc}") from exc
    raise SqlExecutionError(f"unknown aggregate {name!r}")


def _eval_with_aggregates(expr: ast.Expr, rows: list[Row], sample: Row) -> Any:
    """Evaluate an expression that may contain aggregate calls over ``rows``.

    Non-aggregate column references are resolved against ``sample`` (the
    group's representative row), matching common SQL-engine behaviour for
    grouped columns.
    """
    if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATES:
        return _aggregate(expr, rows)
    if isinstance(expr, ast.BinOp):
        left = _eval_with_aggregates(expr.left, rows, sample)
        right = _eval_with_aggregates(expr.right, rows, sample)
        return _eval_binop(
            ast.BinOp(op=expr.op, left=ast.Literal(left), right=ast.Literal(right)),
            sample,
        )
    if isinstance(expr, ast.UnaryOp):
        inner = _eval_with_aggregates(expr.operand, rows, sample)
        return evaluate_expr(
            ast.UnaryOp(op=expr.op, operand=ast.Literal(inner)), sample
        )
    return evaluate_expr(expr, sample)


# ----------------------------------------------------------------------
# Natural join
# ----------------------------------------------------------------------
def natural_join(
    relations: Sequence[tuple[Sequence[str], Sequence[Row]]],
    *,
    key_columns: Sequence[str] | None = None,
) -> tuple[list[str], list[dict[str, Any]]]:
    """Inner natural join of several relations.

    Args:
        relations: (columns, rows-as-mappings) pairs, joined left to
            right.
        key_columns: explicit join keys; None joins on *all* shared
            column names (textbook natural join).  GridRM's gateway
            passes explicit identity keys (HostName/SiteName) because
            per-agent sample timestamps never match exactly.

    Output columns are the first relation's columns followed by each
    later relation's new columns, in order.
    """
    if not relations:
        return [], []
    out_columns = list(relations[0][0])
    out_rows: list[dict[str, Any]] = [dict(r) for r in relations[0][1]]
    for columns, rows in relations[1:]:
        if key_columns is None:
            keys = [c for c in out_columns if c in set(columns)]
        else:
            keys = [
                c for c in key_columns if c in set(out_columns) and c in set(columns)
            ]
        if not keys:
            raise SqlExecutionError(
                "natural join requires at least one shared column "
                f"(left has {out_columns!r}, right has {list(columns)!r})"
            )
        new_columns = [c for c in columns if c not in set(out_columns)]
        index: dict[tuple[Any, ...], list[Row]] = {}
        for row in rows:
            index.setdefault(tuple(row.get(k) for k in keys), []).append(row)
        joined: list[dict[str, Any]] = []
        for left in out_rows:
            for right in index.get(tuple(left.get(k) for k in keys), ()):
                merged = dict(left)
                for c in new_columns:
                    merged[c] = right.get(c)
                joined.append(merged)
        out_columns.extend(new_columns)
        out_rows = joined
    return out_columns, out_rows


# ----------------------------------------------------------------------
# SELECT execution
# ----------------------------------------------------------------------
def execute_select(
    stmt: ast.Select,
    columns: Sequence[str],
    rows: Iterable[Row],
) -> SelectResult:
    """Run a SELECT over an in-memory relation.

    ``columns`` fixes the output order for ``SELECT *``; ``rows`` is any
    iterable of mappings (extra keys beyond ``columns`` are permitted and
    ignored for star-projection).
    """
    filtered = [r for r in rows if evaluate_predicate(stmt.where, r)]

    has_aggregates = any(ast.contains_aggregate(i.expr) for i in stmt.items)

    if stmt.group_by or has_aggregates:
        out_cols, out_rows = _grouped(stmt, filtered)
        if stmt.order_by:
            # Grouped output: ORDER BY keys resolve against the projected
            # columns (aliases and aggregate labels).
            out_rows = _ordered(stmt, [dict(zip(out_cols, r)) for r in out_rows], out_rows)
    else:
        if stmt.order_by:
            # ORDER BY may reference source columns that are not
            # projected AND projection aliases (ORDER BY dbl for
            # "SELECT load*2 AS dbl"), so sort over source rows augmented
            # with the computed aliases.
            key_rows: list[Row] = filtered
            aliases = [
                (item.alias, item.expr)
                for item in stmt.items
                if item.alias is not None
            ]
            if aliases:
                augmented = []
                for r in filtered:
                    extended = dict(r)
                    for alias, expr in aliases:
                        try:
                            extended[alias] = evaluate_expr(expr, r)
                        except SqlExecutionError:
                            extended[alias] = None
                    augmented.append(extended)
                key_rows = augmented
            order = _ordered(stmt, key_rows, list(range(len(filtered))))
            filtered = [filtered[i] for i in order]
        out_cols, out_rows = _plain(stmt, columns, filtered)

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
        out_rows = out_rows[stmt.offset :]
    if stmt.limit is not None:
        out_rows = out_rows[: stmt.limit]
    return SelectResult(out_cols, out_rows)


def _plain(
    stmt: ast.Select, columns: Sequence[str], rows: list[Row]
) -> tuple[list[str], list[list[Any]]]:
    if stmt.is_star:
        cols = list(columns)
        return cols, [[r.get(c) for c in cols] for r in rows]
    cols = stmt.projected_names()
    out = []
    for r in rows:
        out.append([evaluate_expr(item.expr, r) for item in stmt.items])
    return cols, out


def _grouped(
    stmt: ast.Select, rows: list[Row]
) -> tuple[list[str], list[list[Any]]]:
    if stmt.is_star:
        raise SqlExecutionError("SELECT * cannot be combined with aggregation")
    groups: dict[tuple[Any, ...], list[Row]] = {}
    if stmt.group_by:
        for r in rows:
            key = tuple(hashable(evaluate_expr(g, r)) for g in stmt.group_by)
            groups.setdefault(key, []).append(r)
    else:
        # Implicit single group; aggregates over an empty input still
        # produce one output row (COUNT(*) = 0).
        groups[()] = rows

    cols = stmt.projected_names()
    out: list[list[Any]] = []
    for key in groups:
        members = groups[key]
        sample: Row = members[0] if members else {}
        if stmt.having is not None:
            hv = _eval_with_aggregates(stmt.having, members, sample)
            if hv is None or not hv:
                continue
        out.append(
            [_eval_with_aggregates(item.expr, members, sample) for item in stmt.items]
        )
    return cols, out


def _ordered(
    stmt: ast.Select, key_rows: list[Row], payload: list[Any]
) -> list[Any]:
    """Sort ``payload`` by the ORDER BY keys evaluated over ``key_rows``.

    ``key_rows[i]`` supplies the column values used to sort
    ``payload[i]`` — either the source row (plain queries) or the
    projected row (grouped queries).  Stable multi-key sort applied
    right-to-left so per-key ASC/DESC composes correctly.
    """
    indexed = list(range(len(payload)))
    for item in reversed(stmt.order_by):

        def single_key(i: int, it: ast.OrderItem = item) -> SortKey:
            try:
                return SortKey(evaluate_expr(it.expr, key_rows[i]))
            except SqlExecutionError:
                return SortKey(None)

        if item.descending:
            # Reverse sort must keep None-first overall ordering stable:
            # sort ascending on the negated comparator via reverse=True.
            indexed.sort(key=single_key, reverse=True)
        else:
            indexed.sort(key=single_key)
    return [payload[i] for i in indexed]
