"""SQL abstract syntax tree.

Plain frozen dataclasses; the plan compiler (:mod:`repro.sql.plan`)
pattern-matches on node type, once per statement, and the closures it
builds evaluate against a row (positional, or column name -> value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    """A constant: number, string, boolean or NULL (``value is None``)."""

    value: object


@dataclass(frozen=True)
class Column:
    """A column reference, optionally table-qualified (``t.col``)."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star:
    """``*`` — all columns (optionally ``t.*``)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class BinOp:
    """Binary operation: arithmetic, comparison, AND/OR, LIKE."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operation: NOT, negation."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    """``expr IS [NOT] NULL``."""

    expr: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class FuncCall:
    """Aggregate or scalar function call.  ``COUNT(*)`` has ``star=True``."""

    name: str
    args: tuple["Expr", ...] = ()
    star: bool = False
    distinct: bool = False


Expr = Union[Literal, Column, Star, BinOp, UnaryOp, InList, Between, IsNull, FuncCall]

#: Aggregate function names the plan compiler understands.
AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def contains_aggregate(expr: Expr) -> bool:
    """Whether any aggregate call appears anywhere in ``expr``."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATES:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, InList):
        return contains_aggregate(expr.expr) or any(
            contains_aggregate(i) for i in expr.items
        )
    if isinstance(expr, Between):
        return (
            contains_aggregate(expr.expr)
            or contains_aggregate(expr.low)
            or contains_aggregate(expr.high)
        )
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.expr)
    return False


def columns_in(expr: Expr) -> set[str]:
    """All column names referenced anywhere in ``expr`` (unqualified)."""
    out: set[str] = set()

    def walk(e: Expr) -> None:
        if isinstance(e, Column):
            out.add(e.name)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, UnaryOp):
            walk(e.operand)
        elif isinstance(e, InList):
            walk(e.expr)
            for i in e.items:
                walk(i)
        elif isinstance(e, Between):
            walk(e.expr)
            walk(e.low)
            walk(e.high)
        elif isinstance(e, IsNull):
            walk(e.expr)
        elif isinstance(e, FuncCall):
            for a in e.args:
                walk(a)

    walk(expr)
    return out


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One projected expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT statement.

    ``table`` is the primary relation.  GridRM lets clients "select one
    or more GLUE group names to query" (paper §3.2.3): additional groups
    appear in ``extra_tables`` (``FROM Processor, MainMemory``) and are
    natural-joined by the gateway's RequestManager — individual drivers
    always see single-group statements.
    """

    items: tuple[SelectItem, ...]
    table: str
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    extra_tables: tuple[str, ...] = ()

    @property
    def tables(self) -> tuple[str, ...]:
        """All relations named in FROM, primary first."""
        return (self.table,) + self.extra_tables

    @property
    def is_join(self) -> bool:
        return bool(self.extra_tables)

    @property
    def is_star(self) -> bool:
        return len(self.items) == 1 and isinstance(self.items[0].expr, Star)

    def projected_names(self) -> list[str]:
        """Output column labels for non-star projections."""
        names: list[str] = []
        for item in self.items:
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, Column):
                names.append(item.expr.name)
            elif isinstance(item.expr, FuncCall):
                if item.expr.star:
                    names.append(f"{item.expr.name}(*)")
                else:
                    inner = ", ".join(
                        a.name if isinstance(a, Column) else "expr"
                        for a in item.expr.args
                    )
                    names.append(f"{item.expr.name}({inner})")
            else:
                names.append("expr")
        return names


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO t (c1, c2) VALUES (v1, v2), ...``."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update:
    """``UPDATE t SET c = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class ColumnDef:
    """One column in a CREATE TABLE: name plus declared type keyword."""

    name: str
    type: str = "TEXT"


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE [IF NOT EXISTS] t (c TYPE, ...)``."""

    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE [IF EXISTS] t``."""

    table: str
    if_exists: bool = False


Statement = Union[Select, Insert, Update, Delete, CreateTable, DropTable]
