"""Render SQL AST nodes back to SQL text.

Used by the JDBC-SQL driver to push translated WHERE clauses down to
native relational sources.
"""

from __future__ import annotations

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlError


def _quote_str(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def render_expr(expr: ast.Expr) -> str:
    """SQL text for an expression (parenthesised conservatively)."""
    if isinstance(expr, ast.Literal):
        v = expr.value
        if v is None:
            return "NULL"
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, (int, float)):
            return repr(v)
        return _quote_str(str(v))
    if isinstance(expr, ast.Column):
        return expr.qualified
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.BinOp):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {render_expr(expr.operand)})"
        return f"({expr.op}{render_expr(expr.operand)})"
    if isinstance(expr, ast.InList):
        items = ", ".join(render_expr(i) for i in expr.items)
        neg = "NOT " if expr.negated else ""
        return f"({render_expr(expr.expr)} {neg}IN ({items}))"
    if isinstance(expr, ast.Between):
        neg = "NOT " if expr.negated else ""
        return (
            f"({render_expr(expr.expr)} {neg}BETWEEN "
            f"{render_expr(expr.low)} AND {render_expr(expr.high)})"
        )
    if isinstance(expr, ast.IsNull):
        neg = "NOT " if expr.negated else ""
        return f"({render_expr(expr.expr)} IS {neg}NULL)"
    if isinstance(expr, ast.FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(render_expr(a) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{inner})"
    raise SqlError(f"cannot render {type(expr).__name__}")


def rewrite_columns(expr: ast.Expr, renames: dict[str, str]) -> ast.Expr | None:
    """Rewrite column references via ``renames`` (GLUE name -> native name).

    Returns None when the expression touches a column with no rename —
    the caller then skips pushdown for that (sub)expression.
    """
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.Column):
        native = renames.get(expr.name)
        if native is None:
            return None
        return ast.Column(name=native)
    if isinstance(expr, ast.BinOp):
        left = rewrite_columns(expr.left, renames)
        right = rewrite_columns(expr.right, renames)
        if left is None or right is None:
            return None
        return ast.BinOp(op=expr.op, left=left, right=right)
    if isinstance(expr, ast.UnaryOp):
        inner = rewrite_columns(expr.operand, renames)
        return None if inner is None else ast.UnaryOp(op=expr.op, operand=inner)
    if isinstance(expr, ast.InList):
        inner = rewrite_columns(expr.expr, renames)
        items = [rewrite_columns(i, renames) for i in expr.items]
        if inner is None or any(i is None for i in items):
            return None
        return ast.InList(expr=inner, items=tuple(items), negated=expr.negated)  # type: ignore[arg-type]
    if isinstance(expr, ast.Between):
        inner = rewrite_columns(expr.expr, renames)
        low = rewrite_columns(expr.low, renames)
        high = rewrite_columns(expr.high, renames)
        if inner is None or low is None or high is None:
            return None
        return ast.Between(expr=inner, low=low, high=high, negated=expr.negated)
    if isinstance(expr, ast.IsNull):
        inner = rewrite_columns(expr.expr, renames)
        return None if inner is None else ast.IsNull(expr=inner, negated=expr.negated)
    # Aggregates and stars are never pushed down.
    return None
