"""SQL values: what a SELECT returns and what its operators mean.

:class:`SelectResult` is the materialised answer every SELECT in the
tree hands back.  The rest is the value-level half of the dialect's
semantics — operand coercion, the binary operators over two evaluated
values, aggregate reduction, LIKE patterns, the ORDER BY total order —
defined here once and used by both the compiled plans
(:mod:`repro.sql.plan`, the only expression evaluator under
``src/repro``) and the tree-walking reference the tests compare them
with (``tests/reference_sql.py``), so the two cannot drift.

NULL semantics are the pragmatic subset GridRM needs: any comparison or
arithmetic touching NULL yields NULL, and a NULL predicate is treated as
false; drivers signal "translation not possible" with NULL values (§3.2.3)
so NULL handling is exercised constantly.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Any, Sequence

from repro.sql.errors import SqlExecutionError


class SelectResult:
    """Materialised result of a SELECT: ordered columns plus row tuples."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]

    @classmethod
    def adopt(
        cls, columns: Sequence[str], rows: list[list[Any]]
    ) -> "SelectResult":
        """Wrap freshly-built rows without the defensive per-row copy.

        The caller transfers ownership: ``rows`` must be a list of lists
        nothing else will mutate.  The compiled-plan executor uses this
        so a projected result is materialised exactly once.
        """
        result = cls.__new__(cls)
        result.columns = list(columns)
        result.rows = rows
        return result

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by column label."""
        return [dict(zip(self.columns, r)) for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SelectResult(columns={self.columns!r}, rows={len(self.rows)})"


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
#: Memoised LIKE patterns: compiling the regex once per distinct pattern
#: instead of once per row evaluation.  Bounded LRU so adversarial or
#: data-driven patterns cannot grow it without limit; an OrderedDict keeps
#: eviction order deterministic (insertion order, refreshed on hit).
_LIKE_CACHE: "OrderedDict[str, re.Pattern[str]]" = OrderedDict()
_LIKE_CACHE_MAX = 256


def compile_like(pattern: str) -> re.Pattern[str]:
    """The compiled regex for a SQL LIKE pattern (memoised, bounded)."""
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        _LIKE_CACHE.move_to_end(pattern)
        return cached
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    compiled = re.compile("".join(out), re.IGNORECASE)
    _LIKE_CACHE[pattern] = compiled
    if len(_LIKE_CACHE) > _LIKE_CACHE_MAX:
        _LIKE_CACHE.popitem(last=False)
    return compiled


def coerce_pair(a: Any, b: Any) -> tuple[Any, Any]:
    """Coerce operands for comparison: numbers compare numerically even if
    one side arrived as a numeric string (native agents return text)."""
    if isinstance(a, str) and isinstance(b, (int, float)) and not isinstance(b, bool):
        try:
            return float(a), float(b)
        except ValueError:
            return a, b
    if isinstance(b, str) and isinstance(a, (int, float)) and not isinstance(a, bool):
        try:
            return float(a), float(b)
        except ValueError:
            return a, b
    return a, b


def apply_binop_values(op: str, left: Any, right: Any) -> Any:
    """Apply a binary operator to two already-evaluated values.

    Shared by the compiled-plan closures and the tests' reference
    interpreter so operator/NULL/coercion semantics cannot drift
    between the two.  AND/OR here are the value-level
    (post-evaluation) forms used in aggregate contexts — row-level
    short-circuiting lives in the callers.
    """
    if op == "AND":
        if left is not None and not left:
            return False
        if right is not None and not right:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        if left is not None and left:
            return True
        if right is not None and right:
            return True
        if left is None or right is None:
            return None
        return False
    if left is None or right is None:
        return None
    if op == "LIKE":
        return compile_like(str(right)).match(str(left)) is not None

    a, b = coerce_pair(left, right)
    try:
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return None
            return a / b
        if op == "%":
            if b == 0:
                return None
            return a % b
    except TypeError as exc:
        raise SqlExecutionError(
            f"type error in {op!r}: {type(left).__name__} vs {type(right).__name__}"
        ) from exc
    raise SqlExecutionError(f"unknown operator {op!r}")


# ----------------------------------------------------------------------
# Aggregation, grouping and ordering
# ----------------------------------------------------------------------
def aggregate_values(name: str, values: list[Any], distinct: bool) -> Any:
    """Reduce already-evaluated argument values with aggregate ``name``.

    Shared by the compiled plans and the reference: NULLs are dropped,
    DISTINCT dedups by equality (list scan — values may be unhashable),
    and empty input yields NULL for everything but COUNT.
    """
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
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise SqlExecutionError(f"unknown aggregate {name!r}")


def as_number(v: Any) -> float | int:
    """``v`` as SUM / AVG add it: a number, a ``bool`` as 0 / 1, a
    numeric string as its float; anything else is an error."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, (int, float)):
        return v
    try:
        f = float(v)
    except (TypeError, ValueError) as exc:
        raise SqlExecutionError(f"cannot aggregate non-numeric value {v!r}") from exc
    return f


def hashable(v: Any) -> Any:
    """``v`` as a GROUP BY / DISTINCT key part: a list as its tuple."""
    return tuple(v) if isinstance(v, list) else v


class SortKey:
    """Total-order wrapper: None sorts first, mixed types sort by type name."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return bool(a < b)
        except TypeError:
            return str(type(a).__name__) < str(type(b).__name__)

