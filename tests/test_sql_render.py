"""Unit tests for SQL AST rendering (render = parse^-1 semantically)."""

import pytest

from repro.sql.parser import parse_select
from repro.sql.render import render_expr, render_select, rewrite_columns
from tests.reference_sql import execute_select

ROWS = [
    {"a": 1, "b": "x", "c": None},
    {"a": 2, "b": "y", "c": 5},
    {"a": 3, "b": "xx", "c": 7},
]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM t",
        "SELECT a, b AS bee FROM t",
        "SELECT DISTINCT a FROM t WHERE a > 1",
        "SELECT * FROM t WHERE a IN (1, 2) AND b LIKE 'x%'",
        "SELECT * FROM t WHERE a BETWEEN 1 AND 2 OR c IS NULL",
        "SELECT * FROM t WHERE NOT (a = 1) ORDER BY a DESC LIMIT 2 OFFSET 1",
        "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 0",
        "SELECT a FROM t WHERE b = 'it''s'",
    ],
)
def test_render_round_trip_semantics(sql):
    """Rendered text re-parses and produces identical results."""
    original = parse_select(sql)
    rendered = render_select(original)
    reparsed = parse_select(rendered)
    r1 = execute_select(original, ["a", "b", "c"], ROWS)
    r2 = execute_select(reparsed, ["a", "b", "c"], ROWS)
    assert r1.columns == r2.columns
    assert r1.rows == r2.rows


class TestRenderExpr:
    def test_null_true_false(self):
        w = parse_select("SELECT * FROM t WHERE a = NULL OR b = TRUE").where
        text = render_expr(w)
        assert "NULL" in text and "TRUE" in text

    def test_string_quotes_escaped(self):
        w = parse_select("SELECT * FROM t WHERE b = 'o''k'").where
        assert "'o''k'" in render_expr(w)


class TestRewriteColumns:
    def test_full_rewrite(self):
        w = parse_select("SELECT * FROM t WHERE Glue1 > 5 AND Glue2 = 'x'").where
        out = rewrite_columns(w, {"Glue1": "n1", "Glue2": "n2"})
        text = render_expr(out)
        assert "n1" in text and "n2" in text and "Glue" not in text

    def test_unmapped_column_blocks_rewrite(self):
        w = parse_select("SELECT * FROM t WHERE Glue1 > 5 AND Unknown = 1").where
        assert rewrite_columns(w, {"Glue1": "n1"}) is None

    def test_literal_only_expression_passes(self):
        w = parse_select("SELECT * FROM t WHERE 1 = 1").where
        assert rewrite_columns(w, {}) is not None

    def test_in_and_between_rewritten(self):
        w = parse_select("SELECT * FROM t WHERE G IN (1,2) AND G BETWEEN 0 AND 9").where
        out = rewrite_columns(w, {"G": "g"})
        assert out is not None and "g" in render_expr(out)

    def test_aggregate_blocks_rewrite(self):
        w = parse_select("SELECT * FROM t WHERE COUNT(*) > 1").where
        assert rewrite_columns(w, {}) is None
