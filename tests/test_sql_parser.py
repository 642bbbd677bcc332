"""Unit tests for the SQL parser."""

import sys

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlParseError
from repro.sql.parser import MAX_EXPR_DEPTH, parse_select, parse_statement


class TestSelectBasics:
    def test_star(self):
        stmt = parse_select("SELECT * FROM Processor")
        assert stmt.is_star
        assert stmt.table == "Processor"

    def test_column_list(self):
        stmt = parse_select("SELECT HostName, CPUCount FROM Processor")
        assert [i.expr.name for i in stmt.items] == ["HostName", "CPUCount"]

    def test_alias_with_as(self):
        stmt = parse_select("SELECT HostName AS h FROM Processor")
        assert stmt.items[0].alias == "h"

    def test_alias_without_as(self):
        stmt = parse_select("SELECT HostName h FROM Processor")
        assert stmt.items[0].alias == "h"

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT Owner FROM Job").distinct

    def test_trailing_semicolon_allowed(self):
        parse_select("SELECT * FROM Host;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlParseError):
            parse_select("SELECT * FROM Host garbage extra")

    def test_qualified_column(self):
        stmt = parse_select("SELECT p.HostName FROM Processor")
        col = stmt.items[0].expr
        assert col.table == "p" and col.name == "HostName"

    def test_parse_select_rejects_non_select(self):
        with pytest.raises(SqlParseError):
            parse_select("DELETE FROM Host")

    def test_projected_names(self):
        stmt = parse_select("SELECT HostName, COUNT(*), AVG(LoadAverage1Min) x FROM Processor")
        assert stmt.projected_names() == ["HostName", "COUNT(*)", "x"]


class TestWhere:
    def test_comparison(self):
        stmt = parse_select("SELECT * FROM m WHERE load > 1.5")
        assert isinstance(stmt.where, ast.BinOp)
        assert stmt.where.op == ">"

    def test_ne_variants_normalised(self):
        a = parse_select("SELECT * FROM m WHERE a <> 1").where
        b = parse_select("SELECT * FROM m WHERE a != 1").where
        assert a.op == b.op == "!="

    def test_and_or_precedence(self):
        stmt = parse_select("SELECT * FROM m WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_parentheses_override(self):
        stmt = parse_select("SELECT * FROM m WHERE (a = 1 OR b = 2) AND c = 3")
        assert stmt.where.op == "AND"

    def test_not(self):
        stmt = parse_select("SELECT * FROM m WHERE NOT a = 1")
        assert isinstance(stmt.where, ast.UnaryOp)
        assert stmt.where.op == "NOT"

    def test_in_list(self):
        stmt = parse_select("SELECT * FROM m WHERE h IN ('a', 'b')")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.items) == 2

    def test_not_in(self):
        stmt = parse_select("SELECT * FROM m WHERE h NOT IN ('a')")
        assert stmt.where.negated

    def test_like(self):
        stmt = parse_select("SELECT * FROM m WHERE h LIKE 'n%'")
        assert stmt.where.op == "LIKE"

    def test_not_like_wraps_not(self):
        stmt = parse_select("SELECT * FROM m WHERE h NOT LIKE 'n%'")
        assert isinstance(stmt.where, ast.UnaryOp)

    def test_between(self):
        stmt = parse_select("SELECT * FROM m WHERE x BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.Between)

    def test_not_between(self):
        assert parse_select("SELECT * FROM m WHERE x NOT BETWEEN 1 AND 5").where.negated

    def test_is_null(self):
        stmt = parse_select("SELECT * FROM m WHERE x IS NULL")
        assert isinstance(stmt.where, ast.IsNull) and not stmt.where.negated

    def test_is_not_null(self):
        assert parse_select("SELECT * FROM m WHERE x IS NOT NULL").where.negated

    def test_arithmetic_precedence(self):
        stmt = parse_select("SELECT * FROM m WHERE a + b * 2 > 10")
        cmp = stmt.where
        assert cmp.left.op == "+"
        assert cmp.left.right.op == "*"

    def test_unary_minus(self):
        stmt = parse_select("SELECT * FROM m WHERE x > -1")
        assert isinstance(stmt.where.right, ast.UnaryOp)

    def test_boolean_literals(self):
        stmt = parse_select("SELECT * FROM m WHERE flag = TRUE")
        assert stmt.where.right.value is True

    def test_null_literal(self):
        stmt = parse_select("SELECT NULL FROM m")
        assert stmt.items[0].expr.value is None


class TestDepthBound:
    """Hostile nesting is a typed parse error, never a RecursionError."""

    PREFIX = "SELECT * FROM m WHERE "

    @pytest.mark.parametrize(
        "where",
        [
            "(" * 300 + "x > 1" + ")" * 300,
            "NOT " * 2000 + "x > 1",
            "x > " + "-" * 3000 + "1",
            " OR ".join(["x = 1"] * 2000),
            " + ".join(["x"] * 2000) + " > 1",
            "x IN (" * 300 + "1" + ")" * 300,
            "COUNT(" * 300 + "x" + ")" * 300 + " > 1",
            # nesting times chain length: neither alone reaches the bound
            "(" * 30 + "x = 1" + (" OR x = 1" * 30 + ")") * 30,
        ],
    )
    def test_too_deep_is_a_parse_error(self, where):
        with pytest.raises(SqlParseError, match="nested deeper"):
            parse_select(self.PREFIX + where)

    def test_other_statements_are_bounded_too(self):
        deep = "NOT " * 2000 + "x"
        for text in (
            f"DELETE FROM m WHERE {deep}",
            f"UPDATE m SET x = {deep}",
            f"INSERT INTO m (x) VALUES ({deep})",
        ):
            with pytest.raises(SqlParseError, match="nested deeper"):
                parse_statement(text)

    def test_the_bound_itself_parses(self):
        n = MAX_EXPR_DEPTH - 1
        parse_select(self.PREFIX + "(" * n + "x > 1" + ")" * n)
        parse_select(self.PREFIX + "NOT " * (n - 1) + "x > 1")
        parse_select(self.PREFIX + " OR ".join(["x = 1"] * n))

    def test_sign_and_not_chains_keep_their_tree(self):
        stmt = parse_select("SELECT - + - x FROM m WHERE NOT NOT y")
        assert stmt.items[0].expr == ast.UnaryOp(
            "-", ast.UnaryOp("-", ast.Column("x"))
        )
        assert stmt.where == ast.UnaryOp("NOT", ast.UnaryOp("NOT", ast.Column("y")))


class TestUnreadableNumbers:
    """A number the interpreter cannot read is a typed parse error at the
    literal, never a raw ``ValueError`` out of ``int`` / ``float``."""

    PREFIX = "SELECT * FROM T WHERE x = "

    @pytest.mark.parametrize(
        "literal, message, offset",
        [
            ("\u00b2", "unexpected character '\u00b2'", 0),
            ("\u2460", "unexpected character '\u2460'", 0),
            ("1e\u00b2", "unexpected trailing input", 1),  # 1, then identifier e\u00b2
            ("7 + \u00b2", "unexpected character '\u00b2'", 4),
        ],
        ids=["superscript-two", "circled-one", "superscript-exponent", "after-an-operator"],
    )
    def test_a_non_decimal_digit_is_an_unexpected_character(self, literal, message, offset):
        with pytest.raises(SqlParseError, match=message) as err:
            parse_select(self.PREFIX + literal)
        assert err.value.position == len(self.PREFIX) + offset

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this interpreter reads integers of any length",
    )
    def test_an_integer_past_the_int_string_limit_is_a_parse_error(self):
        with pytest.raises(SqlParseError, match="unreadable number") as err:
            parse_select(self.PREFIX + "1" * 5000 + " OR x = 2")
        assert err.value.position == len(self.PREFIX)

    def test_other_decimal_digits_still_read(self):
        assert parse_select(self.PREFIX + "\u0663").where.right == ast.Literal(3)

    @pytest.mark.parametrize(
        "text, position, near",
        [
            ("SELECT * FROM T LIMIT 2.5", 22, "'2.5'"),
            ("SELECT * FROM T LIMIT 2 OFFSET 1e3", 31, "'1e3'"),
            ("SELECT * FROM T LIMIT x", 22, "'x'"),
        ],
        ids=["limit-fraction", "offset-exponent", "limit-name"],
    )
    def test_limit_and_offset_errors_point_at_the_literal(self, text, position, near):
        with pytest.raises(SqlParseError, match="expected integer") as err:
            parse_select(text)
        assert err.value.position == position
        assert f"at position {position} (near {near})" in str(err.value)


class TestClauses:
    def test_order_by_default_asc(self):
        stmt = parse_select("SELECT * FROM m ORDER BY a")
        assert not stmt.order_by[0].descending

    def test_order_by_desc(self):
        stmt = parse_select("SELECT * FROM m ORDER BY a DESC, b ASC")
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending

    def test_limit_offset(self):
        stmt = parse_select("SELECT * FROM m LIMIT 10 OFFSET 5")
        assert stmt.limit == 10 and stmt.offset == 5

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT Owner, COUNT(*) FROM Job GROUP BY Owner HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_count_star(self):
        stmt = parse_select("SELECT COUNT(*) FROM m")
        call = stmt.items[0].expr
        assert call.name == "COUNT" and call.star

    def test_count_distinct(self):
        stmt = parse_select("SELECT COUNT(DISTINCT Owner) FROM Job")
        assert stmt.items[0].expr.distinct

    @pytest.mark.parametrize("agg", ["SUM", "AVG", "MIN", "MAX"])
    def test_aggregates_parse(self, agg):
        stmt = parse_select(f"SELECT {agg}(x) FROM m")
        assert stmt.items[0].expr.name == agg


class TestOtherStatements:
    def test_insert_multi_row(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2

    def test_insert_arity_mismatch_rejected(self):
        with pytest.raises(SqlParseError):
            parse_statement("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)

    def test_delete_without_where(self):
        assert parse_statement("DELETE FROM t").where is None

    def test_create_table(self):
        stmt = parse_statement("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        assert isinstance(stmt, ast.CreateTable)
        assert [c.type for c in stmt.columns] == ["INTEGER", "TEXT", "REAL"]

    def test_create_if_not_exists(self):
        assert parse_statement("CREATE TABLE IF NOT EXISTS t (a)").if_not_exists

    def test_create_default_type_text(self):
        stmt = parse_statement("CREATE TABLE t (a)")
        assert stmt.columns[0].type == "TEXT"

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable) and stmt.if_exists

    def test_empty_statement_rejected(self):
        with pytest.raises(SqlParseError):
            parse_statement("")

    def test_error_mentions_position(self):
        with pytest.raises(SqlParseError) as err:
            parse_statement("SELECT FROM")
        assert "position" in str(err.value)


class TestAstHelpers:
    def test_columns_in_walks_everything(self):
        stmt = parse_select(
            "SELECT a FROM m WHERE b > 1 AND c IN (d, 2) OR e BETWEEN f AND 9"
        )
        assert ast.columns_in(stmt.where) == {"b", "c", "d", "e", "f"}

    def test_contains_aggregate(self):
        stmt = parse_select("SELECT COUNT(*) + 1 FROM m")
        assert ast.contains_aggregate(stmt.items[0].expr)

    def test_no_aggregate(self):
        stmt = parse_select("SELECT a + 1 FROM m")
        assert not ast.contains_aggregate(stmt.items[0].expr)

    def test_walk_visits_each_node_before_its_operands(self):
        stmt = parse_select("SELECT a FROM m WHERE b IN (1, c) AND NOT d BETWEEN e AND SUM(f)")
        assert [
            e.name if isinstance(e, (ast.Column, ast.FuncCall)) else type(e).__name__
            for e in ast.walk(stmt.where)
        ] == ["BinOp", "InList", "b", "Literal", "c", "UnaryOp", "Between", "d", "e", "SUM", "f"]
