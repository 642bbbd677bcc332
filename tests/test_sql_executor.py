"""Unit tests for SQL execution over in-memory relations.

Every SELECT case runs on both engines: the ``Test*`` classes on the
interpreter (the reference), their ``Test*OnPlan`` subclasses on the
compiled plan that serves.
"""

import pytest

from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_select
from repro.sql.plan import compile_plan
from tests.reference_sql import evaluate_expr, evaluate_predicate, execute_select

COLUMNS = ["host", "load", "cpus", "site"]
ROWS = [
    {"host": "a", "load": 0.5, "cpus": 4, "site": "s1"},
    {"host": "b", "load": 1.5, "cpus": 8, "site": "s1"},
    {"host": "c", "load": 2.5, "cpus": 8, "site": "s2"},
    {"host": "d", "load": None, "cpus": 2, "site": "s2"},
]


def run(sql, columns=COLUMNS, rows=ROWS):
    return execute_select(parse_select(sql), columns, rows)


def run_plan(sql, columns=COLUMNS, rows=ROWS):
    return compile_plan(parse_select(sql)).bind_mapping(tuple(columns)).execute(rows)


class _Reference:
    run = staticmethod(run)


class TestProjection(_Reference):
    def test_star_preserves_column_order(self):
        r = self.run("SELECT * FROM m")
        assert r.columns == COLUMNS
        assert len(r) == 4

    def test_single_column(self):
        r = self.run("SELECT host FROM m")
        assert r.rows == [["a"], ["b"], ["c"], ["d"]]

    def test_computed_column(self):
        r = self.run("SELECT load * 2 AS dbl FROM m WHERE host = 'a'")
        assert r.columns == ["dbl"]
        assert r.rows == [[1.0]]

    def test_case_insensitive_column_lookup(self):
        r = self.run("SELECT HOST FROM m WHERE LOAD > 2")
        assert r.rows == [["c"]]

    def test_unknown_column_raises(self):
        with pytest.raises(SqlExecutionError):
            self.run("SELECT nope FROM m")


class TestWhere(_Reference):
    def test_comparison(self):
        assert len(self.run("SELECT * FROM m WHERE load > 1")) == 2

    def test_null_comparison_excludes_row(self):
        # host d has NULL load: not > , not <=.
        assert len(self.run("SELECT * FROM m WHERE load > 0 OR load <= 0")) == 3

    def test_is_null(self):
        r = self.run("SELECT host FROM m WHERE load IS NULL")
        assert r.rows == [["d"]]

    def test_is_not_null(self):
        assert len(self.run("SELECT * FROM m WHERE load IS NOT NULL")) == 3

    def test_in(self):
        assert len(self.run("SELECT * FROM m WHERE host IN ('a', 'c')")) == 2

    def test_not_in(self):
        assert len(self.run("SELECT * FROM m WHERE host NOT IN ('a', 'c')")) == 2

    def test_between(self):
        assert len(self.run("SELECT * FROM m WHERE cpus BETWEEN 3 AND 8")) == 3

    def test_like_percent(self):
        rows = [{"host": "node-01", "load": 1, "cpus": 1, "site": "x"}]
        assert len(self.run("SELECT * FROM m WHERE host LIKE 'node%'", rows=rows)) == 1

    def test_like_underscore(self):
        rows = [{"host": "n1", "load": 1, "cpus": 1, "site": "x"}]
        assert len(self.run("SELECT * FROM m WHERE host LIKE 'n_'", rows=rows)) == 1
        assert len(self.run("SELECT * FROM m WHERE host LIKE 'n__'", rows=rows)) == 0

    def test_like_case_insensitive(self):
        rows = [{"host": "Node", "load": 1, "cpus": 1, "site": "x"}]
        assert len(self.run("SELECT * FROM m WHERE host LIKE 'node'", rows=rows)) == 1

    def test_and_short_circuit_on_false(self):
        # b AND ... where left is false never errors on the right side.
        assert len(self.run("SELECT * FROM m WHERE 1 = 2 AND load / 0 > 1")) == 0

    def test_string_number_coercion(self):
        rows = [{"host": "a", "load": "1.5", "cpus": 1, "site": "x"}]
        assert len(self.run("SELECT * FROM m WHERE load > 1", rows=rows)) == 1

    def test_division_by_zero_yields_null(self):
        # NULL predicate -> row excluded, no crash.
        assert len(self.run("SELECT * FROM m WHERE load / 0 > 1")) == 0


class TestAggregates(_Reference):
    def test_count_star(self):
        assert self.run("SELECT COUNT(*) FROM m").rows == [[4]]

    def test_count_column_skips_nulls(self):
        assert self.run("SELECT COUNT(load) FROM m").rows == [[3]]

    def test_sum_avg(self):
        r = self.run("SELECT SUM(load), AVG(load) FROM m")
        assert r.rows[0][0] == pytest.approx(4.5)
        assert r.rows[0][1] == pytest.approx(1.5)

    def test_min_max(self):
        assert self.run("SELECT MIN(cpus), MAX(cpus) FROM m").rows == [[2, 8]]

    def test_aggregate_on_empty_input(self):
        r = self.run("SELECT COUNT(*), AVG(load) FROM m WHERE host = 'zzz'")
        assert r.rows == [[0, None]]

    def test_group_by(self):
        r = self.run("SELECT site, COUNT(*) FROM m GROUP BY site ORDER BY site")
        assert r.rows == [["s1", 2], ["s2", 2]]

    def test_group_by_having(self):
        r = self.run(
            "SELECT cpus, COUNT(*) n FROM m GROUP BY cpus HAVING COUNT(*) > 1"
        )
        assert r.rows == [[8, 2]]

    def test_count_distinct(self):
        assert self.run("SELECT COUNT(DISTINCT site) FROM m").rows == [[2]]

    def test_aggregate_arithmetic(self):
        r = self.run("SELECT MAX(load) - MIN(load) FROM m")
        assert r.rows[0][0] == pytest.approx(2.0)

    def test_star_with_aggregation_rejected(self):
        with pytest.raises(SqlExecutionError):
            self.run("SELECT * FROM m GROUP BY site")

    def test_sum_non_numeric_raises(self):
        with pytest.raises(SqlExecutionError):
            self.run("SELECT SUM(host) FROM m")


class TestOrderLimit(_Reference):
    def test_order_asc(self):
        r = self.run("SELECT host FROM m WHERE load IS NOT NULL ORDER BY load")
        assert [x[0] for x in r.rows] == ["a", "b", "c"]

    def test_order_desc(self):
        r = self.run("SELECT host FROM m WHERE load IS NOT NULL ORDER BY load DESC")
        assert [x[0] for x in r.rows] == ["c", "b", "a"]

    def test_nulls_sort_first(self):
        r = self.run("SELECT host FROM m ORDER BY load")
        assert r.rows[0] == ["d"]

    def test_multi_key_order(self):
        r = self.run("SELECT host FROM m ORDER BY cpus DESC, host ASC")
        assert [x[0] for x in r.rows] == ["b", "c", "a", "d"]

    def test_order_by_projection_alias(self):
        r = self.run(
            "SELECT host, load * -1 AS neg FROM m WHERE load IS NOT NULL ORDER BY neg"
        )
        assert [x[0] for x in r.rows] == ["c", "b", "a"]

    def test_order_by_alias_desc(self):
        r = self.run(
            "SELECT host, cpus * 10 big FROM m ORDER BY big DESC, host ASC"
        )
        assert [x[0] for x in r.rows] == ["b", "c", "a", "d"]

    def test_limit(self):
        assert len(self.run("SELECT * FROM m LIMIT 2")) == 2

    def test_offset(self):
        r = self.run("SELECT host FROM m ORDER BY host LIMIT 2 OFFSET 1")
        assert [x[0] for x in r.rows] == ["b", "c"]

    def test_limit_zero(self):
        assert len(self.run("SELECT * FROM m LIMIT 0")) == 0

    def test_distinct(self):
        r = self.run("SELECT DISTINCT site FROM m ORDER BY site")
        assert r.rows == [["s1"], ["s2"]]

    def test_distinct_applies_after_projection(self):
        r = self.run("SELECT DISTINCT cpus FROM m WHERE cpus = 8")
        assert r.rows == [[8]]


class TestEvaluateHelpers:
    def test_evaluate_predicate_none_clause_true(self):
        assert evaluate_predicate(None, {"a": 1})

    def test_evaluate_expr_not(self):
        stmt = parse_select("SELECT * FROM m WHERE NOT flag")
        assert evaluate_predicate(stmt.where, {"flag": False})
        assert not evaluate_predicate(stmt.where, {"flag": True})

    def test_evaluate_expr_not_null_is_null(self):
        stmt = parse_select("SELECT * FROM m WHERE NOT flag")
        assert not evaluate_predicate(stmt.where, {"flag": None})

    def test_select_result_dicts(self):
        r = run("SELECT host, cpus FROM m LIMIT 1")
        assert r.dicts() == [{"host": "a", "cpus": 4}]


class TestProjectionOnPlan(TestProjection):
    run = staticmethod(run_plan)


class TestWhereOnPlan(TestWhere):
    run = staticmethod(run_plan)


class TestAggregatesOnPlan(TestAggregates):
    run = staticmethod(run_plan)


class TestOrderLimitOnPlan(TestOrderLimit):
    run = staticmethod(run_plan)
