"""Unit tests for the in-memory relational database."""

import pytest

from repro.sql.database import Database
from repro.sql.errors import SqlExecutionError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE m (host TEXT, load REAL, cpus INTEGER, up BOOLEAN)")
    d.execute(
        "INSERT INTO m (host, load, cpus, up) VALUES "
        "('a', 0.5, 4, TRUE), ('b', 1.5, 8, FALSE)"
    )
    return d


class TestDdl:
    def test_create_and_query_empty(self):
        d = Database()
        d.execute("CREATE TABLE t (a INTEGER)")
        assert d.query("SELECT * FROM t").rows == []

    def test_create_duplicate_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("CREATE TABLE m (x TEXT)")

    def test_create_if_not_exists_tolerates_duplicate(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS m (x TEXT)")

    def test_duplicate_column_rejected(self):
        d = Database()
        with pytest.raises(SqlExecutionError):
            d.execute("CREATE TABLE t (a INTEGER, a TEXT)")

    def test_drop(self, db):
        db.execute("DROP TABLE m")
        with pytest.raises(SqlExecutionError):
            db.query("SELECT * FROM m")

    def test_drop_missing_rejected(self):
        with pytest.raises(SqlExecutionError):
            Database().execute("DROP TABLE nope")

    def test_drop_if_exists_tolerant(self):
        assert Database().execute("DROP TABLE IF EXISTS nope") == 0

    def test_programmatic_create(self):
        d = Database()
        t = d.create_table("t", ["a", ("b", "REAL")])
        assert t.column_names == ["a", "b"]
        assert t.columns[1].type == "REAL"


class TestDml:
    def test_insert_returns_count(self, db):
        n = db.execute("INSERT INTO m (host, load, cpus, up) VALUES ('c', 2.0, 1, TRUE)")
        assert n == 1
        assert len(db.table("m")) == 3

    def test_insert_coerces_types(self, db):
        db.execute("INSERT INTO m (host, load, cpus, up) VALUES ('c', '2.5', 1, TRUE)")
        row = db.query("SELECT load FROM m WHERE host = 'c'").rows[0]
        assert row == [2.5]

    def test_insert_unknown_column_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.insert_rows("m", [{"nope": 1}])

    def test_insert_missing_columns_null_filled(self, db):
        db.insert_rows("m", [{"host": "z"}])
        row = db.query("SELECT load, cpus FROM m WHERE host = 'z'").rows[0]
        assert row == [None, None]

    def test_insert_uncoercible_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.insert_rows("m", [{"host": "x", "cpus": "many"}])

    def test_update_returns_affected(self, db):
        assert db.execute("UPDATE m SET load = 9 WHERE host = 'a'") == 1
        assert db.query("SELECT load FROM m WHERE host='a'").rows == [[9.0]]

    def test_update_expression_uses_row(self, db):
        db.execute("UPDATE m SET load = load + 1")
        assert db.query("SELECT load FROM m ORDER BY host").rows == [[1.5], [2.5]]

    def test_update_unknown_column_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("UPDATE m SET nope = 1")

    def test_delete_with_where(self, db):
        assert db.execute("DELETE FROM m WHERE up = FALSE") == 1
        assert len(db.table("m")) == 1

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM m") == 2
        assert db.query("SELECT COUNT(*) FROM m").rows == [[0]]

    def test_query_rejects_dml(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("DELETE FROM m")

    def test_boolean_round_trip(self, db):
        assert db.query("SELECT up FROM m WHERE host = 'a'").rows == [[True]]


class TestDmlIsAllOrNothing:
    """A DML statement builds every value it will write before it writes
    any: one that raises leaves ``table.rows`` as it found them, and an
    assignment reads the row as the statement found it."""

    def test_insert_that_raises_on_a_later_row_inserts_none(self, db):
        before = [dict(r) for r in db.table("m").rows]
        with pytest.raises(SqlExecutionError, match="cannot coerce 'x' to REAL"):
            db.execute("INSERT INTO m (host, load, cpus) VALUES ('d', 4, 4), ('e', 'x', 5)")
        assert db.table("m").rows == before

    def test_update_that_raises_on_a_later_row_updates_none(self, db):
        db.execute("CREATE TABLE t (k TEXT, n INTEGER, x REAL)")
        db.execute("INSERT INTO t (k, n, x) VALUES ('1', 1, 1.5), ('2', 2, 2.5), ('x', 3, 3.5)")
        before = [dict(r) for r in db.table("t").rows]
        # The third matching row's k does not coerce to INTEGER.
        with pytest.raises(SqlExecutionError, match="cannot coerce 'x' to INTEGER"):
            db.execute("UPDATE t SET x = x + 1, n = k WHERE x > 1")
        assert db.table("t").rows == before
        # ... nor does a type error out of the predicate, past rows it matched.
        with pytest.raises(SqlExecutionError, match="type error"):
            db.execute("UPDATE t SET x = 0 WHERE k < 'x' OR k > 1")
        assert db.table("t").rows == before

    def test_update_assignments_read_the_row_as_found(self, db):
        assert db.execute("UPDATE m SET load = cpus, cpus = load") == 2
        assert db.query("SELECT host, load, cpus FROM m ORDER BY host").rows == [
            ["a", 4.0, 0],
            ["b", 8.0, 1],
        ]
