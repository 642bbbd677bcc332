"""Tests for multi-group queries (paper §3.2.3: "Clients select one or
more GLUE group names to query")."""

import pytest

from repro.core.errors import GridRmError
from repro.core.request_manager import QueryMode
from repro.dbapi.exceptions import SQLException
from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_select
from repro.sql.render import render_expr
from tests.reference_sql import natural_join


class TestParsing:
    def test_single_table_not_join(self):
        stmt = parse_select("SELECT * FROM Processor")
        assert not stmt.is_join
        assert stmt.tables == ("Processor",)

    def test_comma_list(self):
        stmt = parse_select("SELECT * FROM Processor, MainMemory, Host")
        assert stmt.is_join
        assert stmt.tables == ("Processor", "MainMemory", "Host")

    def test_render_round_trip(self):
        """A join's WHERE, rendered as the push-down renders it, parses
        back to the same statement."""
        head = "SELECT HostName FROM Processor, MainMemory WHERE "
        stmt = parse_select(head + "CPUCount > 1")
        again = parse_select(head + render_expr(stmt.where))
        assert again == stmt


class TestNaturalJoin:
    LEFT = (["k", "a"], [{"k": 1, "a": "x"}, {"k": 2, "a": "y"}])
    RIGHT = (["k", "b"], [{"k": 1, "b": 10.0}, {"k": 3, "b": 30.0}])

    def test_inner_join_on_shared_column(self):
        columns, rows = natural_join([self.LEFT, self.RIGHT])
        assert columns == ["k", "a", "b"]
        assert rows == [{"k": 1, "a": "x", "b": 10.0}]

    def test_explicit_keys(self):
        left = (["k", "t"], [{"k": 1, "t": 5.0}])
        right = (["k", "t", "b"], [{"k": 1, "t": 9.0, "b": 2}])
        # Joining on all shared columns (k, t) matches nothing...
        assert natural_join([left, right])[1] == []
        # ...but on the identity key alone it matches; left's t wins.
        columns, rows = natural_join([left, right], key_columns=["k"])
        assert rows == [{"k": 1, "t": 5.0, "b": 2}]

    def test_multiplicity(self):
        right = (["k", "b"], [{"k": 1, "b": 1}, {"k": 1, "b": 2}])
        _, rows = natural_join([self.LEFT, right])
        assert len(rows) == 2

    def test_no_shared_columns_rejected(self):
        with pytest.raises(SqlExecutionError):
            natural_join([(["a"], []), (["b"], [])])

    def test_empty_input(self):
        assert natural_join([]) == ([], [])

    def test_three_way(self):
        third = (["k", "c"], [{"k": 1, "c": True}])
        columns, rows = natural_join([self.LEFT, self.RIGHT, third])
        assert columns == ["k", "a", "b", "c"]
        assert rows == [{"k": 1, "a": "x", "b": 10.0, "c": True}]


class TestDatabaseJoin:
    def test_join_in_database(self):
        from repro.sql.database import Database

        db = Database()
        db.execute("CREATE TABLE p (host TEXT, cpus INTEGER)")
        db.execute("CREATE TABLE m (host TEXT, ram REAL)")
        db.execute("INSERT INTO p (host, cpus) VALUES ('a', 2), ('b', 4)")
        db.execute("INSERT INTO m (host, ram) VALUES ('a', 512.0)")
        result = db.query("SELECT host, cpus, ram FROM p, m")
        assert result.rows == [["a", 2, 512.0]]


class TestGatewayJoin:
    def test_join_across_groups_single_source(self, site):
        result = site.gateway.query(
            site.url_for("ganglia"),
            "SELECT HostName, CPUCount, RAMSizeMB FROM Processor, MainMemory "
            "ORDER BY HostName",
        )
        assert len(result.rows) == 3
        for row in result.dicts():
            assert row["CPUCount"] is not None
            assert row["RAMSizeMB"] is not None

    def test_join_across_groups_multi_source(self, site):
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")]
        result = site.gateway.query(
            urls,
            "SELECT HostName, LoadAverage1Min, RAMAvailableMB "
            "FROM Processor, MainMemory",
        )
        assert len(result.rows) == 3
        assert result.ok_sources == 6  # 3 sources x 2 group sub-queries

    def test_where_spans_groups(self, site):
        result = site.gateway.query(
            site.url_for("ganglia"),
            "SELECT HostName FROM Processor, MainMemory "
            "WHERE RAMSizeMB > 0 AND CPUCount >= 1",
        )
        assert len(result.rows) == 3

    def test_aggregate_over_join(self, site):
        result = site.gateway.query(
            site.url_for("ganglia"),
            "SELECT COUNT(*), MAX(RAMSizeMB) FROM Processor, MainMemory",
        )
        assert result.rows[0][0] == 3

    def test_driver_rejects_join_directly(self, site):
        driver = site.gateway.driver_manager.driver_by_name("JDBC-SNMP")
        conn = driver.connect(site.url_for("snmp"))
        with pytest.raises(SQLException):
            conn.create_statement().execute_query(
                "SELECT * FROM Processor, MainMemory"
            )

    def test_join_with_unserved_group_degrades(self, site):
        """A group no source serves contributes nothing to the join."""
        result = site.gateway.query(
            site.url_for("snmp"),
            "SELECT HostName FROM Processor, Job",
        )
        assert result.rows == []
        assert result.failed_sources >= 1

    def test_history_join(self, site):
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Processor")
        gw.query(url, "SELECT * FROM MainMemory")
        result = gw.query(
            url,
            "SELECT HostName, LoadAverage1Min, RAMSizeMB FROM Processor, MainMemory",
            mode=QueryMode.HISTORY,
        )
        assert len(result.rows) == 1

    def test_fgsl_checks_every_group(self, site):
        from repro.core.security import AccessRule, Principal, SecurityError

        gw = site.gateway
        gw.fgsl.enabled = True
        gw.cgsl.enabled = True
        gw.fgsl.add_rule(
            AccessRule(allow=False, who="role:student", group_pattern="MainMemory")
        )
        eve = Principal.with_roles("eve", "student")
        with pytest.raises(SecurityError):
            gw.query(
                site.url_for("snmp"),
                "SELECT HostName FROM Processor, MainMemory",
                principal=eve,
            )
