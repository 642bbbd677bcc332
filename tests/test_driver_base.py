"""Unit tests for the driver development kit."""

import pytest

from repro.core.request_manager import Cause, QueryMode
from repro.dbapi.exceptions import (
    SQLConnectionException,
    SQLException,
    SQLSyntaxErrorException,
)
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver, ResponseCache
from repro.drivers.snmp_driver import SnmpDriver
from repro.agents.snmp import SnmpAgent
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.parser import parse_select
from repro.testbed import build_site


@pytest.fixture
def driver(network):
    return SnmpDriver(network, gateway_host="gateway")


@pytest.fixture
def agent(network, host):
    return SnmpAgent(host, network)


class TestResponseCache:
    def test_miss_then_hit(self, network):
        cache = ResponseCache(network, ttl=10.0)
        calls = []
        fetch = lambda: calls.append(1) or "value"
        assert cache.get_or_fetch("k", fetch) == "value"
        assert cache.get_or_fetch("k", fetch) == "value"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_expiry_refetches(self, network):
        cache = ResponseCache(network, ttl=5.0)
        calls = []
        cache.get_or_fetch("k", lambda: calls.append(1))
        network.clock.advance(6.0)
        cache.get_or_fetch("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_zero_ttl_never_caches(self, network):
        cache = ResponseCache(network, ttl=0.0)
        calls = []
        cache.get_or_fetch("k", lambda: calls.append(1))
        cache.get_or_fetch("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_negative_ttl_rejected(self, network):
        with pytest.raises(ValueError):
            ResponseCache(network, ttl=-1.0)

    def test_invalidate_specific_and_all(self, network):
        cache = ResponseCache(network, ttl=100.0)
        cache.get_or_fetch("a", lambda: 1)
        cache.get_or_fetch("b", lambda: 2)
        cache.invalidate("a")
        calls = []
        cache.get_or_fetch("a", lambda: calls.append(1))
        cache.get_or_fetch("b", lambda: calls.append(1))
        assert len(calls) == 1
        cache.invalidate()
        cache.get_or_fetch("b", lambda: calls.append(1))
        assert len(calls) == 2

    def test_hit_ratio(self, network):
        cache = ResponseCache(network, ttl=100.0)
        assert cache.hit_ratio == 0.0
        cache.get_or_fetch("k", lambda: 1)
        cache.get_or_fetch("k", lambda: 1)
        assert cache.hit_ratio == 0.5


class TestDriverContract:
    def test_protocol_required(self, network):
        class NoProto(GridRmDriver):
            pass

        with pytest.raises(SQLException):
            NoProto(network)

    def test_accepts_pinned_protocol_without_probe(self, driver):
        url = JdbcUrl.parse("jdbc:snmp://anywhere/x")
        assert driver.accepts_url(url)
        assert driver.stats["probes"] == 0

    def test_rejects_other_protocol(self, driver):
        assert not driver.accepts_url(JdbcUrl.parse("jdbc:nws://h/x"))

    def test_wildcard_probes(self, network, driver, agent):
        url = JdbcUrl.parse("jdbc://n0/x")
        assert driver.accepts_url(url)
        assert driver.stats["probes"] == 1

    def test_wildcard_probe_failure_means_no(self, network, driver):
        network.add_host("empty", site="default")
        assert not driver.accepts_url(JdbcUrl.parse("jdbc://empty/x"))

    def test_connect_wrong_protocol_rejected(self, driver):
        with pytest.raises(SQLConnectionException):
            driver.connect("jdbc:ganglia://n0/x")

    def test_connect_dead_agent_rejected(self, network, driver):
        network.add_host("dead", site="default")
        with pytest.raises(SQLConnectionException):
            driver.connect("jdbc:snmp://dead/x")

    def test_connect_unreachable_host_rejected(self, network, driver, agent):
        network.set_host_up("n0", False)
        with pytest.raises(SQLConnectionException):
            driver.connect("jdbc:snmp://n0/x")


class TestConnectionAndStatement:
    def test_connection_lifecycle(self, driver, agent):
        conn = driver.connect("jdbc:snmp://n0/x")
        assert not conn.is_closed()
        assert conn.is_valid()
        conn.close()
        assert conn.is_closed()
        assert not conn.is_valid()

    def test_statement_on_closed_connection_rejected(self, driver, agent):
        conn = driver.connect("jdbc:snmp://n0/x")
        conn.close()
        with pytest.raises(SQLConnectionException):
            conn.create_statement()

    def test_closed_statement_rejected(self, driver, agent):
        conn = driver.connect("jdbc:snmp://n0/x")
        stmt = conn.create_statement()
        stmt.close()
        with pytest.raises(SQLException):
            stmt.execute_query("SELECT * FROM Host")

    def test_syntax_error_wrapped(self, driver, agent):
        stmt = driver.connect("jdbc:snmp://n0/x").create_statement()
        with pytest.raises(SQLSyntaxErrorException):
            stmt.execute_query("SELEKT garbage")

    def test_unsupported_group_rejected(self, driver, agent):
        stmt = driver.connect("jdbc:snmp://n0/x").create_statement()
        with pytest.raises(SQLException) as err:
            stmt.execute_query("SELECT * FROM Job")
        assert "does not serve group" in str(err.value)

    def test_metadata(self, driver, agent):
        conn = driver.connect("jdbc:snmp://n0/x")
        md = conn.get_metadata()
        assert md.driver_name() == "JDBC-SNMP"
        assert "Processor" in md.get_tables()
        assert md.url().startswith("jdbc:snmp://n0")

    def test_query_timeout_validation(self, driver, agent):
        stmt = driver.connect("jdbc:snmp://n0/x").create_statement()
        with pytest.raises(SQLException):
            stmt.set_query_timeout(0)
        stmt.set_query_timeout(2.0)
        assert stmt.query_timeout == 2.0


class TestFieldsNeeded:
    FIELDS = ["HostName", "LoadAverage1Min", "CPUCount", "CPUIdle"]

    def test_star_needs_all(self, driver):
        sel = parse_select("SELECT * FROM Processor")
        assert driver.fields_needed(sel, self.FIELDS) == self.FIELDS

    def test_projection_only(self, driver):
        sel = parse_select("SELECT CPUCount FROM Processor")
        assert driver.fields_needed(sel, self.FIELDS) == ["CPUCount"]

    def test_where_and_order_included(self, driver):
        sel = parse_select(
            "SELECT HostName FROM Processor WHERE CPUIdle < 50 ORDER BY LoadAverage1Min"
        )
        assert driver.fields_needed(sel, self.FIELDS) == [
            "CPUIdle",
            "HostName",
            "LoadAverage1Min",
        ]

    def test_case_insensitive_normalisation(self, driver):
        sel = parse_select("SELECT cpucount FROM Processor")
        assert driver.fields_needed(sel, self.FIELDS) == ["CPUCount"]

    def test_unknown_columns_ignored(self, driver):
        sel = parse_select("SELECT Bogus FROM Processor")
        assert driver.fields_needed(sel, self.FIELDS) == []

    def test_having_included(self, driver):
        sel = parse_select(
            "SELECT HostName FROM Processor GROUP BY HostName "
            "HAVING MAX(LoadAverage1Min) >= 0"
        )
        assert driver.fields_needed(sel, self.FIELDS) == ["HostName", "LoadAverage1Min"]

    def test_a_column_only_in_having_is_fetched_from_snmp(self):
        """End to end: an SNMP source is asked for the OIDs a HAVING
        clause reads, so the group survives its filter.  Before, the OID
        was never fetched, the aggregate saw NULL and the answer was an
        empty ``fresh`` one."""
        network = Network(VirtualClock(), seed=0)
        site = build_site(network, name="t", n_hosts=1, agents=("snmp",), seed=0)
        site.clock.advance(30.0)
        having = "GROUP BY HostName HAVING MAX(LoadAverage1Min) >= 0"
        bare = site.gateway.query(
            site.source_urls, f"SELECT HostName FROM Processor {having}",
            mode=QueryMode.REALTIME,
        )
        projected = site.gateway.query(
            site.source_urls,
            f"SELECT HostName, MAX(LoadAverage1Min) FROM Processor {having}",
            mode=QueryMode.REALTIME,
        )
        assert projected.rows == [["t-n00", 0.4]]
        assert bare.rows == [["t-n00"]]
        assert [s.cause for s in bare.statuses] == [Cause.FRESH]
