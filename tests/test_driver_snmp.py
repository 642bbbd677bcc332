"""Unit tests for the JDBC-SNMP driver's query path."""

import pytest

from repro.agents.snmp import SnmpAgent
from repro.drivers.snmp_driver import SnmpDriver


@pytest.fixture
def agent(network, host):
    return SnmpAgent(host, network)


@pytest.fixture
def conn(network, agent):
    return SnmpDriver(network, gateway_host="gateway").connect("jdbc:snmp://n0/x")


def query(conn, sql):
    return conn.create_statement().execute_query(sql)


class TestProcessor:
    def test_star_row_shape(self, conn, host):
        rows = query(conn, "SELECT * FROM Processor").to_dicts()
        assert len(rows) == 1
        row = rows[0]
        assert row["HostName"] == "n0"
        assert row["CPUCount"] == host.spec.cpu_count

    def test_load_descaled(self, conn, host, network):
        row = query(conn, "SELECT LoadAverage1Min FROM Processor").to_dicts()[0]
        expected = int(host.snapshot(network.clock.now())["cpu"]["load_1"] * 100) / 100.0
        assert row["LoadAverage1Min"] == pytest.approx(expected)

    def test_utilization_derived_from_idle(self, conn):
        row = query(conn, "SELECT CPUIdle, CPUUtilization FROM Processor").to_dicts()[0]
        assert row["CPUUtilization"] == pytest.approx(100.0 - row["CPUIdle"])

    def test_untranslatable_fields_null(self, conn):
        """No SNMP OID carries CPU vendor/model/clock -> NULL (§3.2.3)."""
        row = query(conn, "SELECT Vendor, Model, ClockSpeedMHz FROM Processor").to_dicts()[0]
        assert row == {"Vendor": None, "Model": None, "ClockSpeedMHz": None}

    def test_fine_grained_fetches_only_needed_oids(self, conn, agent):
        before = agent.requests_served
        query(conn, "SELECT CPUCount FROM Processor")
        assert agent.requests_served == before + 1  # single batched GET

    def test_where_filtering_applied(self, conn):
        rs = query(conn, "SELECT HostName FROM Processor WHERE CPUCount > 1000")
        assert len(rs) == 0


class TestOtherGroups:
    def test_memory_unit_conversion_kb_to_mb(self, conn, host):
        row = query(conn, "SELECT RAMSizeMB FROM MainMemory").to_dicts()[0]
        assert row["RAMSizeMB"] == pytest.approx(host.spec.ram_mb)

    def test_os_name_from_sysdescr(self, conn, host):
        row = query(conn, "SELECT Name, Release FROM OperatingSystem").to_dicts()[0]
        assert row["Name"] == host.spec.os_name
        assert row["Release"] == host.spec.os_release

    def test_uptime_descaled_from_timeticks(self, conn, network, host):
        network.clock.advance(50.0)
        row = query(conn, "SELECT UptimeSeconds FROM OperatingSystem").to_dicts()[0]
        expected = host.snapshot()["os"]["uptime_s"]
        assert row["UptimeSeconds"] == pytest.approx(expected, abs=0.01)

    def test_network_adapter_bandwidth_mbps(self, conn, host):
        row = query(conn, "SELECT BandwidthMbps FROM NetworkAdapter").to_dicts()[0]
        assert row["BandwidthMbps"] == pytest.approx(host.spec.nic_bandwidth_mbps)

    def test_host_group(self, conn):
        row = query(conn, "SELECT * FROM Host").to_dicts()[0]
        assert row["Reachable"] is True
        assert row["UniqueId"] == "n0#snmp"
        assert row["AgentName"].startswith("snmp:")

    def test_timestamp_is_virtual_now(self, conn, network):
        network.clock.advance(123.0)
        row = query(conn, "SELECT Timestamp FROM Host").to_dicts()[0]
        assert row["Timestamp"] == pytest.approx(network.clock.now(), abs=1.0)


class TestFileSystemWalk:
    def test_one_row_per_mount(self, conn, host):
        rows = query(conn, "SELECT Name, SizeMB, AvailableSpaceMB FROM FileSystem").to_dicts()
        assert len(rows) == len(host.spec.filesystems)
        by_root = {r["Name"]: r for r in rows}
        for root, _fstype, size_mb in host.spec.filesystems:
            assert by_root[root]["SizeMB"] == pytest.approx(size_mb, abs=1.0)

    def test_available_space_consistent(self, conn, host, network):
        rows = query(conn, "SELECT Name, SizeMB, AvailableSpaceMB FROM FileSystem").to_dicts()
        for r in rows:
            assert 0 <= r["AvailableSpaceMB"] <= r["SizeMB"]

    def test_unobservable_fields_null(self, conn):
        rows = query(conn, "SELECT ReadOnly, Type FROM FileSystem").to_dicts()
        assert all(r == {"ReadOnly": None, "Type": None} for r in rows)

    def test_walk_enumerates_subtree(self, network, agent, host):
        from repro.agents import snmp as wire
        from repro.drivers.snmp_driver import SnmpDriver
        from repro.dbapi.url import JdbcUrl

        driver = SnmpDriver(network, gateway_host="gateway")
        url = JdbcUrl.parse("jdbc:snmp://n0/x")
        entries = driver.walk(url, wire.HR_STORAGE_DESCR)
        assert len(entries) == len(host.spec.filesystems)
        assert [suffix for suffix, _ in entries] == [
            (i + 1,) for i in range(len(entries))
        ]

    def test_walk_of_empty_subtree(self, network, agent):
        from repro.drivers.snmp_driver import SnmpDriver
        from repro.dbapi.url import JdbcUrl

        driver = SnmpDriver(network, gateway_host="gateway")
        entries = driver.walk(JdbcUrl.parse("jdbc:snmp://n0/x"), (1, 3, 9, 9, 9))
        assert entries == []


class TestProcessTable:
    def test_one_row_per_process(self, conn, host, network):
        rows = query(conn, "SELECT PID, Name, State FROM Process").to_dicts()
        snap = host.snapshot(network.clock.now())
        assert len(rows) == len(snap["processes"])

    def test_values_match_host_model(self, conn, host, network):
        rows = query(
            conn, "SELECT PID, Name, CPUPercent, MemoryPercent FROM Process"
        ).to_dicts()
        snap = host.snapshot(network.clock.now())
        by_pid = {p["pid"]: p for p in snap["processes"]}
        for r in rows:
            p = by_pid[r["PID"]]
            assert r["Name"] == p["name"]
            assert r["CPUPercent"] == pytest.approx(p["cpu_percent"], abs=0.1)
            assert r["MemoryPercent"] == pytest.approx(p["mem_percent"], abs=0.1)

    def test_state_decoded(self, conn):
        rows = query(conn, "SELECT State FROM Process").to_dicts()
        assert all(r["State"] in ("R", "S", "D", "Z") for r in rows)

    def test_owner_null(self, conn):
        rows = query(conn, "SELECT Owner FROM Process").to_dicts()
        assert all(r["Owner"] is None for r in rows)

    def test_where_on_cpu(self, conn):
        rows = query(conn, "SELECT PID, CPUPercent FROM Process WHERE CPUPercent > 15").to_dicts()
        assert all(r["CPUPercent"] > 15 for r in rows)

    def test_table_tracks_process_churn(self, conn, network):
        before = {r["PID"] for r in query(conn, "SELECT PID FROM Process").to_dicts()}
        network.clock.advance(120.0)  # several 30s plist windows later
        after = {r["PID"] for r in query(conn, "SELECT PID FROM Process").to_dicts()}
        assert before != after  # jobs came and went


class TestBulkWalk:
    @pytest.fixture
    def driver(self, network):
        from repro.drivers.snmp_driver import SnmpDriver

        return SnmpDriver(network, gateway_host="gateway")

    @pytest.fixture
    def url(self):
        from repro.dbapi.url import JdbcUrl

        return JdbcUrl.parse("jdbc:snmp://n0/x")

    def test_bulk_matches_getnext_walk(self, network, agent, driver, url):
        from repro.agents.snmp import HR_STORAGE_DESCR

        walked = driver.walk(url, HR_STORAGE_DESCR)
        bulked = driver.bulk_walk(url, HR_STORAGE_DESCR, max_repetitions=16)
        assert walked == bulked

    def test_bulk_uses_fewer_round_trips(self, network, agent, driver, url):
        from repro.agents.snmp import HR_STORAGE_DESCR

        network.stats.reset()
        driver.walk(url, HR_STORAGE_DESCR)
        getnext_requests = network.stats.requests
        network.stats.reset()
        driver.bulk_walk(url, HR_STORAGE_DESCR, max_repetitions=16)
        bulk_requests = network.stats.requests
        assert bulk_requests < getnext_requests

    def test_bulk_respects_repetition_chunking(self, network, agent, driver, url):
        """With max_repetitions=1 the bulk walk degenerates to GETNEXT."""
        from repro.agents.snmp import HR_STORAGE_DESCR

        entries = driver.bulk_walk(url, HR_STORAGE_DESCR, max_repetitions=1)
        assert [s for s, _ in entries] == [
            (i + 1,) for i in range(len(entries))
        ]

    def test_bulk_empty_subtree(self, network, agent, driver, url):
        assert driver.bulk_walk(url, (1, 3, 9, 9, 9)) == []

    def test_bad_repetitions_rejected(self, network, agent, driver, url):
        from repro.dbapi.exceptions import SQLException

        with pytest.raises(SQLException):
            driver.bulk_walk(url, (1, 3), max_repetitions=0)

    def test_agent_getbulk_pdu_direct(self, network, agent):
        """The agent answers a raw GETBULK with successive varbinds."""
        from repro.agents import snmp as S

        msg = S.SnmpMessage(
            1, "public", S.TAG_GETBULK, 5, 0, 3, (S.VarBind((1, 3)),)
        )
        resp = S.SnmpMessage.decode(
            network.request("gateway", agent.address, msg.encode())
        )
        assert resp.error_status == S.ERR_NONE
        assert len(resp.varbinds) == 3
        oids = [vb.oid for vb in resp.varbinds]
        assert oids == sorted(oids)


class TestBadReplies:
    def test_undecodable_response_is_a_bad_reply(self, network, agent, conn):
        """Garbage where BER should be is ``SQLDataException`` — typed by
        the DDK's one wrapper like any decoder failure (PR 21) — not the
        ``SQLConnectionException`` the driver's private ``SnmpCodecError``
        catch used to raise: the connection worked, the data did not."""
        from repro.dbapi.exceptions import SQLDataException

        network.close(agent.address)
        network.listen(agent.address, lambda payload, src: b"\x30\x03junk")
        with pytest.raises(SQLDataException, match="JDBC-SNMP: bad reply from"):
            query(conn, "SELECT CPUCount FROM Processor")


class TestCommunityAuth:
    def test_wrong_community_fails_connect(self, network, host):
        SnmpAgent(host, network, community="secret", port=1161)
        driver = SnmpDriver(network, gateway_host="gateway")
        from repro.dbapi.exceptions import SQLConnectionException

        with pytest.raises(SQLConnectionException):
            driver.connect("jdbc:snmp://n0:1161/x?community=public")

    def test_correct_community_from_url_params(self, network, host):
        SnmpAgent(host, network, community="secret", port=1161)
        driver = SnmpDriver(network, gateway_host="gateway")
        conn = driver.connect("jdbc:snmp://n0:1161/x?community=secret")
        assert query(conn, "SELECT HostName FROM Host").to_dicts()[0]["HostName"] == "n0"
