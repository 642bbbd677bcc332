"""Unit tests for the Ganglia agent and its XML."""

import pytest

from repro.agents.ganglia import GangliaAgent
from repro.drivers.ganglia_driver import GangliaXmlError, parse_ganglia_xml
from repro.simnet.network import Address


@pytest.fixture
def agent(network, hosts):
    return GangliaAgent("cluster-x", hosts, network)


class TestAgent:
    def test_requires_hosts(self, network):
        with pytest.raises(ValueError):
            GangliaAgent("empty", [], network)

    def test_binds_first_host_by_default(self, agent, hosts):
        assert agent.address.host == hosts[0].spec.name

    def test_any_request_returns_full_dump(self, network, agent, hosts):
        xml = network.request("gateway", agent.address, "anything")
        assert xml.count("<HOST ") == len(hosts)
        assert "<GANGLIA_XML" in xml and "</GANGLIA_XML>" in xml

    def test_dump_is_large(self, network, agent):
        xml = network.request("gateway", agent.address, "x")
        assert len(xml) > 5000  # coarse-grained: kilobytes per query

    def test_values_track_virtual_time(self, network, agent):
        a = network.request("gateway", agent.address, "x")
        network.clock.advance(600.0)
        b = network.request("gateway", agent.address, "x")
        assert a != b

    def test_request_counter(self, network, agent):
        network.request("gateway", agent.address, "x")
        network.request("gateway", agent.address, "x")
        assert agent.requests_served == 2


class TestXmlShape:
    def test_standard_metric_names_present(self, agent):
        xml = agent.render_xml()
        for name in ("load_one", "cpu_num", "mem_total", "bytes_in", "os_name"):
            assert f'NAME="{name}"' in xml

    def test_memory_reported_in_kb(self, agent, hosts):
        records = parse_ganglia_xml(agent.render_xml())
        by_host = {r["_host"]: r for r in records}
        h = hosts[0]
        assert by_host[h.spec.name]["mem_total"] == int(h.spec.ram_mb * 1024)

    def test_cluster_attribute(self, agent):
        records = parse_ganglia_xml(agent.render_xml())
        assert all(r["_cluster"] == "cluster-x" for r in records)


class TestParser:
    def test_parses_agent_output(self, agent, hosts):
        records = parse_ganglia_xml(agent.render_xml())
        assert len(records) == len(hosts)
        for r in records:
            assert isinstance(r["load_one"], float)
            assert isinstance(r["cpu_num"], int)
            assert isinstance(r["os_name"], str)

    def test_metric_outside_host_rejected(self):
        with pytest.raises(GangliaXmlError):
            parse_ganglia_xml('<METRIC NAME="x" VAL="1" TYPE="float"/>')

    def test_unterminated_host_rejected(self):
        with pytest.raises(GangliaXmlError):
            parse_ganglia_xml('<HOST NAME="a" IP="" REPORTED="0">')

    def test_nested_host_rejected(self):
        with pytest.raises(GangliaXmlError):
            parse_ganglia_xml(
                '<HOST NAME="a" IP="" REPORTED="0"><HOST NAME="b" IP="" REPORTED="0">'
            )

    def test_bad_numeric_val_rejected(self):
        """Re-aimed (PR 21): the parser no longer re-types ``float()``'s own
        ``ValueError`` as ``GangliaXmlError`` (itself a ``ValueError``) —
        the DDK types whatever a decoder raises, once, at the driver
        boundary (``tests/test_driver_bad_replies.py``)."""
        xml = (
            '<HOST NAME="a" IP="" REPORTED="0">'
            '<METRIC NAME="load_one" VAL="NaNope" TYPE="float"/></HOST>'
        )
        with pytest.raises(ValueError):
            parse_ganglia_xml(xml)

    def test_empty_input_yields_no_records(self):
        assert parse_ganglia_xml("") == []

    def test_string_metrics_stay_strings(self):
        xml = (
            '<HOST NAME="a" IP="1.2.3.4" REPORTED="7">'
            '<METRIC NAME="os_name" VAL="Linux" TYPE="string"/></HOST>'
        )
        (record,) = parse_ganglia_xml(xml)
        assert record["os_name"] == "Linux"
        assert record["_reported"] == 7.0
