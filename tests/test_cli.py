"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuery:
    def test_basic_query(self, capsys):
        code, out, err = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--hosts", "2",
            "--warmup", "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "HostName"
        assert "1 ok" in err

    def test_query_other_kind(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "SELECT HostName, LoadAverage1Min FROM Processor",
            "--kind", "ganglia",
            "--hosts", "3",
            "--warmup", "10",
        )
        assert code == 0
        assert len(out.splitlines()) == 4  # header + 3 hosts

    def test_query_explicit_url(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--url", "jdbc:snmp://site-a-n00/x",
            "--hosts", "1",
            "--warmup", "5",
        )
        assert code == 0
        assert "site-a-n00" in out

    def test_failed_query_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--url", "jdbc:snmp://no-such-host/x",
            "--hosts", "1",
            "--warmup", "5",
        )
        assert code == 1
        assert "failed" in err

    def test_breaker_stale_answer_is_explained(self, capsys, monkeypatch):
        """A stale answer still exits 0, but says why on stderr."""
        import repro.cli as cli
        from repro.core.health import BreakerState

        url, sql = "jdbc:snmp://site-a-n00/x", "SELECT HostName FROM Host"
        build = cli.build_testbed

        def tripped(**kwargs):
            network, (site,) = build(**kwargs)
            gw = site.gateway
            network.clock.advance(5.0)
            assert gw.query(url, sql).ok_sources == 1  # fills the cache
            site.fail_host("site-a-n00")
            network.clock.advance(gw.policy.query_cache_ttl + 1)
            for _ in range(10):
                if gw.health.state(url) is BreakerState.OPEN:
                    break
                gw.query(url, sql)
            return network, (site,)

        monkeypatch.setattr(cli, "build_testbed", tripped)
        code, out, err = run(
            capsys, "query", sql, "--url", url, "--hosts", "1", "--warmup", "0"
        )
        assert code == 0 and "site-a-n00" in out
        assert f"# stale {url}" in err.splitlines()

    def test_unknown_agent_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "SELECT 1 FROM Host", "--agents", "carrierpigeon"])


class TestOtherCommands:
    def test_demo(self, capsys):
        code, out, _ = run(capsys, "demo", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "GridRM Gateway" in out and "JDBC-SNMP" in out

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "tree", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "[ok]" in out

    def test_discover(self, capsys):
        code, out, err = run(capsys, "discover", "--hosts", "2", "--warmup", "5")
        assert code == 0
        assert "jdbc:snmp://" in out
        assert "found" in err

    def test_schema_text(self, capsys):
        code, out, _ = run(capsys, "schema")
        assert code == 0
        assert "Processor" in out and "LoadAverage1Min" in out

    def test_schema_xml(self, capsys):
        code, out, _ = run(capsys, "schema", "--xml")
        assert code == 0
        assert out.startswith("<?xml") and "<GlueSchema" in out

    def test_report(self, capsys):
        code, out, _ = run(capsys, "report", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "Site capacity:" in out and "hosts=2" in out
        assert "Host utilisation:" in out

    def test_experiments(self, capsys):
        code, out, _ = run(capsys, "experiments")
        assert code == 0
        assert "benchmarks/" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
