"""Unit tests for site reports over history."""

import pytest

from repro.web.console import Console
from repro.web.reports import capacity_report, utilisation_report
from tests.history_rows import as_dicts


@pytest.fixture
def polled_site(site):
    """Site with several Processor/MainMemory/FileSystem samples recorded."""
    gw = site.gateway
    snmp_urls = [u for u in site.source_urls if u.startswith("jdbc:snmp")]
    for _ in range(4):
        gw.query(snmp_urls, "SELECT * FROM Processor")
        gw.query(snmp_urls, "SELECT * FROM MainMemory")
        gw.query(snmp_urls, "SELECT * FROM FileSystem")
        site.clock.advance(15.0)
    return site


class TestUtilisation:
    def test_one_entry_per_host(self, polled_site):
        report = utilisation_report(polled_site.gateway)
        assert [e.host for e in report] == polled_site.host_names()

    def test_statistics_consistent(self, polled_site):
        for entry in utilisation_report(polled_site.gateway):
            assert entry.samples == 4
            assert entry.load_min <= entry.load_avg <= entry.load_max
            assert entry.util_avg is not None and 0 <= entry.util_avg <= 100

    def test_since_narrows_window(self, polled_site):
        cut = polled_site.clock.now() - 20.0
        report = utilisation_report(polled_site.gateway, since=cut)
        assert all(e.samples <= 2 for e in report)

    def test_empty_history(self, site):
        assert utilisation_report(site.gateway) == []

    def test_format_line(self, polled_site):
        line = utilisation_report(polled_site.gateway)[0].format()
        assert "load" in line and "cpu" in line


class TestCapacity:
    def test_totals_match_specs(self, polled_site):
        summary = capacity_report(polled_site.gateway)
        hosts = polled_site.hosts
        assert summary.hosts == len(hosts)
        assert summary.total_cpus == sum(h.spec.cpu_count for h in hosts)
        assert summary.total_ram_mb == pytest.approx(
            sum(h.spec.ram_mb for h in hosts), rel=0.01
        )
        expected_disk = sum(
            size for h in hosts for (_r, _t, size) in h.spec.filesystems
        )
        assert summary.total_disk_mb == pytest.approx(expected_disk, rel=0.01)

    def test_free_bounded_by_total(self, polled_site):
        summary = capacity_report(polled_site.gateway)
        assert 0 <= summary.free_ram_mb <= summary.total_ram_mb
        assert 0 <= summary.free_disk_mb <= summary.total_disk_mb

    def test_latest_sample_wins(self, polled_site):
        """Capacity must use each host's newest sample, not an average."""
        gw = polled_site.gateway
        before = capacity_report(gw)
        polled_site.clock.advance(600.0)
        urls = [u for u in polled_site.source_urls if u.startswith("jdbc:snmp")]
        gw.query(urls, "SELECT * FROM MainMemory")
        after = capacity_report(gw)
        assert after.total_ram_mb == before.total_ram_mb  # static hardware

    def test_empty_history(self, site):
        summary = capacity_report(site.gateway)
        assert summary.hosts == 0 and summary.total_cpus == 0


class TestReadsGoThroughTheStore:
    """Reports read history through ``HistoryStore.since`` — bisected,
    and the accessor the lane-race detector instruments — never through
    the store's tables."""

    def test_window_is_the_linear_filter_it_replaced(self, polled_site):
        """(Re-aimed: stored rows are tuples, read here through
        ``as_dicts`` — every row, unwindowed.)"""
        gw = polled_site.gateway
        rows = as_dicts(gw.history, "Processor")
        for cut in (None, 0.0, polled_site.clock.now() - 20.0, rows[5]["RecordedAt"], 1e9):
            want: dict[str, list[float]] = {}
            for r in rows:
                if cut is None or (r["RecordedAt"] is not None and r["RecordedAt"] >= cut):
                    want.setdefault(r["HostName"], []).append(float(r["LoadAverage1Min"]))
            got = utilisation_report(gw, since=cut)
            assert [(e.host, e.samples) for e in got] == [
                (h, len(v)) for h, v in sorted(want.items())
            ]
            assert [e.load_avg for e in got] == [
                sum(v) / len(v) for _, v in sorted(want.items())
            ]

    def test_reads_are_noted_for_the_race_detector(self, polled_site):
        from repro.analysis import races

        class Notes:
            def __init__(self):
                self.noted = []

            def note(self, state, key, kind, *, digest=None, site=""):
                self.noted.append((state, key, kind, site))

        with races.activate(Notes()) as notes:
            utilisation_report(polled_site.gateway, since=0.0)
            capacity_report(polled_site.gateway)
        assert notes.noted == [
            ("history", group, "r", "HistoryStore.since")
            for group in ("Processor", "Processor", "MainMemory", "FileSystem")
        ]


class TestAvailability:
    """Per-source reachability is the health tracker's scoreboard and the
    source record's last poll.  The sampling ``AvailabilityTracker`` was a
    second per-source poll counter beside them and is gone; these tests
    keep their ids and check the same questions against the survivors."""

    def test_counts_poll_outcomes(self, site):
        """One good poll, then one against a dead host: the source record
        keeps the latest outcome, the scoreboard counts both kinds."""
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        source = next(s for s in gw.sources() if str(s.url) == url)
        assert source.last_ok is True
        site.network.set_host_up(site.host_names()[0], False)
        gw.query(url, "SELECT * FROM Host")
        assert source.last_ok is False
        entry = gw.health.scoreboard()[url]
        assert entry["total_successes"] >= 1 and entry["total_failures"] >= 1

    def test_unpolled_sources_absent(self, site):
        """Time alone observes nothing."""
        site.clock.advance(120.0)
        assert site.gateway.health.scoreboard() == {}
        assert all(s.last_polled is None for s in site.gateway.sources())

    def test_same_poll_not_double_counted(self, site):
        """One poll is one set of observations, however long ago it was."""
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        before = gw.health.scoreboard()[url]
        site.clock.advance(120.0)
        assert gw.health.scoreboard()[url] == before

    def test_format(self, site):
        """The console's health panel shows a polled source as up, with no
        failure."""
        gw = site.gateway
        url = site.url_for("snmp")
        gw.query(url, "SELECT * FROM Host")
        line = next(
            line for line in Console(gw).health_panel().splitlines() if url in line
        )
        assert ": up" in line and "fail=0" in line
