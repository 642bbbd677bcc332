"""The dual run: its comparator, the ``racecheck`` declaration, its CLI."""

from repro.scenario import Evidence, ScenarioReport, _first_diff_line, compare, run
from repro.scenarios import CHAOS, CRASHTEST, RACECHECK

# One shared small run: the harness builds four gateways (2 runs x the
# dual capture), so tests that only inspect the report reuse this.
_REPORT = None


def small_report():
    global _REPORT
    if _REPORT is None:
        _REPORT = run(RACECHECK, seed=0, rounds=6, warmup_rounds=5)
    return _REPORT


class TestHarness:
    def test_standard_scenario_is_clean(self):
        report = small_report()
        assert report.race_findings == []
        assert report.violations["replay_identity"] == []
        assert report.ok

    def test_all_three_streams_were_compared(self):
        report = small_report()
        assert report.compared["steps"] == 6
        assert report.compared["traces"] > 0
        assert report.compared["wal_frames"] > 0

    def test_detector_actually_observed_accesses(self):
        assert small_report().race_accesses > 0

    def test_format_and_as_dict(self):
        report = small_report()
        text = report.format()
        assert "replay identity: OK" in text
        d = report.as_dict()
        assert d["ok"] is True
        assert d["seed"] == 0
        assert d["race_accesses"] == report.race_accesses


class TestBisection:
    def divergence(self, a, b):
        return compare(a, b)[1]

    def test_identical_captures_have_no_divergence(self):
        a = Evidence(step_digests=["x", "y"], trace_renders=["t"], wal_frames=["f"])
        b = Evidence(step_digests=["x", "y"], trace_renders=["t"], wal_frames=["f"])
        assert compare(a, b) == ({"steps": 2, "traces": 1, "wal_frames": 1}, [])

    def test_first_diverging_round_named(self):
        a = Evidence(step_digests=["x", "y", "z"])
        b = Evidence(step_digests=["x", "Q", "R"])
        (d,) = self.divergence(a, b)
        assert d.startswith("step 1:")

    def test_first_diverging_trace_line_named(self):
        a = Evidence(trace_renders=["same\nleft\nrest"])
        b = Evidence(trace_renders=["same\nright\nrest"])
        (d,) = self.divergence(a, b)
        assert "trace 0 line 2" in d
        assert "'left'" in d and "'right'" in d

    def test_first_diverging_wal_frame_named(self):
        a = Evidence(wal_frames=["f0", "f1", "f2"])
        b = Evidence(wal_frames=["f0", "XX", "f2"])
        (d,) = self.divergence(a, b)
        assert d.startswith("WAL frame 1:")

    def test_length_mismatches_reported(self):
        a = Evidence(trace_renders=["t"], wal_frames=["f", "g"])
        b = Evidence(trace_renders=["t", "u"], wal_frames=["f"])
        found = self.divergence(a, b)
        assert any("trace count differs" in d for d in found)
        assert any("WAL frame count differs" in d for d in found)

    def test_wal_tail_mismatch_reported(self):
        a = Evidence(wal_tail="clean")
        b = Evidence(wal_tail="torn")
        (d,) = self.divergence(a, b)
        assert "tail" in d

    def test_divergent_report_is_not_ok(self):
        a = Evidence(step_digests=["x"])
        b = Evidence(step_digests=["y"])
        report = ScenarioReport("racecheck", 0, {}, template=("dual run",))
        report.compared, report.violations["replay_identity"] = compare(a, b)
        assert not report.ok
        assert "DIVERGENCE" in report.format()


class TestFirstDiffLine:
    def test_middle_line(self):
        assert _first_diff_line("a\nb\nc", "a\nB\nc") == (2, "b", "B")

    def test_trailing_extra_line(self):
        assert _first_diff_line("a", "a\nb") == (2, "<absent>", "b")


class TestCli:
    def test_racecheck_exits_zero_on_clean_run(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["racecheck", "--rounds", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay identity: OK" in out

    def test_seed_list_runs_each_seed(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["racecheck", "--seeds", "0,1", "--rounds", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=0" in out and "seed=1" in out


class TestChaosIntegration:
    def test_chaos_race_detect_is_transparent(self):
        plain = run(CHAOS, seed=3, rounds=6, warmup_rounds=5)
        detected = run(CHAOS, seed=3, rounds=6, warmup_rounds=5, race_detect=True)
        assert detected.race_findings == []
        assert detected.race_accesses > 0
        # Detection must not perturb the run: same replay signature.
        assert detected.signature == plain.signature
        assert plain.race_accesses == 0


class TestCrashtestIntegration:
    def test_crashtest_race_detect_is_transparent(self):
        plain = run(CRASHTEST, seed=1, cycles=2, rounds=3)
        detected = run(CRASHTEST, seed=1, cycles=2, rounds=3, race_detect=True)
        assert detected.race_findings == []
        assert detected.race_accesses > 0
        assert detected.signature == plain.signature
        assert detected.ok
