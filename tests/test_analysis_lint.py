"""The lint driver: path walking, baselines, rendering, CLI."""

import json

import pytest

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.linter import (
    iter_python_files,
    lint_paths,
    load_baseline,
    render_flat,
    render_json,
    render_tree,
    summary_line,
    write_baseline,
)
from repro.analysis.rules import rules_by_id
from repro.cli import main as cli_main

DIRTY = "import socket\nimport time\nstarted = time.time()\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "notes.txt").write_text("not python")
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "dirty.cpython-311.py").write_text(DIRTY)
    return tmp_path


class TestWalk:
    def test_only_python_files_outside_pycache(self, tree):
        files = iter_python_files([str(tree)])
        names = [f.rsplit("/", 1)[-1] for f in files]
        assert names == ["clean.py", "dirty.py"]

    def test_explicit_file_kept_as_is(self, tree):
        target = str(tree / "pkg" / "dirty.py")
        assert iter_python_files([target]) == [target]


class TestLintPaths:
    def test_findings_and_scan_count(self, tree):
        report = lint_paths([str(tree)])
        assert report.files_scanned == 2
        assert sorted(f.rule_id for f in report.findings) == [
            "GRM101",
            "GRM102",
        ]

    def test_rule_subset(self, tree):
        report = lint_paths([str(tree)], rules=rules_by_id(["GRM102"]))
        assert [f.rule_id for f in report.findings] == ["GRM102"]

    def test_repo_src_is_clean(self):
        report = lint_paths(["src"])
        assert report.findings == [], render_flat(report)

    def test_walk_covers_storage_and_harnesses(self):
        """The determinism sanitizer's blast radius includes the
        durability layer and the scenario runner with its declarations."""
        report = lint_paths(
            ["src/repro/storage", "src/repro/scenario.py", "src/repro/scenarios.py"]
        )
        assert report.files_scanned >= 5
        assert report.findings == [], render_flat(report)

    #: A manager that binds one instrument in ``__init__`` and resolves
    #: another by name while serving.
    LATE_LOOKUP = (
        "class Manager:\n"
        "    def __init__(self, registry):\n"
        "        self.registry = registry\n"
        "        self._hits = registry.counter('m.hits')\n"
        "    def serve(self):\n"
        "        self._hits.inc()\n"
        "        self.registry.histogram('m.latency').record(0.1)\n"
    )

    def test_instrument_lookup_outside_init_is_grm108(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "manager.py").write_text(self.LATE_LOOKUP)
        report = lint_paths([str(tmp_path)])
        assert [(f.rule_id, f.symbol, f.line) for f in report.findings] == [
            ("GRM108", "serve:histogram", 7)
        ]

    def test_grm108_covers_serving_packages_only(self, tmp_path):
        """Web panels and scripts may look instruments up; the registry
        module itself has to."""
        for below in ("repro/web/panel.py", "repro/obs/metrics.py", "script.py"):
            path = tmp_path / below
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.LATE_LOOKUP)
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 3 and report.findings == []

    #: The DDK's trust boundary, in miniature: one method whose job is a
    #: blanket ``except``, next to one that has no such excuse.
    WRAPPER = (
        "class GridRmDriver:\n"
        "    def _typed(self, url, fn, *args):\n"
        "        try:\n"
        "            return fn(*args)\n"
        "        except Exception as exc:\n"
        "            raise ValueError(url) from exc\n"
        "    def other(self, fn):\n"
        "        try:\n"
        "            return fn()\n"
        "        except Exception:\n"
        "            return None\n"
    )

    def test_grm103_exempts_the_trust_boundary_by_qualified_name(self, tmp_path):
        (tmp_path / "repro" / "drivers").mkdir(parents=True)
        (tmp_path / "repro" / "drivers" / "base.py").write_text(self.WRAPPER)
        report = lint_paths([str(tmp_path)], rules=rules_by_id(["GRM103"]))
        assert [(f.rule_id, f.line) for f in report.findings] == [("GRM103", 10)]

    def test_grm103_exemption_is_not_a_name_anyone_can_take(self, tmp_path):
        """The same source anywhere else — another module, or another
        class of that module — is two findings."""
        (tmp_path / "repro" / "drivers").mkdir(parents=True)
        (tmp_path / "repro" / "drivers" / "mine_driver.py").write_text(self.WRAPPER)
        (tmp_path / "repro" / "drivers" / "base.py").write_text(
            self.WRAPPER.replace("class GridRmDriver", "class Helper")
        )
        report = lint_paths([str(tmp_path)], rules=rules_by_id(["GRM103"]))
        assert sorted(f.line for f in report.findings) == [5, 5, 10, 10]

    def test_driver_doing_its_own_io_is_grm102(self, tmp_path):
        """A driver that defines fetch_group, or calls .request() anywhere
        in its class body, bypasses the DDK's one I/O site."""
        (tmp_path / "plugin.py").write_text(
            "class D(GridRmDriver):\n"
            "    def hello(self, url):\n"
            "        return bool(self.network.request('gw', url, 'PING'))\n"
            "    def exchange(self, url, group, select):\n"
            "        return [(yield 'READ')]\n"
            "    def fetch_group(self, connection, group, select):\n"
            "        return [connection.request('READ')]\n"
            "class NotADriver:\n"
            "    def fetch_group(self, connection):\n"
            "        return connection.request('x')\n"
        )
        report = lint_paths([str(tmp_path)], rules=rules_by_id(["GRM102"]))
        assert [(f.symbol, f.line) for f in report.findings] == [
            ("D.request", 3),
            ("D.fetch_group", 6),
            ("D.request", 7),
        ]

    def test_unreadable_file_is_grm100(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# caf\xe9\nx = 1\n")
        report = lint_paths([str(bad)])
        assert [f.rule_id for f in report.findings] == ["GRM100"]


class TestBaseline:
    def test_roundtrip_suppresses_exactly_recorded(self, tree, tmp_path):
        baseline_file = tmp_path / "baseline.txt"
        first = lint_paths([str(tree)])
        n = write_baseline(str(baseline_file), first)
        assert n == len({f.fingerprint for f in first.findings})

        second = lint_paths(
            [str(tree)], baseline=load_baseline(str(baseline_file))
        )
        assert second.findings == []
        assert second.suppressed == len(first.findings)

        # A NEW violation still surfaces through the baseline.
        (tree / "pkg" / "fresh.py").write_text("import socket\n")
        third = lint_paths(
            [str(tree)], baseline=load_baseline(str(baseline_file))
        )
        assert [f.rule_id for f in third.findings] == ["GRM102"]
        assert "fresh.py" in third.findings[0].path

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.txt")) == set()

    def test_fingerprints_have_no_line_numbers(self):
        f = Finding(
            rule_id="GRM101",
            severity=Severity.ERROR,
            message="m",
            path="a.py",
            line=42,
            symbol="time.time",
        )
        assert f.fingerprint == "GRM101:a.py:time.time"


class TestRendering:
    def test_tree_groups_by_file(self, tree):
        text = render_tree(lint_paths([str(tree)]))
        assert "dirty.py" in text
        assert "[xx] GRM101" in text and "[xx] GRM102" in text

    def test_tree_clean_marker(self):
        assert "(clean)" in render_tree(AnalysisReport(files_scanned=3))

    def test_flat_is_one_per_line(self, tree):
        report = lint_paths([str(tree)])
        lines = render_flat(report).splitlines()
        assert len(lines) == len(report.findings) + 1  # + summary

    def test_summary_counts_baselined(self):
        report = AnalysisReport(files_scanned=1, suppressed=2)
        assert "2 baselined" in summary_line(report)


class TestJsonRendering:
    def test_json_is_stable_and_sorted(self, tree):
        report = lint_paths([str(tree)])
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 2
        # Canonical finding order: (path, line, rule_id, message).
        assert [f["rule_id"] for f in payload["findings"]] == ["GRM102", "GRM101"]
        keys = [(f["path"], f["line"], f["rule_id"]) for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_json_round_trips_every_finding_field(self, tree):
        report = lint_paths([str(tree)])
        payload = json.loads(render_json(report))
        first = payload["findings"][0]
        assert set(first) == {
            "rule_id",
            "severity",
            "path",
            "line",
            "symbol",
            "message",
            "fingerprint",
        }
        assert first["severity"] in ("error", "warning", "info")

    def test_json_rendering_is_byte_deterministic(self, tree):
        report = lint_paths([str(tree)])
        assert render_json(report) == render_json(lint_paths([str(tree)]))

    def test_tree_and_flat_renders_unchanged_by_json_addition(self, tree):
        # The human formats must stay byte-identical whether or not
        # anyone ever calls render_json on the same report.
        report = lint_paths([str(tree)])
        before_tree = render_tree(report)
        before_flat = render_flat(report)
        render_json(report)
        assert render_tree(report) == before_tree
        assert render_flat(report) == before_flat


class TestCli:
    def test_lint_dirty_exits_1(self, tree, capsys):
        rc = cli_main(["lint", str(tree)])
        assert rc == 1
        assert "GRM102" in capsys.readouterr().out

    def test_lint_clean_exits_0(self, tree, capsys):
        rc = cli_main(["lint", str(tree / "pkg" / "clean.py")])
        assert rc == 0

    def test_lint_repo_src_exits_0(self):
        assert cli_main(["lint", "src"]) == 0

    def test_write_then_use_baseline(self, tree, tmp_path, capsys):
        baseline = str(tmp_path / "b.txt")
        assert cli_main(["lint", str(tree), "--write-baseline", baseline]) == 0
        assert cli_main(["lint", str(tree), "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_rules_filter(self, tree, capsys):
        rc = cli_main(["lint", str(tree), "--rules", "grm102"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "GRM102" in out and "GRM101" not in out

    def test_unknown_rule_id_rejected(self, tree):
        with pytest.raises(SystemExit):
            cli_main(["lint", str(tree), "--rules", "GRM999"])

    def test_flat_format(self, tree, capsys):
        cli_main(["lint", str(tree), "--format", "flat"])
        out = capsys.readouterr().out
        assert "[error] GRM101" in out

    def test_json_format(self, tree, capsys):
        rc = cli_main(["lint", str(tree), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in payload["findings"]] == ["GRM102", "GRM101"]

    def test_json_format_clean_exits_0(self, tree, capsys):
        rc = cli_main(["lint", str(tree / "pkg" / "clean.py"), "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []
