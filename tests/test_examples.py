"""Guard tests: every shipped example must run to completion.

The examples double as living documentation; a refactor that breaks one
should fail CI, not a reader.  Each main() is executed in-process with
its stdout captured and spot-checked.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


def run_example(name: str, capsys) -> str:
    module = importlib.import_module(name)
    try:
        module.main()
    finally:
        # Examples build global-ish state (agents bound to a network);
        # drop the module so a re-import is fresh.
        sys.modules.pop(name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "fine-grained source: SNMP" in out
    assert "from_cache=True" in out
    assert "historical rows recorded" in out


def test_multi_site_monitoring(capsys):
    out = run_example("multi_site_monitoring", capsys)
    assert "site-c: gateway" in out
    assert "wan requests: 0" in out       # cached repeat
    assert "least-loaded host" in out


def test_event_alerts(capsys):
    out = run_example("event_alerts", capsys)
    assert "traps received=" in out
    assert "alert(s)" in out
    assert "native SNMP trap" in out


def test_custom_driver_plugin(capsys):
    out = run_example("custom_driver_plugin", capsys)
    assert "JDBC-EnvSensor" in out
    assert "TemperatureC" in out
    assert "candidates: JDBC-SNMP, JDBC-EnvSensor" in out


def test_operations_center(capsys):
    out = run_example("operations_center", capsys)
    assert "events archived centrally:" in out
    assert "noisiest hosts" in out
    assert "GET /alerts -> 200" in out
    # Every servlet route answers, and the grm:// driver serves the
    # gateway's own metrics as a GLUE group.
    pages = [line.split()[1] for line in out.splitlines() if line.strip().startswith("GET ")]
    assert len(pages) == 18 and {"/", "/report", "/plot", "/query"} <= set(pages)
    assert all(" -> 200 (" in line for line in out.splitlines() if "GET /" in line)
    assert "requests.queries (counter) =" in out


def test_scheduler_integration(capsys):
    out = run_example("scheduler_integration", capsys)
    assert "->" in out                     # placements happened
    assert "served from cache" in out
    # Every job found a home on this testbed.
    assert "NO HOST FITS" not in out
