"""Driver conformance checker: AST rules and live-object introspection."""

import pytest

from repro.analysis.conformance import (
    check_driver,
    check_driver_class,
    check_source,
    clear_module_cache,
)
from repro.analysis.findings import Severity
from repro.analysis.rules import all_rules, rule_table, rules_by_id


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_module_cache()
    yield
    clear_module_cache()


#: The acceptance fixture: one driver committing exactly three sins —
#: a wall-clock call, an exchange signature missing `select`, and a
#: non-SQL exception escaping an entry point (its own `probe`).
BAD_DRIVER = '''
import time

from repro.drivers.base import GridRmDriver


class BadDriver(GridRmDriver):
    protocol = "bad"

    def build_mapping(self):
        return None

    def probe(self, url, *, timeout=1.0):
        started = time.time()
        raise RuntimeError("native protocol blew up")

    def exchange(self, url, group):
        return [(yield "READ")]
'''


class TestAcceptanceFixture:
    def test_exactly_three_findings(self):
        findings = check_source(BAD_DRIVER, "bad_driver.py")
        assert len(findings) == 3
        assert sorted(f.rule_id for f in findings) == [
            "GRM101",
            "GRM104",
            "GRM105",
        ]

    def test_finding_details(self):
        by_id = {f.rule_id: f for f in check_source(BAD_DRIVER, "bad_driver.py")}
        assert by_id["GRM101"].symbol == "time.time"
        assert by_id["GRM104"].symbol == "BadDriver.exchange"
        assert "select" in by_id["GRM104"].message
        assert by_id["GRM105"].symbol == "BadDriver.probe:RuntimeError"
        assert all(f.severity is Severity.ERROR for f in by_id.values())
        assert all(f.path == "bad_driver.py" for f in by_id.values())


class TestSourceRules:
    def test_clean_driver_is_clean(self):
        clean = """
from repro.drivers.base import GridRmDriver
from repro.dbapi.exceptions import SQLDataException


class CleanDriver(GridRmDriver):
    protocol = "clean"

    def build_mapping(self):
        return None

    def hello(self, url):
        return "PONG" in (yield "PING")

    def exchange(self, url, group, select):
        if group != "Thing":
            raise SQLDataException("nothing to serve")
        return [{"reading": float((yield "READ"))}]
"""
        assert check_source(clean, "clean.py") == []

    def test_syntax_error_is_grm100(self):
        findings = check_source("def broken(:\n", "nope.py")
        assert [f.rule_id for f in findings] == ["GRM100"]
        assert findings[0].severity is Severity.ERROR

    def test_wall_clock_import_flagged(self):
        findings = check_source("from time import sleep\n", "x.py")
        assert [f.rule_id for f in findings] == ["GRM101"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert [f.rule_id for f in check_source(src, "x.py")] == ["GRM101"]

    def test_raw_socket_flagged(self):
        assert [
            f.rule_id for f in check_source("import socket\n", "x.py")
        ] == ["GRM102"]

    def test_blanket_except_flagged(self):
        src = "try:\n    pass\nexcept Exception:\n    pass\n"
        assert [f.rule_id for f in check_source(src, "x.py")] == ["GRM103"]

    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert [f.rule_id for f in check_source(src, "x.py")] == ["GRM103"]

    def test_cleanup_and_reraise_exempt(self):
        src = (
            "try:\n"
            "    pass\n"
            "except BaseException:\n"
            "    cleanup = True\n"
            "    raise\n"
        )
        assert check_source(src, "x.py") == []

    def test_trailing_defaulted_params_tolerated(self):
        src = """
class D(GridRmDriver):
    def probe(self, url, verbose=False):
        return True
"""
        assert check_source(src, "x.py") == []

    def test_star_args_rejected(self):
        src = """
class D(GridRmDriver):
    def probe(self, url, *extras):
        return True
"""
        assert [f.rule_id for f in check_source(src, "x.py")] == ["GRM104"]

    def test_bare_reraise_in_entry_point_allowed(self):
        src = """
class D(GridRmDriver):
    def probe(self, url):
        try:
            return True
        except PortClosedError:
            raise
"""
        assert check_source(src, "x.py") == []

    def test_non_driver_class_not_signature_checked(self):
        src = """
class Helper:
    def probe(self, completely, different, shape):
        return None
"""
        assert check_source(src, "x.py") == []

    def test_transitive_subclass_is_checked(self):
        src = """
class Base(GridRmDriver):
    protocol = "b"

class Leaf(Base):
    def probe(self, wrong_name):
        raise ValueError("leak")
"""
        ids = sorted(f.rule_id for f in check_source(src, "x.py"))
        assert ids == ["GRM104", "GRM105"]


class TestLiveIntrospection:
    def test_shipped_drivers_conform(self):
        from repro.drivers import default_driver_set
        from repro.simnet.clock import VirtualClock
        from repro.simnet.network import Network

        network = Network(VirtualClock())
        network.add_host("gw", site="s")
        for driver in default_driver_set(network, gateway_host="gw"):
            assert check_driver(driver) == [], driver.name()

    def test_missing_override_is_grm106(self):
        from repro.drivers.base import GridRmDriver

        class Hollow(GridRmDriver):
            protocol = "hollow"

        findings = check_driver_class(Hollow)
        assert [f.rule_id for f in findings] == ["GRM106"] * 3
        assert [f.symbol for f in findings] == [
            "Hollow.build_mapping", "Hollow.hello", "Hollow.exchange",
        ]

    def test_own_probe_stands_in_for_hello(self):
        """An agent with no wire (``grm://``) answers liveness itself."""
        from repro.drivers.base import GridRmDriver
        from repro.obs.driver import GatewayMetricsDriver

        class Local(GridRmDriver):
            protocol = "local"

            def probe(self, url, *, timeout=1.0):
                return True

        symbols = [f.symbol for f in check_driver_class(Local)]
        assert symbols == ["Local.build_mapping", "Local.exchange"]
        assert check_driver_class(GatewayMetricsDriver) == []

    def test_missing_protocol_is_grm107(self):
        from repro.drivers.base import GridRmDriver

        class NoProto(GridRmDriver):
            def build_mapping(self):
                return None

            def hello(self, url):
                return bool((yield "PING"))

            def exchange(self, url, group, select):
                return [(yield "READ")]

        ids = [f.rule_id for f in check_driver_class(NoProto)]
        assert ids == ["GRM107"]

    def test_bad_runtime_signature_is_grm104(self):
        from repro.drivers.base import GridRmDriver

        class Crooked(GridRmDriver):
            protocol = "crooked"

            def build_mapping(self):
                return None

            def hello(self, target_url):
                return bool((yield "PING"))

            def exchange(self, url, group, select):
                return [(yield "READ")]

        ids = [f.rule_id for f in check_driver_class(Crooked)]
        assert ids == ["GRM104"]

    def test_non_gridrm_class_skipped(self):
        class Foreign:
            def probe(self, a, b, c):
                return None

        assert check_driver_class(Foreign) == []


class TestRegistry:
    def test_all_rules_cover_expected_ids(self):
        ids = [r.rule_id for r in all_rules()]
        assert ids == sorted(ids)
        assert {"GRM101", "GRM102", "GRM103", "GRM104", "GRM105"} <= set(ids)

    def test_rules_by_id_unknown_raises(self):
        with pytest.raises(KeyError):
            rules_by_id(["GRM999"])

    def test_rule_table_has_titles(self):
        for rid, severity, title in rule_table():
            assert rid.startswith("GRM")
            assert severity in ("info", "warning", "error")
            assert title
