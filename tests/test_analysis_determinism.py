"""The GRM50x determinism sanitizer rules, and registry coverage."""

import ast
import re

import pytest

from repro.analysis.conformance import check_source
from repro.analysis.determinism import DETERMINISM_RULE_IDS
from repro.analysis.races import RACE_RULE_DOCS, RACE_RULE_IDS
from repro.analysis.rules import ModuleContext, all_rules, rule_table, rules_by_id


def run_rule(rule_id, source, path="<test>"):
    module = ModuleContext(path=path, source=source, tree=ast.parse(source))
    (rule,) = rules_by_id([rule_id])
    return list(rule.check(module))


def rule_ids(rule_id, source, path="<test>"):
    return [f.rule_id for f in run_rule(rule_id, source, path)]


#: A path inside a serving package, so GRM108 applies, and below
#: ``repro/``, so GRM109's rows that cover every module do.
CENSUS_PATH = "src/repro/core/census.py"

#: rule id -> (a source the rule flags exactly once, a near miss it
#: passes).  Every registered rule has a row.
CENSUS = {
    "GRM101": (
        "import time\nt = time.monotonic_ns()\n",
        "def f(self, time):\n    return time.time()\n",
    ),
    "GRM102": ("import socket\n", "socket = make()\nsocket.connect(addr)\n"),
    "GRM103": (
        "try:\n    pass\nexcept Exception:\n    pass\n",
        "try:\n    pass\nexcept Exception:\n    raise\n",
    ),
    "GRM104": (
        "class D(GridRmDriver):\n    def hello(url):\n        yield 'PING'\n",
        "class D(GridRmDriver):\n    @staticmethod\n"
        "    def hello(url):\n        yield 'PING'\n",
    ),
    "GRM105": (
        "class D(GridRmDriver):\n    def probe(self, url):\n"
        "        raise RuntimeError(url)\n",
        "class D(GridRmDriver):\n    def probe(self, url):\n"
        "        raise SQLException(url)\n",
    ),
    "GRM108": (
        "class M:\n    def serve(self):\n        registry.counter('m').inc()\n",
        "class M:\n    def __init__(self):\n        registry.counter('m')\n",
    ),
    "GRM109": (
        "def rollup(self):\n    pass\n",
        '# rollup\ndef roll_up(self):\n    """The rollup is gone."""\n',
    ),
    "GRM502": ("import random\nx = random.random()\n", "import random as r\nr.Random(7)\n"),
    "GRM503": (
        "s = {1, 2}\nfor x in s:\n    print(x)\n",
        "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n",
    ),
    "GRM504": ("k = id(object())\n", "out = sorted(xs, key=len)\n"),
    "GRM505": (
        "import os\nb = os.urandom(8)\n",
        "import uuid\nu = uuid.UUID(int=rng.getrandbits(128))\n",
    ),
}


class TestRegistryCoverage:
    """Every GRMxxx id: unique, documented, reachable."""

    def test_ids_are_well_formed_and_unique(self):
        ids = [r.rule_id for r in all_rules()]
        assert len(ids) == len(set(ids))
        for rid in ids:
            assert re.fullmatch(r"GRM\d{3}", rid), rid

    def test_every_rule_is_documented(self):
        for rid, severity, title in rule_table():
            assert title.strip(), f"{rid} has no title"
            assert severity in ("error", "warning", "info")

    def test_determinism_family_registered(self):
        registered = {r.rule_id for r in all_rules()}
        assert set(DETERMINISM_RULE_IDS) <= registered

    def test_race_ids_documented_and_disjoint_from_static(self):
        static = {r.rule_id for r in all_rules()}
        assert not static & set(RACE_RULE_IDS)
        for rid in RACE_RULE_IDS:
            assert re.fullmatch(r"GRM\d{3}", rid), rid
            assert RACE_RULE_DOCS[rid].strip()

    def test_every_determinism_rule_is_reachable(self):
        """One golden positive per determinism rule proves the check body
        runs.  The old GRM501 positive (``time.monotonic_ns``) is now
        GRM101's: GRM101 absorbed GRM501, so one rule owns wall-clock
        reads; the positives are the census rows below."""
        assert set(DETERMINISM_RULE_IDS) <= set(CENSUS)
        assert CENSUS["GRM101"][0] == "import time\nt = time.monotonic_ns()\n"
        for rid in DETERMINISM_RULE_IDS:
            assert rule_ids(rid, CENSUS[rid][0]) == [rid]

    def test_census_covers_every_registered_rule(self):
        """A rule registered without a census row fails here."""
        assert set(CENSUS) == {rid for rid, _, _ in rule_table()}

    @pytest.mark.parametrize("rid", sorted(CENSUS))
    def test_census(self, rid):
        positive, negative = CENSUS[rid]
        assert rule_ids(rid, positive, CENSUS_PATH) == [rid]
        assert run_rule(rid, negative, CENSUS_PATH) == []


class TestExtendedWallClock:
    """GRM501's old cases, re-aimed at GRM101: GRM101 absorbed GRM501,
    so the stdlib's long tail of clock accessors is one wall-clock rule
    with one ``allow-wallclock`` escape."""

    def test_long_tail_accessors_flagged(self):
        src = (
            "import time, os\n"
            "a = time.process_time()\n"
            "b = time.localtime()\n"
            "c = os.times()\n"
        )
        assert rule_ids("GRM101", src) == ["GRM101"] * 3

    def test_date_today_flagged(self):
        src = "from datetime import date\nd = date.today()\n"
        assert rule_ids("GRM101", src) == ["GRM101"]

    def test_virtual_clock_calls_pass(self):
        src = "t = clock.now()\nclock.advance(3.0)\n"
        assert run_rule("GRM101", src) == []

    def test_allowlist_escape_same_line(self):
        src = "import time\nt = time.monotonic_ns()  # grm: allow-wallclock\n"
        assert run_rule("GRM101", src) == []

    def test_allowlist_escape_preceding_comment(self):
        src = (
            "import time\n"
            "# grm: allow-wallclock -- profiling only, not simulation input\n"
            "t = time.process_time()\n"
        )
        assert run_rule("GRM101", src) == []

    def test_wrong_tag_does_not_escape(self):
        src = "import time\nt = time.monotonic_ns()  # grm: allow-random\n"
        assert rule_ids("GRM101", src) == ["GRM101"]


class TestImportResolver:
    """GRM101 / GRM502 / GRM505 read one table through the module's
    imports, so aliases and from-imports reach the same rows, and a name
    that is not an import reaches none."""

    @pytest.mark.parametrize(
        "rid, src",
        [
            ("GRM101", "import time as t\nt.time()\n"),
            ("GRM101", "import time as t\nt.perf_counter()\n"),
            ("GRM101", "from time import time_ns\n"),
            ("GRM101", "from time import monotonic_ns\n"),
            ("GRM101", "from os import times\n"),
            ("GRM505", "import os as o\no.urandom(4)\n"),
            ("GRM505", "import uuid as u\nu.uuid4()\n"),
            ("GRM505", "import random as r\nr.SystemRandom()\n"),
            ("GRM502", "from random import Random as R\nR()\n"),
        ],
    )
    def test_aliased_and_from_imported_uses_are_caught(self, rid, src):
        assert [f.rule_id for f in check_source(src)] == [rid]

    @pytest.mark.parametrize(
        "src",
        [
            "def f(self, time):\n    return time.time()\n",
            "from random import Random as R\nR(7)\n",
            "import random as r\nr.Random(7)\n",
            "t = clock.now()\n",
        ],
    )
    def test_non_imports_and_seeded_factories_pass(self, src):
        assert check_source(src) == []

    def test_from_import_is_one_finding_at_the_import(self):
        src = "from time import perf_counter as pc\na = pc()\nb = pc()\n"
        (finding,) = check_source(src)
        assert (finding.rule_id, finding.line) == ("GRM101", 1)
        assert finding.symbol == "import-time-perf_counter"

class TestUnseededRandom:
    def test_module_level_call_flagged(self):
        assert rule_ids("GRM502", "import random\nx = random.choice(xs)\n") == [
            "GRM502"
        ]

    def test_import_alias_tracked(self):
        src = "import random as rnd\nx = rnd.random()\n"
        assert rule_ids("GRM502", src) == ["GRM502"]

    def test_from_import_flagged(self):
        src = "from random import choice, shuffle\n"
        assert rule_ids("GRM502", src) == ["GRM502"]

    def test_unseeded_constructor_flagged(self):
        assert rule_ids("GRM502", "import random\nr = random.Random()\n") == [
            "GRM502"
        ]
        assert rule_ids(
            "GRM502", "from random import Random\nr = Random()\n"
        ) == ["GRM502"]

    def test_seeded_constructor_passes(self):
        assert run_rule("GRM502", "import random\nr = random.Random(42)\n") == []
        assert run_rule(
            "GRM502", "from random import Random\nr = Random(seed)\n"
        ) == []

    def test_system_random_left_to_grm505(self):
        src = "import random\nr = random.SystemRandom()\n"
        assert run_rule("GRM502", src) == []
        assert rule_ids("GRM505", src) == ["GRM505"]

    def test_allowlist_escape(self):
        src = "import random\nx = random.random()  # grm: allow-random\n"
        assert run_rule("GRM502", src) == []


class TestSetIterationOrder:
    def test_for_loop_over_set_literal(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rule_ids("GRM503", src) == ["GRM503"]

    def test_for_loop_over_tracked_set_name(self):
        src = "seen = set()\nfor x in seen:\n    print(x)\n"
        assert rule_ids("GRM503", src) == ["GRM503"]

    def test_set_algebra_tracked(self):
        src = "both = set(a) | set(b)\nout = [x for x in both]\n"
        assert rule_ids("GRM503", src) == ["GRM503"]

    def test_join_and_list_sinks(self):
        src = "s = {1}\na = list(s)\nb = ','.join(s)\n"
        assert rule_ids("GRM503", src) == ["GRM503"] * 2

    def test_set_pop_flagged(self):
        src = "s = {1, 2}\nx = s.pop()\n"
        assert rule_ids("GRM503", src) == ["GRM503"]

    def test_sorted_wrapper_passes(self):
        src = "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
        assert run_rule("GRM503", src) == []

    def test_order_insensitive_sinks_pass(self):
        src = (
            "s = {1, 2}\n"
            "n = len(s)\n"
            "t = sum(v for v in s)\n"
            "m = max(s)\n"
            "ok = any(v > 1 for v in s)\n"
        )
        assert run_rule("GRM503", src) == []

    def test_reassigned_name_is_forgotten(self):
        src = "s = {1}\ns = [1]\nfor x in s:\n    print(x)\n"
        assert run_rule("GRM503", src) == []

    def test_list_iteration_passes(self):
        src = "xs = [1, 2]\nfor x in xs:\n    print(x)\n"
        assert run_rule("GRM503", src) == []

    def test_function_scopes_are_independent(self):
        src = (
            "def a():\n"
            "    s = {1}\n"
            "    return list(s)\n"
            "def b():\n"
            "    s = [1]\n"
            "    return list(s)\n"
        )
        assert rule_ids("GRM503", src) == ["GRM503"]

    def test_allowlist_escape(self):
        src = "s = {1}\nfor x in s:  # grm: allow-set-order\n    print(x)\n"
        assert run_rule("GRM503", src) == []


class TestIdentityOrder:
    def test_plain_id_call_flagged(self):
        assert rule_ids("GRM504", "k = id(obj)\n") == ["GRM504"]

    def test_id_as_sort_key(self):
        assert rule_ids("GRM504", "out = sorted(xs, key=id)\n") == ["GRM504"]

    def test_hash_inside_lambda_key(self):
        src = "out = sorted(xs, key=lambda o: (hash(o), o))\n"
        assert rule_ids("GRM504", src) == ["GRM504"]

    def test_stable_keys_pass(self):
        src = "out = sorted(xs, key=len)\nout2 = sorted(xs, key=lambda o: o.name)\n"
        assert run_rule("GRM504", src) == []

    def test_allowlist_escape(self):
        src = "k = id(obj)  # grm: allow-id-order\n"
        assert run_rule("GRM504", src) == []


class TestEntropySource:
    @pytest.mark.parametrize(
        "src",
        [
            "import os\nb = os.urandom(16)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import uuid\nu = uuid.uuid1()\n",
            "import random\nr = random.SystemRandom()\n",
            "import secrets\n",
            "from secrets import token_hex\n",
            "from os import urandom\n",
            "from uuid import uuid4\n",
        ],
    )
    def test_entropy_sources_flagged(self, src):
        assert rule_ids("GRM505", src) == ["GRM505"]

    def test_seed_derived_values_pass(self):
        src = "import uuid\nu = uuid.UUID(int=rng.getrandbits(128))\n"
        assert run_rule("GRM505", src) == []

    def test_allowlist_escape(self):
        src = "import os\nb = os.urandom(16)  # grm: allow-entropy\n"
        assert run_rule("GRM505", src) == []


class TestInjectionAcceptance:
    """ISSUE acceptance: a deliberately injected wall-clock call in a
    source tree is caught by the lint side of the sanitizer."""

    def test_injected_wall_clock_call_is_caught(self, tmp_path):
        """Once caught as GRM501; GRM101 now owns every wall-clock read."""
        from repro.analysis.linter import lint_paths

        bad = tmp_path / "driver_patch.py"
        bad.write_text(
            "import time\n"
            "def fetch_group(self, group):\n"
            "    started = time.monotonic_ns()\n"
            "    return started\n"
        )
        report = lint_paths([str(tmp_path)])
        assert "GRM101" in {f.rule_id for f in report.findings}

    def test_repo_src_has_no_unallowlisted_grm5xx(self):
        from repro.analysis.linter import lint_paths, render_flat

        report = lint_paths(["src"], rules=rules_by_id(list(DETERMINISM_RULE_IDS)))
        assert report.findings == [], render_flat(report)
