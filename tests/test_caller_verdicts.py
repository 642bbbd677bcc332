"""The caller-census verdict table is well formed.

``tests/caller_census.py`` (CI job ``caller-census``) runs the shipped
callers and checks the table against what they reach; this fast check
runs nothing.  It catches a rename or a deletion that orphans a row: every
key resolves to a ``def`` (or a class) under ``src/repro`` in the
``co_qualname`` format the census uses, every kind is one of the four,
every ``paper`` reason cites a section, and no function is covered twice.
"""

from __future__ import annotations

from tests.caller_census import check, covered_by, functions
from tests.caller_verdicts import KINDS, VERDICTS


def test_every_row_resolves_to_a_def_under_src():
    """A deleted function takes its row with it: the gateway's remote exit
    closure went when a remote site became a source, and so did its row."""
    defs, classes = functions()
    assert [key for key in VERDICTS if key not in defs and key not in classes] == []
    assert [key for key in VERDICTS if key in classes and not covered_by(key, defs)] == []


def test_every_kind_is_one_of_the_four_and_every_paper_row_cites_a_section():
    assert {kind for kind, _ in VERDICTS.values()} <= set(KINDS)
    assert [k for k, (kind, why) in VERDICTS.items() if kind == "paper" and "§" not in why] == []
    assert [k for k, (_, why) in VERDICTS.items() if not why.strip()] == []


def test_no_function_is_covered_twice():
    defs, _ = functions()
    seen: dict[str, str] = {}
    twice = []
    for row in VERDICTS:
        for key in covered_by(row, defs):
            if key in seen:
                twice.append((key, seen[key], row))
            seen[key] = row
    assert twice == []


def test_the_qualname_format_is_the_interpreters():
    """The AST walk names a method, a closure and a class the way the
    interpreter's ``__qualname__`` (``co_qualname``) does, so a census key
    and a row key can be compared.  The method closure it names is the
    event manager's datagram handler, since the gateway's remote exit and
    then the dispatcher's launch guard are gone."""
    from repro.core.plans import PlanCache
    from repro.sql import plan

    defs, classes = functions()
    assert "repro.sql.plan:_compile_expr.<locals>.neg_fn" in defs
    assert "repro.core.events:EventManager.install_driver.<locals>.on_datagram" in defs
    assert "repro.dbapi.resultset:ListResultSet" in classes
    assert f"repro.core.plans:{PlanCache._canonical.__qualname__}" in defs
    assert f"repro.sql.plan:{plan.compile_expr.__qualname__}" in defs


def test_the_census_names_every_kind_of_failure():
    """What the CI job fails on, from a made-up census: a function with
    neither a caller nor a row, a row whose function a caller reaches, a
    row whose function is gone, and a function covered twice."""
    defs = {"m:C.a": 2, "m:C.b": 2, "m:f": 2, "m:g": 2}
    classes = {"m:C"}
    table = {
        "m:C": ("paper", "§1"),
        "m:C.b": ("reference", "twice"),
        "m:f": ("wanted", "reached now"),
        "m:gone": ("dialect", "deleted"),
    }
    problems = check(defs, classes, {"m:f"}, table)
    assert problems == [
        "m:C.b: covered by m:C and m:C.b",
        "m:f: stale row, a shipped caller reaches it",
        "m:gone: stale row, no such function or class",
        "m:g: no shipped caller and no verdict row",
    ]
    assert check(defs, classes, {"m:f", "m:g"}, {"m:C": ("paper", "§1")}) == []
