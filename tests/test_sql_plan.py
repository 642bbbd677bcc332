"""Differential tests: compiled plans ≡ the interpreted executor.

The compiled path (:mod:`repro.sql.plan`) must be byte-identical to
:func:`repro.sql.executor.execute_select` — same columns, same rows, same
row order, and the same exception type/message whenever the interpreter
raises.  A seeded generator sweeps projections, aliases, LIKE, NULLs,
aggregates, GROUP BY/HAVING, ORDER BY, DISTINCT and LIMIT/OFFSET over a
relation with NULLs, numeric strings and mixed types; both bind flavours
(positional slots and mapping rows) are checked against the oracle.
"""

import random
import re
from pathlib import Path

import pytest

import repro

from repro.sql.executor import execute_select, natural_join
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, compile_plan, join_rows

COLUMNS = ["HostName", "SiteName", "Load", "MemMB", "Label"]

ROWS = [
    {"HostName": "h1", "SiteName": "s1", "Load": 0.5, "MemMB": 512, "Label": "alpha"},
    {"HostName": "h2", "SiteName": "s1", "Load": None, "MemMB": 1024, "Label": "Beta"},
    {"HostName": "h3", "SiteName": "s2", "Load": "2.5", "MemMB": None, "Label": None},
    {"HostName": "h4", "SiteName": "s2", "Load": 7, "MemMB": 2048, "Label": "alpha"},
    {"HostName": "h5", "SiteName": "s3", "Load": 0.5, "MemMB": 512, "Label": "gamma%"},
    {"HostName": "h6", "SiteName": "s3", "Load": -1.5, "MemMB": 256, "Label": ""},
]


def slot_rows():
    return [[r[c] for c in COLUMNS] for r in ROWS]


def outcome(fn):
    """Result triple or exception fingerprint — compared across paths."""
    try:
        result = fn()
        return ("ok", result.columns, result.rows)
    except Exception as exc:  # noqa: BLE001 - fingerprinting all failures
        return ("err", type(exc).__name__, str(exc))


def assert_equivalent(sql, columns=COLUMNS, dict_rows=ROWS):
    select = parse_select(sql)
    ref = outcome(lambda: execute_select(select, columns, dict_rows))
    plan = compile_plan(select)
    positional = [[r.get(c) for c in columns] for r in dict_rows]
    got_slot = outcome(lambda: plan.bind(tuple(columns)).execute(positional))
    got_map = outcome(lambda: plan.bind_mapping(tuple(columns)).execute(dict_rows))
    assert got_slot == ref, f"slot flavour diverged on {sql!r}:\n{got_slot}\n{ref}"
    assert got_map == ref, f"mapping flavour diverged on {sql!r}:\n{got_map}\n{ref}"
    return ref


HAND_PICKED = [
    "SELECT * FROM Processor",
    "SELECT HostName, Load FROM Processor",
    "SELECT hostname, LOAD FROM Processor",
    "SELECT HostName FROM Processor WHERE Load > 1",
    "SELECT HostName FROM Processor WHERE Load > '1'",
    "SELECT * FROM Processor WHERE Load IS NULL",
    "SELECT * FROM Processor WHERE Load IS NOT NULL AND MemMB >= 512",
    "SELECT * FROM Processor WHERE Label LIKE 'a%'",
    "SELECT * FROM Processor WHERE Label LIKE '%a%'",
    "SELECT * FROM Processor WHERE Label LIKE 'gamma\\%'",
    "SELECT * FROM Processor WHERE Label LIKE Label",
    "SELECT * FROM Processor WHERE HostName LIKE '_2'",
    "SELECT HostName, Load * 2 AS Dbl FROM Processor ORDER BY Dbl DESC",
    "SELECT HostName, Load * 2 AS Load FROM Processor ORDER BY Load",
    "SELECT HostName AS a, SiteName AS a FROM Processor ORDER BY a",
    "SELECT * FROM Processor ORDER BY Load, HostName DESC",
    "SELECT * FROM Processor ORDER BY Missing",
    "SELECT COUNT(*) FROM Processor",
    "SELECT COUNT(Load), SUM(Load), AVG(Load), MIN(Load), MAX(MemMB) FROM Processor",
    "SELECT COUNT(DISTINCT Label) FROM Processor",
    "SELECT SiteName, COUNT(*) FROM Processor GROUP BY SiteName",
    "SELECT SiteName, AVG(MemMB) FROM Processor GROUP BY SiteName ORDER BY SiteName",
    "SELECT SiteName, COUNT(*) AS n FROM Processor GROUP BY SiteName"
    " HAVING n > 1 ORDER BY n DESC, SiteName",
    "SELECT SiteName, MAX(MemMB) FROM Processor WHERE Load IS NOT NULL"
    " GROUP BY SiteName",
    "SELECT SUM(MemMB) + 1 FROM Processor",
    "SELECT COUNT(*) * 2 FROM Processor WHERE Load > 100",
    "SELECT -Load FROM Processor",
    "SELECT NOT (Load > 1) FROM Processor",
    "SELECT DISTINCT SiteName FROM Processor",
    "SELECT DISTINCT Load, Label FROM Processor ORDER BY Load LIMIT 3",
    "SELECT * FROM Processor LIMIT 2 OFFSET 3",
    "SELECT * FROM Processor WHERE Load BETWEEN 0 AND 5",
    "SELECT * FROM Processor WHERE Load NOT BETWEEN 0 AND 5",
    "SELECT * FROM Processor WHERE SiteName IN ('s1', 's3')",
    "SELECT * FROM Processor WHERE SiteName NOT IN ('s1', Label)",
    "SELECT * FROM Processor WHERE Load + MemMB > 500",
    "SELECT * FROM Processor WHERE Load / 0 = 1",
    "SELECT * FROM Processor WHERE Load % 2 = 1",
    "SELECT Missing FROM Processor",
    "SELECT * FROM Processor WHERE Missing = 1",
    "SELECT *, COUNT(*) FROM Processor",
    "SELECT * FROM Processor GROUP BY SiteName",
    "SELECT HostName FROM Processor WHERE Load > Label",
]


class TestHandPicked:
    @pytest.mark.parametrize("sql", HAND_PICKED)
    def test_equivalent(self, sql):
        assert_equivalent(sql)

    def test_empty_relation(self):
        for sql in (
            "SELECT * FROM Processor",
            "SELECT COUNT(*) FROM Processor",
            "SELECT SUM(Load) FROM Processor",
            "SELECT HostName FROM Processor ORDER BY Load",
            "SELECT SiteName, COUNT(*) FROM Processor GROUP BY SiteName",
        ):
            assert_equivalent(sql, COLUMNS, [])

    def test_aggregate_references_column_on_empty_group(self):
        # Implicit single empty group: the interpreter resolves plain
        # columns against an empty sample row and raises.
        ref = assert_equivalent(
            "SELECT HostName, COUNT(*) FROM Processor", COLUMNS, []
        )
        assert ref[0] == "err"

    def test_duplicate_source_labels_resolve_like_dicts(self):
        # dict(zip(...)) keeps the FIRST key position with the LAST value;
        # the slot binder must match both halves of that.
        columns = ["a", "B", "a"]
        dict_rows = [dict(zip(columns, row)) for row in [[1, 2, 3], [4, 5, 6]]]
        for sql in (
            "SELECT a FROM t",
            "SELECT A FROM t",
            "SELECT b FROM t ORDER BY a DESC",
            "SELECT * FROM t",
        ):
            select = parse_select(sql)
            ref = outcome(lambda: execute_select(select, columns, dict_rows))
            plan = compile_plan(select)
            positional = [[1, 2, 3], [4, 5, 6]]
            got = outcome(lambda: plan.bind(tuple(columns)).execute(positional))
            assert got == ref, sql


def random_select(rng):
    """One random SELECT over the test relation (always parseable)."""
    numeric = ["Load", "MemMB"]
    textual = ["HostName", "SiteName", "Label"]

    def predicate():
        roll = rng.randrange(8)
        col = rng.choice(COLUMNS)
        if roll == 0:
            return f"{col} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
        if roll == 1:
            return f"{rng.choice(textual)} LIKE '{rng.choice(['a%', '%a%', 'h_', '%', 'Beta'])}'"
        if roll == 2:
            return f"{rng.choice(numeric)} BETWEEN {rng.randrange(-2, 3)} AND {rng.randrange(3, 3000)}"
        if roll == 3:
            return f"SiteName IN ('s1', 's{rng.randrange(2, 5)}')"
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        if roll == 4:
            rhs = rng.choice(["0.5", "2", "512", "'1'"])
            return f"{rng.choice(numeric)} {op} {rhs}"
        if roll == 5:
            return f"{rng.choice(textual)} {op} '{rng.choice(['h1', 'alpha', 's2', ''])}'"
        if roll == 6:
            return f"{rng.choice(numeric)} {rng.choice(['+', '-', '*', '/', '%'])} {rng.randrange(0, 4)} {op} {rng.randrange(0, 1024)}"
        return f"{rng.choice(COLUMNS)} {op} {rng.choice(COLUMNS)}"

    def where():
        parts = [predicate() for _ in range(rng.randrange(1, 4))]
        glue = [rng.choice([" AND ", " OR "]) for _ in parts[1:]]
        out = parts[0]
        for g, p in zip(glue, parts[1:]):
            p = f"NOT ({p})" if rng.random() < 0.2 else p
            out += g + p
        return out

    grouped = rng.random() < 0.4
    sql_parts = ["SELECT"]
    if rng.random() < 0.2:
        sql_parts.append("DISTINCT")
    if grouped:
        aggs = ["COUNT(*)", "SUM(Load)", "AVG(MemMB)", "MIN(Label)",
                "MAX(Load)", "COUNT(DISTINCT Label)"]
        items = ["SiteName"] + rng.sample(aggs, rng.randrange(1, 3))
        if rng.random() < 0.5:
            items[1] += " AS agg"
        sql_parts.append(", ".join(items))
        sql_parts.append("FROM Processor")
        if rng.random() < 0.6:
            sql_parts.append("WHERE " + where())
        sql_parts.append("GROUP BY SiteName")
        if rng.random() < 0.4:
            sql_parts.append("HAVING COUNT(*) >= " + str(rng.randrange(0, 3)))
        if rng.random() < 0.5:
            sql_parts.append("ORDER BY SiteName" + rng.choice(["", " DESC"]))
    else:
        if rng.random() < 0.3:
            sql_parts.append("*")
        else:
            items = rng.sample(COLUMNS, rng.randrange(1, 4))
            if rng.random() < 0.4:
                items.append(f"{rng.choice(numeric)} * 2 AS Scaled")
            sql_parts.append(", ".join(items))
        sql_parts.append("FROM Processor")
        if rng.random() < 0.7:
            sql_parts.append("WHERE " + where())
        if rng.random() < 0.5:
            keys = rng.sample(COLUMNS + ["Scaled"], rng.randrange(1, 3))
            sql_parts.append(
                "ORDER BY "
                + ", ".join(k + rng.choice(["", " DESC"]) for k in keys)
            )
    if rng.random() < 0.3:
        sql_parts.append(f"LIMIT {rng.randrange(0, 6)}")
        if rng.random() < 0.5:
            sql_parts.append(f"OFFSET {rng.randrange(0, 4)}")
    return " ".join(sql_parts)


class TestGeneratedDifferential:
    def test_seeded_sweep(self):
        """400 generated SELECTs, byte-identical across all three paths."""
        rng = random.Random(20260809)
        for i in range(400):
            sql = random_select(rng)
            try:
                assert_equivalent(sql)
            except AssertionError:
                raise AssertionError(f"iteration {i}: {sql}") from None

    def test_generator_exercises_interesting_shapes(self):
        rng = random.Random(20260809)
        batch = [random_select(rng) for _ in range(400)]
        assert any("LIKE" in s for s in batch)
        assert any("GROUP BY" in s for s in batch)
        assert any("ORDER BY" in s for s in batch)
        assert any(" AS " in s for s in batch)
        assert any("DISTINCT" in s for s in batch)
        assert any("LIMIT" in s for s in batch)


class TestBindingCache:
    def test_bindings_cached_per_layout(self):
        plan = compile_plan(parse_select("SELECT HostName FROM Processor"))
        assert plan.bind(tuple(COLUMNS)) is plan.bind(tuple(COLUMNS))
        assert plan.bind_mapping(tuple(COLUMNS)) is plan.bind_mapping(tuple(COLUMNS))
        assert plan.bind(tuple(COLUMNS)) is not plan.bind(("HostName",))

    def test_compile_plan_returns_compiled_plan(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        assert isinstance(plan, CompiledPlan)
        assert plan.select.table == "Processor"


class TestJoinRows:
    def relations(self):
        a_cols = ["HostName", "SiteName", "Load"]
        b_cols = ["HostName", "SiteName", "MemMB", "Vendor"]
        a_rows = [
            {"HostName": "h1", "SiteName": "s1", "Load": 1.0},
            {"HostName": "h2", "SiteName": "s1", "Load": 2.0},
            {"HostName": "h3", "SiteName": "s2", "Load": None},
        ]
        b_rows = [
            {"HostName": "h1", "SiteName": "s1", "MemMB": 512, "Vendor": "x"},
            {"HostName": "h2", "SiteName": "s1", "MemMB": 1024, "Vendor": "y"},
            {"HostName": "h2", "SiteName": "s1", "MemMB": 2048, "Vendor": "z"},
        ]
        return (a_cols, a_rows), (b_cols, b_rows)

    def positional(self, relation):
        cols, dict_rows = relation
        return cols, [[r.get(c) for c in cols] for r in dict_rows]

    def test_matches_natural_join(self):
        rel_a, rel_b = self.relations()
        for key_columns in (None, ("HostName", "SiteName"), ("SiteName",)):
            cols, dict_rows = natural_join([rel_a, rel_b], key_columns=key_columns)
            pcols, prow = join_rows(
                [self.positional(rel_a), self.positional(rel_b)],
                key_columns=key_columns,
            )
            assert pcols == cols
            assert prow == [[d.get(c) for c in cols] for d in dict_rows]

    def test_empty_and_errors_match(self):
        assert join_rows([]) == ([], [])
        rel_a, _ = self.relations()
        disjoint = (["Other"], [{"Other": 1}])
        import pytest as _pytest

        with _pytest.raises(Exception) as interp:
            natural_join([rel_a, disjoint])
        with _pytest.raises(Exception) as compiled:
            join_rows([self.positional(rel_a), self.positional(disjoint)])
        assert str(interp.value) == str(compiled.value)
        assert type(interp.value) is type(compiled.value)


class TestZeroCopy:
    def test_star_projection_adopts_rows(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        rows = slot_rows()
        result = plan.bind(tuple(COLUMNS)).execute(rows)
        # Caller-relinquished rows are adopted, not copied.
        assert all(out is src for out, src in zip(result.rows, rows))

    def test_mapping_star_builds_fresh_rows(self):
        plan = compile_plan(parse_select("SELECT * FROM Processor"))
        result = plan.bind_mapping(tuple(COLUMNS)).execute(ROWS)
        result.rows[0][0] = "mutated"
        assert ROWS[0]["HostName"] == "h1"


def test_only_the_executor_module_names_the_interpreter():
    """One SELECT engine serves: nothing under ``src/repro`` outside the
    reference's own module (and the package that could re-export it)
    may name ``execute_select``."""
    root = Path(repro.__file__).parent
    allowed = {root / "sql" / "executor.py", root / "sql" / "__init__.py"}
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path not in allowed and re.search(r"\bexecute_select\b", path.read_text())
    ]
    assert offenders == []
