"""Prepared plans: a literal variant of a compiled statement, against an
oracle that shares no code with the prepared path.

``PlanCache.get`` answers a text whose shape (tokens, with a typed slot
where each NUMBER or STRING literal stood) it has compiled clean before
by putting the new literal values into the remembered AST: no lexer, no
parser, no validator.  Here every such entry is held to what a fresh
compile means, taken from elsewhere:

* the AST to ``tests/reference_parser.py`` (the old character scanner
  and recursive descent) — same ``repr``, or the same error message at
  the same position;
* the findings to the validator run on that reference AST;
* the rows to ``tests/reference_sql.py`` over the typed and edge
  relations, through the one binding (``bind``) over their rows as a
  driver's lists and as the tuples a table stores, which the plans of
  one shape share up to their WHERE stages (the lacking and short
  relations have rows without every column: no full positional twin).

The variants come from the reference lexer's own token spans: every
literal of the plan-sweep statements (``tests/test_sql_plan.py``), of
the grammar-built front-end corpus (``tests/test_sql_front_end.py``) and
of :data:`CORPUS` is rewritten — mostly to another value of its class,
sometimes to another class or to an integer past the int-string limit —
and each is checked cold (first variant after the template) and warm
(the next one, and the first again as a text hit).  Fixed derandomized
Hypothesis profile ``sql-prepared``:

``PYTHONPATH=src python -m pytest tests/test_prepared_plans.py -q``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.query_check import validate_select
from repro.core.plans import MAX_SHAPES, PlanCache
from repro.core.request_manager import QueryMode
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.errors import SqlParseError
from repro.sql.parser import parse_select
from repro.sql.plan import compile_plan
from repro.testbed import build_site
from tests import reference_parser as ref
from tests.reference_sql import execute_select
from tests.test_sql_front_end import NAMES, _select, mutate
from tests.test_sql_plan import HAND_PICKED, KERNEL_EDGES, RELATIONS, random_select

settings.register_profile(
    "sql-prepared", max_examples=400, derandomize=True, deadline=None, database=None
)

HISTORY = ("SourceUrl", "RecordedAt")

#: The plan sweep's relation, typed, plus the columns :data:`CORPUS` names.
PLAN_SCHEMA = GlueSchema(
    "prepared-1",
    [
        GlueGroup(
            "Processor",
            tuple(
                GlueField(name, kind)
                for name, kind in (
                    ("HostName", "TEXT"),
                    ("SiteName", "TEXT"),
                    ("Load", "REAL"),
                    ("MemMB", "INTEGER"),
                    ("Label", "TEXT"),
                    ("LoadAverage1Min", "REAL"),
                    ("Timestamp", "TIMESTAMP"),
                )
            ),
        )
    ],
)
PLAN_COLUMNS = [
    "HostName", "SiteName", "Load", "MemMB", "Label", "LoadAverage1Min", "Timestamp",
    "RecordedAt",
]
#: ``RELATIONS`` with the extra columns, so corpus statements have rows.
PLAN_RELATIONS = {
    name: [
        {
            **row,
            "LoadAverage1Min": row.get("Load"),
            "Timestamp": 100.0 + i,
            "RecordedAt": 10 * i,
        }
        for i, row in enumerate(rows)
    ]
    for name, rows in RELATIONS.items()
}

#: Every front-end name is a group holding every front-end name, typed
#: in turn, so grammar-built statements validate clean as often as not.
_TYPES = ("TEXT", "REAL", "INTEGER", "TIMESTAMP", "BOOLEAN")
FRONT_SCHEMA = GlueSchema(
    "prepared-2",
    [
        GlueGroup(
            group, tuple(GlueField(n, _TYPES[i % len(_TYPES)]) for i, n in enumerate(NAMES))
        )
        for group in NAMES
    ],
)
FRONT_ROWS = [
    {name: value for name, value in zip(NAMES, values)}
    for values in (
        ["a", 1.5, 2, 3.0, True, "b", 0.5, 7, 1.0, False, "c"],
        ["h1", -1, 0, None, False, "it's", 2.5, -3, 2.0, True, ""],
        [None, "2.5", 4, 1e3, None, "x", None, 9, 3.0, None, "e"],
    )
]

#: What the sweeps must cover beyond the two generators.
CORPUS = [
    'SELECT HostName FROM Processor WHERE Label = "h1 2"',
    'SELECT HostName FROM Processor WHERE HostName = "say ""12"""',
    "SELECT HostName FROM Processor WHERE Load > .5",
    "SELECT HostName FROM Processor WHERE Load > 1e5 OR MemMB < 1.e5",
    "SELECT HostName FROM Processor WHERE Load > -1.5 AND MemMB >= - -2",
    "SELECT -Load, MemMB - 3 FROM Processor WHERE MemMB > -512",
    "SELECT * FROM Processor ORDER BY HostName LIMIT 3 OFFSET 1",
    "SELECT HostName FROM Processor WHERE MemMB IN (512, 1024, 4096) LIMIT 5",
    "SELECT HostName FROM Processor WHERE Label NOT IN ('alpha', 'Beta')",
    "SELECT HostName FROM Processor WHERE Load BETWEEN 0.25 AND 5 ORDER BY Load",
    "SELECT HostName FROM Processor WHERE Load NOT BETWEEN -1 AND 1",
    "SELECT HostName FROM Processor WHERE Label LIKE 'a%' OR HostName LIKE '_1'",
    "SELECT HostName FROM Processor WHERE Label = 'alpha' AND Load = TRUE",
    "SELECT HostName, TRUE, NULL FROM Processor WHERE Label = 'alpha' OR FALSE",
    "SELECT HostName FROM Processor WHERE Label = NULL OR MemMB > 3",
    "SELECT HostName, LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 0.45",
    "SELECT Timestamp, LoadAverage1Min FROM Processor WHERE Timestamp >= 101.5",
    "SELECT HostName, LoadAverage1Min, RecordedAt FROM Processor WHERE RecordedAt >= 20"
    " AND RecordedAt < 40",
    "SELECT SiteName, AVG(Load), MAX(MemMB) FROM Processor WHERE Timestamp >= 100"
    " GROUP BY SiteName HAVING COUNT(*) >= 1",
    "SELECT COUNT(*) FROM Processor WHERE MemMB >= 2",
    "SELECT HostName, MemMB * 2 AS Twice FROM Processor ORDER BY Twice DESC LIMIT 2",
    "SELECT HostName FROM Processor WHERE MemMB > 10 LIMIT 2",
]

#: Replacement literal texts, by the class of the literal they replace.
INTS = ["0", "1", "7", "42", "512", "4096", "2048", "00", "123456789012345678901"]
FLOATS = [".5", "1e5", "1.e5", "0.5", "2.25", "1E-3", "7.0", "1e400", "12345.678e+2"]
STRING_BODIES = ["", "a", "h1", "alpha", "Beta", "a%", "_1", "12", "1 2", "it''s", "%", "s2"]
TOO_LONG = "1" * 5000


def literal_spans(text: str) -> list[tuple[int, int, str]]:
    """(start, end, class) of every NUMBER and STRING token, as the
    reference scanner reads ``text``; [] when it refuses the text."""
    lexer = ref.Lexer(text)
    spans = []
    try:
        while True:
            tok = lexer._next()
            if tok.type is ref.TokenType.EOF:
                return spans
            if tok.type is ref.TokenType.NUMBER:
                number = tok.value
                kind = "float" if set(number) & set(".eE") else "int"
                spans.append((tok.pos, lexer.pos, kind))
            elif tok.type is ref.TokenType.STRING:
                spans.append((tok.pos, lexer.pos, text[tok.pos]))
    except SqlParseError:
        return []


def variant(rng: random.Random, text: str) -> str:
    """``text`` with every literal rewritten: to another value of its
    class nine times in ten, else to another class (or, rarely, to an
    integer past the int-string limit)."""
    out, last = [], 0
    for start, end, kind in literal_spans(text):
        if rng.random() < 0.1:
            kind = rng.choice(["int", "float", "'", '"', "too long"])
        if kind == "int":
            new = rng.choice(INTS + [str(rng.randrange(10**6))])
        elif kind == "float":
            new = rng.choice(FLOATS + [f"{rng.random() * 100:.3f}"])
        elif kind == "too long":
            new = TOO_LONG
        else:
            body = rng.choice(STRING_BODIES)
            new = kind + (body if kind == "'" else body.replace("''", "'")) + kind
        out += [text[last:start], new]
        last = end
    return "".join(out) + text[last:]


def findings_of(findings) -> list[tuple[str, str, str]]:
    return [(f.rule_id, f.message, f.symbol) for f in findings]


def reference(text: str, schema: GlueSchema, extra: tuple[str, ...]):
    """A fresh compile's meaning, from the reference front end: the AST
    and findings, or the error."""
    try:
        select = ref.parse_select(text)
    except SqlParseError as exc:
        return ("error", str(exc), exc.position), None
    findings = validate_select(select, schema, extra_fields=extra)
    return ("ok", repr(select), findings_of(findings)), select


def prepared(cache: PlanCache, text: str, extra: tuple[str, ...]):
    try:
        entry = cache.get(text, extra_fields=extra)
    except SqlParseError as exc:
        return ("error", str(exc), exc.position), None
    return ("ok", repr(entry.select), findings_of(entry.findings)), entry


def rows_outcome(run, *args):
    try:
        result = run(*args)
    except Exception as exc:  # noqa: BLE001 - fingerprinting every failure
        return ("err", type(exc).__name__, str(exc))
    return ("ok", result.columns, repr(result.rows))


def check(cache, text, schema, extra, columns, relations) -> None:
    """``cache``'s entry for ``text`` means what a fresh compile does."""
    want, select = reference(text, schema, extra)
    got, entry = prepared(cache, text, extra)
    assert got == want, f"{text!r}:\n{got}\n{want}"
    if entry is None or entry.findings or select.is_join:
        return
    plan = entry.compiled()
    fresh = compile_plan(select).bind(tuple(columns))
    for column in ("RecordedAt", "Load", "x"):
        assert plan.bind(tuple(columns)).leading_bounds(column) == (
            fresh.leading_bounds(column)
        ), f"{text!r}: leading bounds on {column}"
    for name, rows in relations.items():
        if not all(len(row) == len(columns) for row in rows):
            continue
        theirs = rows_outcome(execute_select, select, columns, rows)
        slots = [[row[c] for c in columns] for row in rows]
        for kind, twin in (("list", slots), ("tuple", [tuple(r) for r in slots])):
            mine = rows_outcome(plan.bind(tuple(columns)).execute, twin)
            assert mine == theirs, f"{text!r} over {name}, {kind} rows:\n{mine}\n{theirs}"


def check_variants(rng, text, schema, extra, columns, relations) -> PlanCache:
    """The template, a cold variant, a warm one and the cold one again."""
    cache = PlanCache(schema)
    check(cache, text, schema, extra, columns, relations)
    first, second = variant(rng, text), variant(rng, text)
    check(cache, first, schema, extra, columns, relations)
    check(cache, second, schema, extra, columns, relations)
    hits = cache.hits
    check(cache, first, schema, extra, columns, relations)
    # A text that parsed has an entry now; an error is never cached.
    assert cache.hits == hits + (reference(first, schema, extra)[1] is not None)
    return cache


SWEEP = HAND_PICKED + KERNEL_EDGES + CORPUS


@settings(settings.get_profile("sql-prepared"))
@given(rng=st.randoms(use_true_random=True), extra=st.sampled_from([(), HISTORY]))
def test_plan_sweep_variants_match_the_reference(rng, extra):
    """(Re-aimed: rows are checked through ``bind`` over lists and over
    stored tuples; the mapping binding is gone.)"""
    text = rng.choice(SWEEP) if rng.random() < 0.6 else random_select(rng)
    check_variants(rng, text, PLAN_SCHEMA, extra, PLAN_COLUMNS, PLAN_RELATIONS)


@settings(settings.get_profile("sql-prepared"))
@given(rng=st.randoms(use_true_random=True))
def test_front_end_variants_match_the_reference(rng):
    """(Re-aimed: rows are checked through ``bind`` over lists and over
    stored tuples; the mapping binding is gone.)"""
    tokens = _select(rng)
    if rng.random() < 0.3:
        tokens = mutate(rng, tokens)
    text = rng.choice([" ", "\n"]).join(tokens)
    check_variants(rng, text, FRONT_SCHEMA, (), NAMES, {"front": FRONT_ROWS})


def test_one_cache_serves_the_whole_sweep():
    """Templates of every statement side by side: a shape that lost a
    name, a keyword or an operator would hand one statement another's
    tree.  (Re-aimed: rows are checked through ``bind`` over lists and
    over stored tuples; the mapping binding is gone.)"""
    rng = random.Random(7)
    cache = PlanCache(PLAN_SCHEMA)
    for _ in range(3):
        for text in SWEEP:
            for extra in ((), HISTORY):
                check(cache, text, PLAN_SCHEMA, extra, PLAN_COLUMNS, PLAN_RELATIONS)
                mutated = variant(rng, text)
                check(cache, mutated, PLAN_SCHEMA, extra, PLAN_COLUMNS, PLAN_RELATIONS)
    assert cache.instantiations > len(SWEEP)


def test_the_sweeps_instantiate_most_variants():
    """The oracle above is not vacuous: over the same inputs, most
    variants are instantiated, not compiled.  (Re-aimed: rows are
    checked through ``bind`` over lists and over stored tuples.)"""
    rng = random.Random(42)
    instantiated = compiled = 0
    for _ in range(200):
        text = rng.choice(SWEEP) if rng.random() < 0.6 else random_select(rng)
        cache = check_variants(rng, text, PLAN_SCHEMA, HISTORY, PLAN_COLUMNS, PLAN_RELATIONS)
        instantiated += cache.instantiations
        compiled += cache.misses
    assert instantiated > compiled / 2
    rng = random.Random(43)
    front = sum(
        check_variants(
            rng, " ".join(_select(rng)), FRONT_SCHEMA, (), NAMES, {"front": FRONT_ROWS}
        ).instantiations
        for _ in range(200)
    )
    assert front > 50


# ----------------------------------------------------------------------
# The corpus's cases, one by one
# ----------------------------------------------------------------------
def cache_with(*texts: str, extra=(), **kwargs) -> PlanCache:
    cache = PlanCache(PLAN_SCHEMA, **kwargs)
    for text in texts:
        cache.get(text, extra_fields=extra)
    return cache


def test_a_double_quoted_string_holding_digits_is_one_literal():
    cache = cache_with('SELECT HostName FROM Processor WHERE Label = "h1 2"')
    entry = cache.get('SELECT HostName FROM Processor WHERE Label = "h9 8"')
    assert cache.instantiations == 1
    assert entry.select == ref.parse_select('SELECT HostName FROM Processor WHERE Label = "h9 8"')


@pytest.mark.parametrize("number", [".5", "1e5", "1.e5", "2.25", "1E-3"])
def test_every_float_spelling_is_one_slot_class(number):
    cache = cache_with("SELECT HostName FROM Processor WHERE Load > 0.5")
    text = f"SELECT HostName FROM Processor WHERE Load > {number}"
    assert cache.get(text).select == ref.parse_select(text)
    assert (cache.misses, cache.instantiations) == (1, number != "0.5")


def test_an_int_is_another_slot_class_than_a_float():
    cache = cache_with("SELECT HostName FROM Processor WHERE Load > 0.5")
    assert cache.get("SELECT HostName FROM Processor WHERE Load > 5").select.where.right.value == 5
    assert (cache.misses, cache.instantiations) == (2, 0)


def test_unary_minus_stays_in_the_shape():
    cache = cache_with("SELECT HostName FROM Processor WHERE Load > -1.5")
    minus = "SELECT HostName FROM Processor WHERE Load > -2.5"
    plain = "SELECT HostName FROM Processor WHERE Load > 2.5"
    assert cache.get(minus).select == ref.parse_select(minus)
    assert cache.get(plain).select == ref.parse_select(plain)
    assert (cache.misses, cache.instantiations) == (2, 1)


@pytest.mark.parametrize("literal", ["TRUE", "FALSE", "NULL"])
def test_true_false_and_null_stay_in_the_shape(literal):
    cache = cache_with("SELECT HostName, TRUE FROM Processor WHERE Label = 'a'")
    text = f"SELECT HostName, {literal} FROM Processor WHERE Label = 'b'"
    assert cache.get(text).select == ref.parse_select(text)
    assert cache.instantiations == (literal == "TRUE")


def test_digits_in_names_and_soft_keyword_columns_are_no_slots():
    """(Re-aimed: the instantiated plan runs over one stored tuple; the
    mapping binding is gone.)"""
    template = "SELECT Timestamp, LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 1.5"
    text = "SELECT Timestamp, LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 9.5"
    cache = cache_with(template)
    entry = cache.get(text)
    assert cache.instantiations == 1
    assert entry.select == ref.parse_select(text)
    assert entry.compiled().bind(("Timestamp", "LoadAverage1Min")).execute(
        [(1.0, 10.0)]
    ).columns == ["Timestamp", "LoadAverage1Min"]


@pytest.mark.parametrize(
    "template, text",
    [
        ("SELECT * FROM Processor LIMIT 5", f"SELECT * FROM Processor LIMIT {TOO_LONG}"),
        ("SELECT * FROM Processor LIMIT 5", "SELECT * FROM Processor LIMIT 2.5"),
        ("SELECT * FROM Processor LIMIT 5 OFFSET 1", "SELECT * FROM Processor LIMIT 5 OFFSET 1.5"),
        (
            "SELECT HostName FROM Processor WHERE MemMB > 5",
            f"SELECT HostName FROM Processor WHERE MemMB > {TOO_LONG}",
        ),
    ],
    ids=["limit-past-the-int-limit", "float-limit", "float-offset", "int-past-the-int-limit"],
)
def test_a_literal_the_parser_refuses_raises_its_error(template, text):
    cache = cache_with(template)
    with pytest.raises(SqlParseError) as mine:
        cache.get(text)
    with pytest.raises(SqlParseError) as parsers:
        parse_select(text)
    with pytest.raises(SqlParseError) as references:
        ref.parse_select(text)
    assert (str(mine.value), mine.value.position) == (
        str(parsers.value), parsers.value.position
    ) == (str(references.value), references.value.position)
    assert cache.instantiations == 0 and len(cache) == 1


def test_a_schema_version_bump_drops_shapes():
    version = [1]
    cache = cache_with(
        "SELECT HostName FROM Processor WHERE Load > 0.5", version_fn=lambda: version[0]
    )
    cache.get("SELECT HostName FROM Processor WHERE Load > 1.5")
    assert (cache.misses, cache.instantiations) == (1, 1)
    version[0] += 1
    cache.get("SELECT HostName FROM Processor WHERE Load > 2.5")
    assert (cache.misses, cache.instantiations) == (2, 1)


def test_invalidate_drops_shapes():
    cache = cache_with("SELECT HostName FROM Processor WHERE Load > 0.5")
    cache.invalidate()
    cache.get("SELECT HostName FROM Processor WHERE Load > 1.5")
    assert (cache.misses, cache.instantiations) == (2, 0)


def test_only_a_clean_template_is_remembered():
    cache = cache_with("SELECT Nope FROM Processor WHERE Load > 0.5")
    entry = cache.get("SELECT Nope FROM Processor WHERE Load > 1.5")
    assert entry.findings and entry.plan is None
    assert (cache.misses, cache.instantiations) == (2, 0)


def test_a_literal_of_another_class_is_validated_afresh():
    """GRM203 reads a literal's class: a TEXT attribute against a number
    is another shape, compiled and refused."""
    cache = cache_with("SELECT HostName FROM Processor WHERE Label = 'a'")
    entry = cache.get("SELECT HostName FROM Processor WHERE Label = 5")
    assert [f.rule_id for f in entry.findings] == ["GRM203"]
    assert (cache.misses, cache.instantiations) == (2, 0)


def test_extra_fields_are_part_of_the_shape():
    cache = cache_with("SELECT HostName FROM Processor WHERE Load > 0.5")
    entry = cache.get("SELECT HostName FROM Processor WHERE Load > 1.5", extra_fields=HISTORY)
    assert entry.plan is not None
    assert (cache.misses, cache.instantiations) == (2, 0)


def test_the_shape_memo_is_bounded():
    """Past ``MAX_SHAPES`` the least recently used shape goes: its next
    variant compiles again."""
    cache = PlanCache(PLAN_SCHEMA)
    for i in range(MAX_SHAPES + 1):
        cache.get(f"SELECT HostName AS h{i} FROM Processor WHERE Load > 0.5")
    cache.get(f"SELECT HostName AS h{MAX_SHAPES} FROM Processor WHERE Load > 1.5")
    assert cache.instantiations == 1
    cache.get("SELECT HostName AS h0 FROM Processor WHERE Load > 1.5")
    assert cache.instantiations == 1
    assert cache.misses == MAX_SHAPES + 2


def test_instantiations_are_counted_and_served():
    registry = MetricsRegistry()
    cache = cache_with(
        "SELECT HostName FROM Processor WHERE Load > 0.5", registry=registry
    )
    cache.get("SELECT HostName FROM Processor WHERE Load > 1.5")
    snapshot = registry.snapshot()
    assert (snapshot["plans.misses"], snapshot["plans.instantiations"]) == (1, 1)

    network = Network(VirtualClock(), seed=11)
    site = build_site(network, name="pp", n_hosts=1, agents=("snmp",), seed=11)
    gw, url = site.gateway, site.url_for("snmp")
    for threshold in (0.5, 1.5):
        sql = f"SELECT HostName FROM Processor WHERE LoadAverage1Min > {threshold}"
        gw.query(url, sql, mode=QueryMode.REALTIME)
    served = gw.query(
        ["jdbc:grm://localhost/gateway"],
        "SELECT Name, Value FROM GatewayMetrics WHERE Name = 'plans.instantiations'",
        mode=QueryMode.REALTIME,
    )
    assert served.rows == [["plans.instantiations", 1]]
