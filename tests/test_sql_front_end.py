"""The SQL front end against its reference (``tests/reference_parser.py``).

``repro.sql.lexer`` is one compiled pattern and ``repro.sql.parser`` one
precedence-climbing loop; the reference is the character scanner and the
nine-method recursive descent they replaced.  For every input both must
give the same tokens and the same ``repr`` of the AST, or the same error
message at the same position.  Inputs come in two kinds, under the fixed
derandomized Hypothesis profile ``sql-front-end``:

* statements of all six kinds built from the grammar, then mutated a
  token at a time (dropped, doubled, swapped, replaced, inserted);
* raw texts over the SQL alphabet plus digits that are not decimal
  (``²``, ``①``, ``½``), decimal digits outside ASCII (``٣``, ``𝟙``),
  letters outside ASCII (``ß``, ``五``), a no-break space, doubled and
  unterminated quotes and the number shapes ``1e``, ``1.``, ``.5`` and
  ``1.2.3``.

Run: ``PYTHONPATH=src python -m pytest tests/test_sql_front_end.py -q``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.errors import SqlParseError
from repro.sql.lexer import Lexer
from repro.sql.parser import parse_statement
from tests import reference_parser as ref

settings.register_profile(
    "sql-front-end", max_examples=1000, derandomize=True, deadline=None, database=None
)


def outcome(parse, lexer, text: str):
    """What a front end makes of ``text``: its tokens, then its AST or
    its error (message and position)."""
    try:
        tokens = [(t.type.name, t.value, t.pos, t.raw) for t in lexer(text).tokens()]
    except SqlParseError as exc:
        tokens = ("error", str(exc), exc.position)
    try:
        return tokens, ("ok", repr(parse(text)))
    except SqlParseError as exc:
        return tokens, ("error", str(exc), exc.position)


def assert_same(text: str) -> None:
    assert outcome(parse_statement, Lexer, text) == outcome(
        ref.parse_statement, ref.Lexer, text
    )


# ----------------------------------------------------------------------
# Grammar-built statements, mutated a token at a time
# ----------------------------------------------------------------------
NAMES = ["HostName", "x", "t", "LoadAverage1Min", "Timestamp", "count", "text", "_h", "ß", "五",
         "e"]
NUMBERS = ["0", "1", "42", "1.5", ".5", "1.", "1e3", "2E-2", "1.e5", "٣", "𝟙", "123456789012"]
STRINGS = ["'a'", "'it''s'", "''", '"q"', '"say ""hi"""', "'%x_'", "'OR'"]
INFIX = ["OR", "AND", "=", "!=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
         "LIKE", "NOT LIKE"]
FUNCTIONS = ["COUNT", "SUM", "AVG", "MIN", "MAX", "lower"]
COLUMN_TYPES = ["", "INTEGER", "REAL", "TEXT", "BOOLEAN", "TIMESTAMP"]
#: Tokens a mutation may insert or substitute, beside those above.
OTHER_TOKENS = ["(", ")", ",", ".", ";", "SELECT", "FROM", "WHERE", "NOT", "IN", "IS",
                "NULL", "BETWEEN", "AND", "LIMIT", "OFFSET", "GROUP", "BY", "ORDER", "AS",
                "DISTINCT", "VALUES", "SET", "TABLE", "IF", "'", '"', "²", "①", "@"]
VOCABULARY = NAMES + NUMBERS + STRINGS + INFIX + OTHER_TOKENS


def _commas(parts: list[list[str]]) -> list[str]:
    out = list(parts[0])
    for part in parts[1:]:
        out += [",", *part]
    return out


def _some(rng, build, most: int) -> list[list[str]]:
    return [build(rng) for _ in range(rng.randint(1, most))]


def _expr(rng, depth: int = 0) -> list[str]:
    if depth >= 3 or rng.random() < 0.3:
        kind = rng.randrange(6)
        if kind == 0:
            return [rng.choice(NAMES)]
        if kind == 1:
            return ["t", ".", rng.choice(NAMES + ["*"])]
        if kind == 2:
            return [rng.choice(NUMBERS)]
        if kind == 3:
            return [rng.choice(STRINGS)]
        return [rng.choice(["NULL", "TRUE", "FALSE", "*"])]
    sub = lambda: _expr(rng, depth + 1)
    kind = rng.randrange(9)
    if kind < 2:
        return sub() + rng.choice(INFIX).split() + sub()
    if kind == 2:
        return ["(", *sub(), ")"]
    if kind == 3:
        return [rng.choice(["NOT", "-", "+"]), *sub()]
    if kind == 4:
        items = _some(rng, lambda r: _expr(r, depth + 1), 3)
        return sub() + rng.choice(["IN", "NOT IN"]).split() + ["(", *_commas(items), ")"]
    if kind == 5:
        return sub() + rng.choice(["BETWEEN", "NOT BETWEEN"]).split() + sub() + ["AND"] + sub()
    if kind == 6:
        return sub() + rng.choice(["IS NULL", "IS NOT NULL"]).split()
    if kind == 7:
        args = _some(rng, lambda r: _expr(r, depth + 1), 2)
        return [rng.choice(FUNCTIONS), "(", *_commas(args), ")"]
    return rng.choice([["COUNT", "(", "*", ")"], ["COUNT", "(", "DISTINCT", "x", ")"]])


def _maybe(rng, tokens: list[str]) -> list[str]:
    return tokens if rng.random() < 0.5 else []


def _select(rng) -> list[str]:
    def item(r):
        return _expr(r) + r.choice([[], [], ["AS", r.choice(NAMES)], [r.choice(NAMES)]])

    def order(r):
        return _expr(r) + r.choice([[], ["ASC"], ["DESC"]])

    out = ["SELECT", *_maybe(rng, ["DISTINCT"]), *_commas(_some(rng, item, 3)), "FROM"]
    out += _commas(_some(rng, lambda r: [r.choice(NAMES)], 2))
    out += _maybe(rng, ["WHERE", *_expr(rng)])
    if rng.random() < 0.3:
        out += ["GROUP", "BY", *_commas(_some(rng, _expr, 2))]
        out += _maybe(rng, ["HAVING", *_expr(rng)])
    if rng.random() < 0.3:
        out += ["ORDER", "BY", *_commas(_some(rng, order, 2))]
    if rng.random() < 0.3:
        out += ["LIMIT", rng.choice(NUMBERS), *_maybe(rng, ["OFFSET", rng.choice(NUMBERS)])]
    return out + _maybe(rng, [";"])


def _insert(rng) -> list[str]:
    columns = _some(rng, lambda r: [r.choice(NAMES)], 3)
    rows = _some(rng, lambda r: ["(", *_commas(_some(r, _expr, 3)), ")"], 2)
    out = ["INSERT", "INTO", rng.choice(NAMES), "(", *_commas(columns), ")", "VALUES"]
    return out + _commas(rows)


def _update(rng) -> list[str]:
    sets = _some(rng, lambda r: [r.choice(NAMES), "=", *_expr(r)], 2)
    out = ["UPDATE", rng.choice(NAMES), "SET", *_commas(sets)]
    return out + _maybe(rng, ["WHERE", *_expr(rng)])


def _delete(rng) -> list[str]:
    return ["DELETE", "FROM", rng.choice(NAMES), *_maybe(rng, ["WHERE", *_expr(rng)])]


def _create(rng) -> list[str]:
    columns = _some(rng, lambda r: [r.choice(NAMES), *r.choice(COLUMN_TYPES).split()], 3)
    out = ["CREATE", "TABLE", *_maybe(rng, ["IF", "NOT", "EXISTS"]), rng.choice(NAMES)]
    return out + ["(", *_commas(columns), ")"]


def _drop(rng) -> list[str]:
    return ["DROP", "TABLE", *_maybe(rng, ["IF", "EXISTS"]), rng.choice(NAMES)]


STATEMENTS = [_select, _insert, _update, _delete, _create, _drop]


def mutate(rng, tokens: list[str]) -> list[str]:
    """Up to three token edits: drop, double, swap, replace or insert."""
    tokens = list(tokens)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        i = rng.randrange(len(tokens) + 1)
        kind = rng.choice(["drop", "double", "swap", "replace", "insert"])
        if kind == "insert" or i == len(tokens):
            tokens.insert(i, rng.choice(VOCABULARY))
        elif kind == "drop":
            del tokens[i]
        elif kind == "double":
            tokens.insert(i, tokens[i])
        elif kind == "swap" and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif kind == "replace":
            tokens[i] = rng.choice(VOCABULARY)
    return tokens


@settings(settings.get_profile("sql-front-end"))
@given(rng=st.randoms(use_true_random=True), separator=st.sampled_from([" ", "\n", "  \t"]))
def test_built_statements_match_the_reference(rng, separator):
    tokens = rng.choice(STATEMENTS)(rng)
    assert_same(separator.join(mutate(rng, tokens)))


def test_every_statement_kind_is_built_and_parses():
    """The builder reaches all six statements, and unmutated they parse
    (the ones above are not all errors)."""
    import random

    rng = random.Random(0)
    kinds = set()
    for _ in range(300):
        text = " ".join(rng.choice(STATEMENTS)(rng))
        try:
            kinds.add(type(parse_statement(text)).__name__)
        except SqlParseError:
            pass
    assert kinds == {"Select", "Insert", "Update", "Delete", "CreateTable", "DropTable"}


# ----------------------------------------------------------------------
# Raw texts
# ----------------------------------------------------------------------
ALPHABET = (
    "abcxyzABCXYZ_019 \t\n.,;()*+-/%<>=!'\"@#?"
    "²①٣½ß五 \U0001d7d9"  # ² ① ٣ ½ ß 五 nbsp 𝟙
)
#: Words and the number and quote shapes the scanner must split alike.
PIECES = sorted(
    set(ALPHABET)
    | {"SELECT", "FROM", "WHERE", "t", "x", "=", "<>", "NOT", "IN", "LIKE", "IS", "NULL",
       "BETWEEN", "AND", "OR", "LIMIT", "COUNT", "1e", "1.", ".5", "1.2.3", "1e-", "1E+5",
       "''", "'a''", "'it''s'", '""'}
)
raw_texts = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.tuples(
        st.sampled_from(["", "SELECT ", "SELECT * FROM t WHERE "]),
        st.sampled_from(["", " "]),
        st.lists(st.sampled_from(PIECES), max_size=16),
    ).map(lambda parts: parts[0] + parts[1].join(parts[2])),
)


@settings(settings.get_profile("sql-front-end"))
@given(text=raw_texts)
@example("SELECT * FROM T WHERE x = ²")
@example("SELECT * FROM T WHERE x = ①")
@example("SELECT * FROM T WHERE x = 1e²")
@example("SELECT * FROM T WHERE x = " + "1" * 5000)
@example("SELECT * FROM T LIMIT 2.5")
@example("SELECT * FROM T LIMIT 1 OFFSET x")
@example("SELECT 'a'' FROM t")
@example("SELECT ½x FROM t")
@example("SELECT x FROM t WHERE a NOT 'IN' (1)")
@example("SELECT a IS NULL + 1 FROM t")
@example("SELECT x FROM t WHERE NOT a = 1 = 2")
def test_raw_texts_match_the_reference(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT * FROM m WHERE " + "(" * 300 + "x > 1" + ")" * 300,
        "SELECT * FROM m WHERE " + "NOT " * 2000 + "x > 1",
        "SELECT * FROM m WHERE " + " OR ".join(["x = 1"] * 2000),
        "SELECT * FROM m WHERE " + "(" * 30 + "x = 1" + (" OR x = 1" * 30 + ")") * 30,
        "SELECT * FROM m WHERE " + " AND ".join(["x = 1"] * 63),
        "SELECT * FROM m WHERE " + "- " * 63 + "1 > 0",
    ],
    ids=["parens", "nots", "ors", "nested-chains", "ands-at-the-bound", "signs-at-the-bound"],
)
def test_deep_texts_match_the_reference(text):
    assert_same(text)
