"""SQL lexer.

One compiled pattern, read with ``finditer``, produces a flat token
list.  Keywords are case-insensitive; identifiers preserve case (GLUE
group and attribute names are CamelCase, e.g. ``Processor.ClockSpeed``).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.sql.errors import SqlParseError


class TokenType(enum.Enum):
    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


#: Reserved words recognised as keywords (upper-cased canonical form).
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR NOT IN LIKE BETWEEN IS NULL TRUE FALSE
    ORDER BY ASC DESC LIMIT OFFSET GROUP HAVING DISTINCT AS
    INSERT INTO VALUES UPDATE SET DELETE CREATE DROP TABLE IF EXISTS
    COUNT SUM AVG MIN MAX
    INTEGER REAL TEXT BOOLEAN TIMESTAMP
    """.split()
)


class Token(NamedTuple):
    """One lexical token with its source position (for error messages).

    ``raw`` preserves the source spelling for keywords (``value`` is the
    upper-cased canonical form) so that keywords doubling as identifiers
    — a column named ``Timestamp`` — keep their case.
    """

    type: TokenType
    value: str
    pos: int
    raw: str = ""


#: Whitespace, then exactly one alternative per token start; each group
#: spans its whole token.  Numbers are read from decimal digits only
#: (``\d`` is ``str.isdecimal``), so ``²`` or ``①`` is an unexpected
#: character rather than a NUMBER ``int()`` cannot read.  A string ends at
#: a quote that is not doubled; a quote that opens no complete string is
#: unterminated.
_TOKEN = re.compile(
    r"""\s*(?:
        ([^\W\d]\w*)                             # 1 word
      | ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)   # 2 number
      | (<=|>=|<>|!=|[=<>+\-*/%])                # 3 operator
      | ([(),.;])                                # 4 punctuation
      | ('[^']*(?:''[^']*)*'(?!'))               # 5 single-quoted string
      | ("[^"]*(?:""[^"]*)*"(?!"))               # 6 double-quoted string
      | (\Z)                                     # 7 end of text
      | (['"])                                   # 8 unterminated string
      | (.)                                      # 9 anything else
    )""",
    re.VERBOSE | re.DOTALL,
)
_WORD, _NUMBER, _OPERATOR, _PUNCT, _SINGLE, _DOUBLE, _END, _QUOTE = range(1, 9)
_KEYWORD, _IDENT, _STRING, _EOF = (
    TokenType.KEYWORD, TokenType.IDENT, TokenType.STRING, TokenType.EOF
)
_FIXED = (None, None, TokenType.NUMBER, TokenType.OPERATOR, TokenType.PUNCT)
_new = tuple.__new__  # builds a Token without a Python-level __new__ frame


class Lexer:
    """Tokenise a SQL string.

    >>> [t.value for t in Lexer("SELECT * FROM Processor").tokens()][:4]
    ['SELECT', '*', 'FROM', 'Processor']
    """

    def __init__(self, text: str) -> None:
        self.text = text

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        append = out.append
        for m in _TOKEN.finditer(self.text):
            kind = m.lastindex
            text, pos = m[kind], m.start(kind)
            if kind == _WORD:
                upper = text.upper()
                if upper in KEYWORDS:
                    append(_new(Token, (_KEYWORD, upper, pos, text)))
                elif text[0].isalpha() or text[0] == "_":
                    append(_new(Token, (_IDENT, text, pos, "")))
                else:  # a numeric character that is no decimal digit, e.g. ½
                    _unexpected(text[0], pos)
            elif kind <= _PUNCT:
                append(_new(Token, (_FIXED[kind], text, pos, "")))
            elif kind <= _DOUBLE:
                quote = text[0]
                value = text[1:-1].replace(quote + quote, quote)
                append(_new(Token, (_STRING, value, pos, "")))
            elif kind == _END:
                append(_new(Token, (_EOF, "", pos, "")))
                return out
            elif kind == _QUOTE:
                raise SqlParseError(f"unterminated string starting at {pos}", pos)
            else:
                _unexpected(text, pos)
        raise AssertionError("the pattern always matches the end of the text")


def _unexpected(ch: str, pos: int) -> None:
    raise SqlParseError(f"unexpected character {ch!r} at position {pos}", pos)


def number(text: str) -> int | float:
    """The value of a NUMBER token's text: ``float`` when it has a point
    or an exponent, else ``int`` (``ValueError`` past the int-string
    limit)."""
    return float(text) if "." in text or "e" in text or "E" in text else int(text)


#: A statement's shape: its tokens' source texts, with the class of the
#: value (``int``, ``float`` or ``str``) where a literal stood.
Shape = tuple[object, ...]


def literal_shape(text: str) -> tuple[Shape, tuple[object, ...]] | None:
    """``text``'s shape and its literal values, in source order.

    One pass of the lexer's own pattern, so a literal starts and ends
    where the lexer says it does (a double-quoted string holding digits
    is one STRING).  Each NUMBER and STRING token becomes a slot typed
    by the value the parser builds from it (:func:`number`; quotes and
    doubled quotes resolved for ``str``).  Every other token stays in
    the shape as it was spelt, TRUE, FALSE and NULL included, so two
    texts of one shape parse to one tree up to the literals in it.

    ``None`` when the lexer would refuse the text, or the parser one of
    its literals (an integer past the int-string limit): the caller
    takes the full path and raises the error from there.
    """
    shape: list[object] = []
    values: list[object] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        token = m[kind]
        if kind == _NUMBER:
            try:
                value = number(token)
            except ValueError:
                return None
            values.append(value)
            shape.append(value.__class__)
        elif kind == _SINGLE or kind == _DOUBLE:
            quote = token[0]
            values.append(token[1:-1].replace(quote + quote, quote))
            shape.append(str)
        elif kind == _WORD:
            if not (token[0].isalpha() or token[0] == "_"):
                return None
            shape.append(token)
        elif kind <= _PUNCT:
            shape.append(token)
        elif kind == _END:
            return tuple(shape), tuple(values)
        else:
            return None
    raise AssertionError("the pattern always matches the end of the text")
