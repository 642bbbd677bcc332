"""SQL substrate.

GridRM uses SQL pervasively: clients query GLUE groups with ``SELECT``
statements, drivers receive the same strings, and the gateway's historical
store is relational (paper §3).  This package is a from-scratch SQL engine
covering the dialect GridRM needs:

* ``SELECT [DISTINCT] ... FROM t [WHERE ...] [GROUP BY ...] [ORDER BY ...]
  [LIMIT n]`` with aggregates (COUNT/SUM/AVG/MIN/MAX), arithmetic,
  comparison, ``LIKE``/``IN``/``BETWEEN``/``IS NULL``, AND/OR/NOT.
* ``INSERT INTO``, ``UPDATE``, ``DELETE``, ``CREATE TABLE``, ``DROP TABLE``.

The lexer/parser (:mod:`repro.sql.parser`) is also reused standalone by
data-source drivers — the paper ships "a class to parse the SQL query
strings ... as part of a GridRM driver development API" (§3.2.1).
"""

from repro.sql.errors import SqlError, SqlParseError, SqlExecutionError
from repro.sql.lexer import Lexer, Token, TokenType
from repro.sql.parser import parse_statement, parse_select
from repro.sql.database import Database, Table
from repro.sql import ast_nodes as ast

__all__ = [
    "SqlError",
    "SqlParseError",
    "SqlExecutionError",
    "Lexer",
    "Token",
    "TokenType",
    "parse_statement",
    "parse_select",
    "Database",
    "Table",
    "ast",
]
