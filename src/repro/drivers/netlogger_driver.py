"""JDBC-NetLogger driver.

Serves the ``LogEvent`` GLUE group from a NetLogger agent's ULM record
stream.  Fine-grained like SNMP (§3.3): the driver pushes the query down
to the agent where the native protocol allows —

* ``WHERE Program = 'x'``      -> ``MATCH PROG=x``
* ``WHERE EventName = 'y'``    -> ``MATCH NL.EVNT=y``
* ``WHERE EventTime >= t``     -> ``SINCE t``
* ``LIMIT n`` (no WHERE)       -> ``TAIL n``

so only matching lines cross the wire; anything the pushdown cannot
express is still filtered by the statement layer afterwards.
"""

from __future__ import annotations

from typing import Any

from repro.agents.netlogger import NETLOGGER_PORT, parse_ulm_line
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast

#: Default tail size when no pushdown-friendly constraint is present.
DEFAULT_TAIL = 256

#: GLUE field -> ULM field for equality pushdown via MATCH.
_MATCH_FIELDS = {"Program": "PROG", "EventName": "NL.EVNT", "Level": "LVL"}


#: Fields every ULM record carries (the ULM draft's own four plus
#: NetLogger's event name); a line without them was cut short.
_ULM_REQUIRED = {"DATE", "HOST", "PROG", "LVL", "NL.EVNT"}


def _parse_ulm_date(text: str) -> float | None:
    """Invert :func:`repro.agents.netlogger.format_ulm_date`."""
    # Format: 20030615<seconds:010d>.<micros:06d>
    if len(text) < 19 or not text.startswith("20030615"):
        return None
    try:
        whole = int(text[8:18])
        micros = int(text.partition(".")[2] or "0")
    except ValueError:
        return None
    return whole + micros / 1e6


def _equality_pushdown(where: sql_ast.Expr | None) -> tuple[str, str] | None:
    """Detect a top-level ``Column = 'literal'`` suited to MATCH."""
    if not isinstance(where, sql_ast.BinOp) or where.op != "=":
        return None
    col, lit = where.left, where.right
    if not isinstance(col, sql_ast.Column):
        col, lit = lit, col
    if isinstance(col, sql_ast.Column) and isinstance(lit, sql_ast.Literal):
        ulm = _MATCH_FIELDS.get(col.name)
        if ulm is not None and isinstance(lit.value, str):
            return ulm, lit.value
    return None


def _since_pushdown(where: sql_ast.Expr | None) -> float | None:
    """Detect a top-level ``EventTime >= t`` (or > t) constraint."""
    if not isinstance(where, sql_ast.BinOp) or where.op not in (">=", ">"):
        return None
    if (
        isinstance(where.left, sql_ast.Column)
        and where.left.name == "EventTime"
        and isinstance(where.right, sql_ast.Literal)
        and isinstance(where.right.value, (int, float))
    ):
        return float(where.right.value)
    return None


class NetLoggerDriver(GridRmDriver):
    """NetLogger ULM data-source driver with native query pushdown."""

    protocol = "netlogger"
    default_port = NETLOGGER_PORT
    display_name = "JDBC-NetLogger"

    def build_mapping(self) -> SchemaMapping:
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "LogEvent",
                    [
                        MappingRule("HostName", "HOST"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule("EventTime", "DATE"),
                        MappingRule("Program", "PROG"),
                        MappingRule("EventName", "NL.EVNT"),
                        MappingRule("Level", "LVL"),
                        MappingRule("Message", "_line"),
                    ],
                ),
                GroupMapping(
                    "Host",
                    [
                        MappingRule("HostName", "_host"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule(
                            "UniqueId",
                            None,
                            transform=lambda r: f"{r['_host']}#netlogger",
                        ),
                        MappingRule("Reachable", None, transform=lambda r: True),
                        MappingRule("AgentName", None, transform=lambda r: "netlogger"),
                    ],
                ),
            ],
        )

    # ------------------------------------------------------------------
    def hello(self, url: JdbcUrl):
        return not (yield "TAIL 1").startswith("ERROR")

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        if group == "Host":
            return [{"_host": url.host}]

        # Choose the native request: MATCH > SINCE > TAIL.
        match = _equality_pushdown(select.where)
        since = _since_pushdown(select.where) if match is None else None
        if match is not None:
            native = f"MATCH {match[0]}={match[1]}"
        elif since is not None:
            native = f"SINCE {since}"
        else:
            limit = select.limit if select.limit is not None else DEFAULT_TAIL
            native = f"TAIL {limit}"
        records: list[dict[str, Any]] = []
        for line in (yield native).splitlines():
            if not line or line.startswith("ERROR"):
                continue
            fields: dict[str, Any] = parse_ulm_line(line)
            when = _parse_ulm_date(fields["DATE"]) if _ULM_REQUIRED <= fields.keys() else None
            if when is None:
                raise ValueError(f"incomplete or undated ULM record: {line!r}")
            fields["DATE"], fields["_line"] = when, line
            records.append(fields)
        return records
