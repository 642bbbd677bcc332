"""JDBC-SQL driver.

Bridges GridRM to relational data sources (site inventory/accounting
databases).  The native protocol *is* SQL, so this driver can do what no
other can: push the WHERE clause down to the source.  When every column a
WHERE clause references maps 1:1 onto a native column (no transform, no
unit scaling), the clause is rewritten with native names and shipped with
the native SELECT; otherwise the driver falls back to fetching the whole
native table and filtering locally, which is always correct.
"""

from __future__ import annotations

from repro.agents.sqlagent import SQLAGENT_PORT
from repro.dbapi.exceptions import SQLException
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.sql import ast_nodes as sql_ast
from repro.sql.render import render_expr, rewrite_columns

#: GLUE group -> (native table, {GLUE field -> native column}).
#: Only identity-mapped (un-transformed) fields are listed here; they are
#: both the translation table and the pushdown rename map.
_NATIVE_TABLES: dict[str, tuple[str, dict[str, str]]] = {
    "Host": (
        "hosts",
        {"HostName": "name", "SiteName": "site"},
    ),
    "Processor": (
        "hosts",
        {
            "HostName": "name",
            "SiteName": "site",
            "CPUCount": "cpus",
            "ClockSpeedMHz": "mhz",
            "LoadAverage1Min": "load1",
            "Timestamp": "updated",
        },
    ),
    "Job": (
        "jobs",
        {
            "HostName": "node",
            "JobId": "jobid",
            "Queue": "queue",
            "Owner": "owner",
            "State": "state",
            "CPUSeconds": "cpusec",
            "WallSeconds": "wallsec",
            "NodeCount": "nodes",
            "Timestamp": "submitted",
        },
    ),
}


class SqlDriver(GridRmDriver):
    """Relational data-source driver with WHERE pushdown."""

    protocol = "sql"
    default_port = SQLAGENT_PORT
    display_name = "JDBC-SQL"

    #: Incremented whenever a query's WHERE clause was pushed to the
    #: source; consumed by tests and the pushdown ablation bench.
    pushdowns = 0

    def build_mapping(self) -> SchemaMapping:
        groups = []
        for group, (_table, columns) in _NATIVE_TABLES.items():
            rules = [
                MappingRule(glue_field, native) for glue_field, native in columns.items()
            ]
            if group == "Host":
                rules += [
                    MappingRule(
                        "UniqueId", None, transform=lambda r: f"{r.get('name')}#sql"
                    ),
                    MappingRule("Reachable", None, transform=lambda r: True),
                    MappingRule("AgentName", None, transform=lambda r: "sql-db"),
                    MappingRule("Timestamp", "updated"),
                ]
            groups.append(GroupMapping(group, rules))
        return SchemaMapping(self.display_name, groups)

    # ------------------------------------------------------------------
    def hello(self, url: JdbcUrl):
        return (yield "SELECT COUNT(*) FROM hosts")[0] == "ok"

    def exchange(self, url: JdbcUrl, group: str, select: sql_ast.Select):
        entry = _NATIVE_TABLES.get(group)
        if entry is None:
            raise SQLException(f"{self.display_name} does not serve group {group!r}")
        table, columns = entry

        native_sql = f"SELECT * FROM {table}"
        if select.where is not None:
            rewritten = rewrite_columns(select.where, columns)
            if rewritten is not None:
                native_sql += f" WHERE {render_expr(rewritten)}"
                type(self).pushdowns += 1

        kind, *body = yield native_sql
        if kind == "error":
            raise SQLException(f"native SQL error: {body[0]}")
        if kind != "ok":
            raise ValueError(f"unexpected native response kind {kind!r}")
        cols, rows = body
        return [dict(zip(cols, r)) for r in rows]
