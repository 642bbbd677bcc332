"""Compile-time GLUE query validation.

Checks a parsed SELECT (:mod:`repro.sql.ast_nodes`) against a
:class:`~repro.glue.schema.GlueSchema` *before* any driver is selected or
any agent round-trip is spent — the R-GMA insight that a relational query
over a fixed schema can be proven doomed at submission time:

* **unknown group** (``GRM201``) — a FROM relation no GLUE group defines;
* **unknown attribute** (``GRM202``) — a column reference no named group
  (nor projection alias, nor caller-supplied extra field) defines;
* **type-incompatible predicate** (``GRM203``) — a comparison between a
  typed GLUE attribute and a literal of an incomparable type
  (``Vendor > 5``, ``CPUCount = 'lots'``).  The type table is
  :data:`repro.glue.validation.TYPE_CHECKS`, shared with the row
  validator, collapsed to comparability classes: the numeric types
  (INTEGER / REAL / TIMESTAMP) compare with each other freely.

NULL literals always pass (``f = NULL`` is legal, merely never true —
the executor's SQL ternary logic owns that semantics, not the checker).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.analysis.findings import Finding, Severity
from repro.glue.schema import GlueSchema
from repro.glue.validation import TYPE_CHECKS
from repro.sql import ast_nodes as sql_ast

#: Binary operators whose operands must be comparable.
_COMPARISONS = frozenset({"=", "==", "<>", "!=", "<", "<=", ">", ">=", "LIKE"})

#: GLUE type -> comparability class representative in TYPE_CHECKS.
_COMPARE_AS = {
    "TEXT": "TEXT",
    "INTEGER": "REAL",  # numeric types compare with each other freely
    "REAL": "REAL",
    "TIMESTAMP": "REAL",
    "BOOLEAN": "BOOLEAN",
}


def literal_compatible(field_type: str, value: object) -> bool:
    """Whether a literal value is comparable with a GLUE field type.

    NULL (None) is always compatible — comparisons against it are legal
    SQL that simply never matches (three-valued logic).
    """
    if value is None:
        return True
    check = TYPE_CHECKS.get(_COMPARE_AS.get(field_type, field_type))
    if check is None:
        return True
    return check(value)


def validate_select(
    select: sql_ast.Select,
    schema: GlueSchema,
    *,
    extra_fields: Iterable[str] = (),
    path: str = "<query>",
) -> list[Finding]:
    """All compile-time findings for one SELECT against one schema."""
    findings: list[Finding] = []

    #: lowercase attribute name -> GLUE type (None when untyped: extra
    #: fields and projection aliases).
    known: dict[str, "str | None"] = {}
    unknown_groups = []
    for table in select.tables:
        if not schema.has_group(table):
            unknown_groups.append(table)
            findings.append(
                Finding(
                    rule_id="GRM201",
                    severity=Severity.ERROR,
                    message=(
                        f"unknown GLUE group {table!r} "
                        f"(schema {schema.version} defines: "
                        f"{', '.join(schema.group_names())})"
                    ),
                    path=path,
                    symbol=table,
                )
            )
            continue
        for fdef in schema.group(table).fields:
            known.setdefault(fdef.name.lower(), fdef.type)
    for name in extra_fields:
        known.setdefault(name.lower(), None)
    for item in select.items:
        if item.alias:
            known.setdefault(item.alias.lower(), None)

    if unknown_groups:
        # Attribute/type findings against a half-known field set would be
        # noise; the group error already dooms the query.
        return findings

    # -- unknown attributes --------------------------------------------
    seen: set[str] = set()
    nodes = sql_ast.walk(*select.expressions())
    for column in nodes:
        if not isinstance(column, sql_ast.Column):
            continue
        name = column.name.lower()
        if name in known or name in seen:
            continue
        seen.add(name)
        findings.append(
            Finding(
                rule_id="GRM202",
                severity=Severity.ERROR,
                message=(
                    f"unknown attribute {column.qualified!r} — no group "
                    f"in FROM ({', '.join(select.tables)}) defines it"
                ),
                path=path,
                symbol=column.name,
            )
        )

    # -- type-incompatible predicates ----------------------------------
    findings.extend(_check_predicates(nodes, known, path))
    return findings


def validate_sql(
    sql: str,
    schema: GlueSchema,
    *,
    extra_fields: Iterable[str] = (),
    path: str = "<query>",
) -> list[Finding]:
    """Parse-and-validate convenience; syntax errors become findings."""
    from repro.sql.errors import SqlError
    from repro.sql.parser import parse_select

    try:
        select = parse_select(sql)
    except SqlError as exc:
        return [
            Finding(
                rule_id="GRM200",
                severity=Severity.ERROR,
                message=f"syntax error: {exc}",
                path=path,
                symbol="syntax",
            )
        ]
    return validate_select(select, schema, extra_fields=extra_fields, path=path)


# ----------------------------------------------------------------------
def _mismatch(
    column: sql_ast.Column,
    field_type: str,
    literal: sql_ast.Literal,
    op: str,
    path: str,
) -> Finding:
    return Finding(
        rule_id="GRM203",
        severity=Severity.ERROR,
        message=(
            f"predicate {column.name} {op} {literal.value!r} compares "
            f"{field_type} attribute with "
            f"{type(literal.value).__name__} literal"
        ),
        path=path,
        symbol=f"{column.name}:{op}",
    )


def _check_predicates(
    nodes: "list[sql_ast.Expr]", known: Mapping[str, "str | None"], path: str
) -> "list[Finding]":
    """GRM203 findings over ``nodes``, a statement's :func:`~repro.sql.ast_nodes.walk`."""
    findings: list[Finding] = []

    def check_pair(
        a: sql_ast.Expr, b: sql_ast.Expr, op: str
    ) -> None:
        column, literal = None, None
        if isinstance(a, sql_ast.Column) and isinstance(b, sql_ast.Literal):
            column, literal = a, b
        elif isinstance(b, sql_ast.Column) and isinstance(a, sql_ast.Literal):
            column, literal = b, a
        if column is None or literal is None:
            return
        field_type = known.get(column.name.lower())
        if field_type is None:
            return
        if not literal_compatible(field_type, literal.value):
            findings.append(_mismatch(column, field_type, literal, op, path))

    for e in nodes:
        if isinstance(e, sql_ast.BinOp):
            if e.op.upper() in _COMPARISONS or e.op in _COMPARISONS:
                check_pair(e.left, e.right, e.op)
        elif isinstance(e, sql_ast.InList):
            for item in e.items:
                check_pair(e.expr, item, "IN")
        elif isinstance(e, sql_ast.Between):
            check_pair(e.expr, e.low, "BETWEEN")
            check_pair(e.expr, e.high, "BETWEEN")
    return findings
