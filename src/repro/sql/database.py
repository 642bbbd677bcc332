"""In-memory relational database.

Backs three things in the reproduction: the gateway's historical store
(paper §3.1.1 routes historical queries to "the Gateway's internal
database"), the SQL data-source agent, and assorted tests.  Tables carry a
declared column list with light type coercion on insert.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_statement
from repro.sql.plan import RowFn, compile_expr, compile_plan, join_rows
from repro.sql.values import SelectResult

_COERCERS = {
    "INTEGER": lambda v: int(v),
    "REAL": lambda v: float(v),
    "TEXT": lambda v: str(v),
    "BOOLEAN": lambda v: bool(v),
    "TIMESTAMP": lambda v: float(v),
}


class Table:
    """One named relation: ordered columns, declared types, row storage."""

    def __init__(self, name: str, columns: Sequence[ast.ColumnDef]) -> None:
        if not columns:
            raise SqlExecutionError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SqlExecutionError(f"duplicate column in table {name!r}")
        self.name = name
        self.columns = list(columns)
        self.column_names = names
        self.rows: list[dict[str, Any]] = []

    def coerce(self, column: ast.ColumnDef, value: Any) -> Any:
        if value is None:
            return None
        coercer = _COERCERS.get(column.type)
        if coercer is None:
            return value
        try:
            return coercer(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SqlExecutionError(
                f"cannot coerce {value!r} to {column.type} for "
                f"{self.name}.{column.name}"
            ) from exc

    def coerce_row(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """A column->value mapping as the row this table would store:
        every declared column present, each value coerced to its type."""
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise SqlExecutionError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        row: dict[str, Any] = {}
        for col in self.columns:
            row[col.name] = self.coerce(col, values.get(col.name))
        return row

    def insert_row(self, values: Mapping[str, Any]) -> None:
        """Insert one row given as a column->value mapping."""
        self.rows.append(self.coerce_row(values))

    def __len__(self) -> int:
        return len(self.rows)


def _matcher(where: ast.Expr | None, table: Table) -> RowFn:
    """An UPDATE / DELETE predicate compiled over ``table``'s rows:
    truthy picks a row, NULL counts as false, no clause picks every row."""
    if where is None:
        return lambda row: True
    return compile_expr(where, table.column_names)


class Database:
    """A set of tables addressable by SQL text or pre-parsed statements.

    >>> db = Database()
    >>> db.execute("CREATE TABLE m (host TEXT, load REAL)")
    0
    >>> db.execute("INSERT INTO m (host, load) VALUES ('a', 0.5)")
    1
    >>> db.execute("SELECT load FROM m WHERE host = 'a'").rows
    [[0.5]]
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[ast.ColumnDef | tuple[str, str] | str],
        *,
        if_not_exists: bool = False,
    ) -> Table:
        """Programmatic CREATE TABLE; columns may be names, pairs or defs."""
        if name in self.tables:
            if if_not_exists:
                return self.tables[name]
            raise SqlExecutionError(f"table already exists: {name!r}")
        defs: list[ast.ColumnDef] = []
        for c in columns:
            if isinstance(c, ast.ColumnDef):
                defs.append(c)
            elif isinstance(c, tuple):
                defs.append(ast.ColumnDef(name=c[0], type=c[1]))
            else:
                defs.append(ast.ColumnDef(name=c))
        table = Table(name, defs)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        t = self.tables.get(name)
        if t is None:
            raise SqlExecutionError(f"no such table: {name!r}")
        return t

    def insert_rows(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk insert of mappings; returns the number inserted."""
        table = self.table(name)
        n = 0
        for r in rows:
            table.insert_row(r)
            n += 1
        return n

    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Any:
        """Parse and execute one statement of SQL text."""
        return self.execute_ast(parse_statement(sql))

    def execute_ast(self, stmt: ast.Statement) -> Any:
        if isinstance(stmt, ast.Select):
            plan = compile_plan(stmt)
            if stmt.is_join:
                columns, rows = join_rows(
                    [
                        (t.column_names, [[r.get(c) for c in t.column_names] for r in t.rows])
                        for t in map(self.table, stmt.tables)
                    ]
                )
                return plan.bind(tuple(columns)).execute(rows)
            table = self.table(stmt.table)
            return plan.bind_mapping(tuple(table.column_names)).execute(table.rows)
        # DML builds everything it will write before it writes anything:
        # a statement that raises leaves the table as it found it.
        if isinstance(stmt, ast.Insert):
            table = self.table(stmt.table)
            # VALUES sees no row: a column reference is an unknown column.
            inserted = [
                table.coerce_row(
                    {c: compile_expr(v, ())({}) for c, v in zip(stmt.columns, values)}
                )
                for values in stmt.rows
            ]
            table.rows.extend(inserted)
            return len(inserted)
        if isinstance(stmt, ast.Update):
            table = self.table(stmt.table)
            coldefs = {c.name: c for c in table.columns}
            for name, _ in stmt.assignments:
                if name not in coldefs:
                    raise SqlExecutionError(
                        f"unknown column {name!r} in UPDATE {stmt.table}"
                    )
            matches = _matcher(stmt.where, table)
            assignments = [
                (name, coldefs[name], compile_expr(expr, table.column_names))
                for name, expr in stmt.assignments
            ]
            # Every right-hand side reads the row as the statement found
            # it (``SET a = b, b = a`` swaps).
            updated = [
                (row, {n: table.coerce(c, value(row)) for n, c, value in assignments})
                for row in table.rows
                if matches(row)
            ]
            for row, values in updated:
                row.update(values)
            return len(updated)
        if isinstance(stmt, ast.Delete):
            table = self.table(stmt.table)
            matches = _matcher(stmt.where, table)
            before = len(table.rows)
            table.rows = [r for r in table.rows if not matches(r)]
            return before - len(table.rows)
        if isinstance(stmt, ast.CreateTable):
            self.create_table(
                stmt.table, stmt.columns, if_not_exists=stmt.if_not_exists
            )
            return 0
        if isinstance(stmt, ast.DropTable):
            if stmt.table not in self.tables:
                if stmt.if_exists:
                    return 0
                raise SqlExecutionError(f"no such table: {stmt.table!r}")
            del self.tables[stmt.table]
            return 0
        raise SqlExecutionError(f"unsupported statement {type(stmt).__name__}")

    def query(self, sql: str) -> SelectResult:
        """Execute SQL text that must be a SELECT."""
        result = self.execute(sql)
        if not isinstance(result, SelectResult):
            raise SqlExecutionError("query() requires a SELECT statement")
        return result
