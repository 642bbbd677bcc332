"""In-memory relational database.

Backs three things in the reproduction: the gateway's historical store
(paper §3.1.1 routes historical queries to "the Gateway's internal
database"), the SQL data-source agent, and assorted tests.  Tables carry a
declared column list with light type coercion on insert, and store each
row as a tuple in that column order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_statement
from repro.sql.plan import RowFn, compile_expr, compile_plan, join_rows
from repro.sql.values import SelectResult

#: Declared type -> the class a stored value has; coercing is calling
#: it.  A value already of that exact class is stored as it is (the
#: call would return the same object); a type not listed stores values
#: as given.
_CLASSES: dict[str, type] = {
    "INTEGER": int,
    "REAL": float,
    "TEXT": str,
    "BOOLEAN": bool,
    "TIMESTAMP": float,
}

#: Row builders a table keeps, one per ``(layout, fixed)`` pair; beyond
#: it the oldest is forgotten.  A history table sees one layout per
#: driver mapping and statement shape.
ROW_BUILDER_MEMO_SIZE = 64

#: One stored row: a value per table column, in table column order.
Row = tuple[Any, ...]

#: ``build(rows, fixed_values)`` -> the stored rows of a batch.
RowBuilder = Callable[[Iterable[Sequence[Any]], Sequence[Any]], list[Row]]


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
        self.rows: list[Row] = []
        #: ``(name, column, class)`` per column in table order: the one
        #: coercion table, which :meth:`row_builder` compiles.
        self._casts = tuple((c.name, c, _CLASSES.get(c.type)) for c in self.columns)
        self._builders: dict[
            tuple[tuple[str, ...], tuple[str, ...]], tuple[RowBuilder, tuple[str, ...]]
        ] = {}

    def coerce(self, column: ast.ColumnDef, value: Any) -> Any:
        if value is None:
            return None
        cls = _CLASSES.get(column.type)
        if cls is None:
            return value
        try:
            return cls(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SqlExecutionError(
                f"cannot coerce {value!r} to {column.type} for "
                f"{self.name}.{column.name}"
            ) from exc

    def coerce_row(self, values: Mapping[str, Any]) -> Row:
        """A column->value mapping as the row this table would store:
        every declared column in order, each value coerced to its type."""
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise SqlExecutionError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        build, _ = self.row_builder(tuple(values))
        (row,) = build([tuple(values.values())], ())
        return row

    def row_builder(
        self, layout: tuple[str, ...], fixed: tuple[str, ...] = ()
    ) -> tuple[RowBuilder, tuple[str, ...]]:
        """How to store rows laid out as ``layout``, and what they miss.

        ``build(rows, fixed_values)`` returns, for each sequence of
        ``rows`` (one value per ``layout`` column), the row
        :meth:`coerce_row` makes of ``dict(zip(layout, values))`` with
        the ``fixed`` columns set to ``fixed_values`` (over any layout
        column of the same name) and layout columns this table lacks
        left out; a repeated layout column takes its last value.  Each
        stored row is built once, as a tuple in table column order.  The
        second item names the table columns neither ``layout`` nor
        ``fixed`` supplies: they store NULL.

        Builders are memoised by the exact ``(layout, fixed)`` pair, at
        most :data:`ROW_BUILDER_MEMO_SIZE` of them.
        """
        key = (layout, fixed)
        memo = self._builders.get(key)
        if memo is not None:
            return memo
        # Index into a row, or ``~j`` into ``(*fixed_values, None)``.
        where = {name: i for i, name in enumerate(layout)}
        where.update((name, ~j) for j, name in enumerate(fixed))
        absent = ~len(fixed)
        steps = tuple((col, cls, where.get(name, absent)) for name, col, cls in self._casts)
        missing = tuple(col.name for col, _, i in steps if i == absent)
        coerce = self.coerce

        def build(rows: Iterable[Sequence[Any]], fixed_values: Sequence[Any]) -> list[Row]:
            extra = (*fixed_values, None)
            batch = []
            for values in rows:
                row = []
                for col, cls, i in steps:
                    value = values[i] if i >= 0 else extra[~i]
                    row.append(
                        value
                        if value.__class__ is cls or value is None
                        else coerce(col, value)
                    )
                batch.append(tuple(row))
            return batch

        if len(self._builders) >= ROW_BUILDER_MEMO_SIZE:
            del self._builders[next(iter(self._builders))]
        memo = self._builders[key] = (build, missing)
        return memo

    def insert_row(self, values: Mapping[str, Any]) -> None:
        """Insert one row given as a column->value mapping."""
        self.rows.append(self.coerce_row(values))

    def __len__(self) -> int:
        return len(self.rows)


def _matcher(where: ast.Expr | None, table: Table) -> RowFn:
    """An UPDATE / DELETE predicate compiled over ``table``'s stored rows:
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
                    [(t.column_names, t.rows) for t in map(self.table, stmt.tables)]
                )
                return plan.bind(tuple(columns)).execute(rows)
            table = self.table(stmt.table)
            return plan.bind(tuple(table.column_names)).execute(table.rows)
        # DML builds everything it will write before it writes anything:
        # a statement that raises leaves the table as it found it.
        if isinstance(stmt, ast.Insert):
            table = self.table(stmt.table)
            # VALUES sees no row: a column reference is an unknown column.
            inserted = [
                table.coerce_row(
                    {c: compile_expr(v, ())(()) for c, v in zip(stmt.columns, values)}
                )
                for values in stmt.rows
            ]
            table.rows.extend(inserted)
            return len(inserted)
        if isinstance(stmt, ast.Update):
            table = self.table(stmt.table)
            slots = {c.name: (i, c) for i, c in enumerate(table.columns)}
            for name, _ in stmt.assignments:
                if name not in slots:
                    raise SqlExecutionError(
                        f"unknown column {name!r} in UPDATE {stmt.table}"
                    )
            matches = _matcher(stmt.where, table)
            assignments = [
                (*slots[name], compile_expr(expr, table.column_names))
                for name, expr in stmt.assignments
            ]
            # Every right-hand side reads the row as the statement found
            # it (``SET a = b, b = a`` swaps); each matched row is replaced.
            updated: dict[int, Row] = {}
            for at, row in enumerate(table.rows):
                if matches(row):
                    new = list(row)
                    for i, c, value in assignments:
                        new[i] = table.coerce(c, value(row))
                    updated[at] = tuple(new)
            for at, row in updated.items():
                table.rows[at] = row
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
