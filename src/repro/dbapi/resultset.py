"""Concrete list-backed ResultSet.

All GridRM drivers ultimately populate one of these: "String queries in,
and ResultSets out" (paper §3).  The cursor starts *before* the first row,
as in JDBC; ``next()`` must be called before the first ``get``.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.dbapi.exceptions import SQLDataException, SQLException
from repro.dbapi.interfaces import ResultSet, ResultSetMetaData


class ListResultSetMetaData(ResultSetMetaData):
    """Metadata over a fixed column list with optional declared types."""

    def __init__(
        self, columns: Sequence[str], types: Sequence[str] | None = None
    ) -> None:
        self._columns = list(columns)
        if types is None:
            self._types = ["TEXT"] * len(self._columns)
        else:
            if len(types) != len(columns):
                raise SQLException(
                    f"{len(columns)} columns but {len(types)} types supplied"
                )
            self._types = list(types)

    def column_count(self) -> int:
        return len(self._columns)

    def column_name(self, index: int) -> str:
        self._check(index)
        return self._columns[index - 1]

    def column_type(self, index: int) -> str:
        self._check(index)
        return self._types[index - 1]

    def column_index(self, name: str) -> int:
        try:
            return self._columns.index(name) + 1
        except ValueError:
            # Case-insensitive fallback, matching the SQL executor.
            lowered = name.lower()
            for i, c in enumerate(self._columns):
                if c.lower() == lowered:
                    return i + 1
            raise SQLException(f"no such column: {name!r}") from None

    def _check(self, index: int) -> None:
        if not 1 <= index <= len(self._columns):
            raise SQLException(
                f"column index {index} out of range 1..{len(self._columns)}"
            )


class ListResultSet(ResultSet):
    """ResultSet over materialised rows.

    >>> rs = ListResultSet(["host", "load"], [["a", 0.5], ["b", 1.5]])
    >>> rs.next()
    True
    >>> rs.get("load")
    0.5
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[Sequence[Any]],
        types: Sequence[str] | None = None,
    ) -> None:
        self._meta = ListResultSetMetaData(columns, types)
        self._columns = list(columns)
        self._rows = [list(r) for r in rows]
        for i, r in enumerate(self._rows):
            if len(r) != len(self._columns):
                raise SQLException(
                    f"row {i} has {len(r)} values for {len(self._columns)} columns"
                )
        self._cursor = -1
        self._closed = False
        self._last_was_null = False

    @classmethod
    def adopt(
        cls,
        columns: Sequence[str],
        rows: list[list[Any]],
        types: Sequence[str] | None = None,
    ) -> "ListResultSet":
        """Wrap freshly-built rows without the defensive per-row copy.

        The caller transfers ownership of ``rows`` (a list of equal-width
        lists nothing else will mutate) — the compiled-plan result path
        uses this so driver results are materialised exactly once.
        Length validation is skipped: the plan executor constructs every
        row against a fixed projection, so widths hold by construction.
        """
        rs = cls.__new__(cls)
        rs._meta = ListResultSetMetaData(columns, types)
        rs._columns = list(columns)
        rs._rows = rows
        rs._cursor = -1
        rs._closed = False
        rs._last_was_null = False
        return rs

    # ------------------------------------------------------------------
    # Cursor protocol
    # ------------------------------------------------------------------
    def next(self) -> bool:
        self._check_open()
        if self._cursor + 1 >= len(self._rows):
            self._cursor = len(self._rows)
            return False
        self._cursor += 1
        return True

    def row_count(self) -> int:
        """Total rows (an extension: GridRM consolidates counts eagerly)."""
        return len(self._rows)

    def get(self, column: int | str) -> Any:
        self._check_open()
        if not 0 <= self._cursor < len(self._rows):
            raise SQLException("cursor is not positioned on a row; call next()")
        if isinstance(column, str):
            index = self._meta.column_index(column)
        else:
            self._meta._check(column)
            index = column
        value = self._rows[self._cursor][index - 1]
        self._last_was_null = value is None
        return value

    def get_string(self, column: int | str) -> str | None:
        value = self.get(column)
        return None if value is None else str(value)

    def get_int(self, column: int | str) -> int | None:
        value = self.get(column)
        if value is None:
            return None
        try:
            return int(float(value)) if isinstance(value, str) else int(value)
        except (TypeError, ValueError) as exc:
            raise SQLDataException(f"cannot convert {value!r} to int") from exc

    def get_float(self, column: int | str) -> float | None:
        value = self.get(column)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise SQLDataException(f"cannot convert {value!r} to float") from exc

    def get_bool(self, column: int | str) -> bool | None:
        value = self.get(column)
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "yes", "1", "on"):
                return True
            if lowered in ("false", "f", "no", "0", "off"):
                return False
        raise SQLDataException(f"cannot convert {value!r} to bool")

    def was_null(self) -> bool:
        return self._last_was_null

    def metadata(self) -> ListResultSetMetaData:
        return self._meta

    def close(self) -> None:
        self._closed = True

    def is_closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Pythonic access
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield remaining rows as dicts, advancing the cursor."""
        while self.next():
            yield dict(zip(self._columns, self._rows[self._cursor]))

    def to_dicts(self) -> list[dict[str, Any]]:
        """All rows as dicts, ignoring cursor state (does not advance it)."""
        return [dict(zip(self._columns, r)) for r in self._rows]

    def raw_rows(self) -> list[list[Any]]:
        """All row value lists, ignoring cursor state (does not advance it)."""
        return [list(r) for r in self._rows]

    def take_rows(self) -> list[list[Any]]:
        """Move the row storage out of this ResultSet (zero-copy).

        The caller takes ownership of the returned lists; the ResultSet
        is left empty (cursor reset), so subsequent reads see no rows
        rather than aliased ones.
        """
        rows = self._rows
        self._rows = []
        self._cursor = -1
        return rows

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise SQLException("ResultSet is closed")
