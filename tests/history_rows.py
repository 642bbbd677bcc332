"""Mapping-shaped rows in and out of the positional history API.

``HistoryStore.record`` takes a relation (a column layout plus one value
sequence per row), the shape a fetch produces, and the store keeps each
row as a tuple in its table's column order (``HistoryStore.layout``).
Tests mostly think in dicts: :func:`record_rows` lays a batch of dicts
out as a relation (the layout is every key the batch uses, in
first-seen order, and a key a row lacks is NULL, which is what the store
does with it anyway), and :func:`as_dicts` reads stored rows back as
dicts keyed by the store's layout.  Both are reference-side code: the
store itself builds no dict per row.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


def record_rows(
    store, group: str, rows: Iterable[Mapping[str, Any]], **provenance: Any
) -> int:
    rows = list(rows)
    columns = tuple(dict.fromkeys(key for row in rows for key in row))
    values = [[row.get(column) for column in columns] for row in rows]
    return store.record(group, columns, values, **provenance)


def as_dicts(
    store, group: str, watermark: float | None = None, *, source_url: str | None = None
) -> list[dict[str, Any]]:
    """``store.since(group, watermark, source_url=...)``, each stored
    tuple as a dict keyed by the group's layout, in layout order."""
    rows = store.since(group, watermark, source_url=source_url)
    if not rows:
        return []
    columns = store.layout(group)
    return [dict(zip(columns, row)) for row in rows]
