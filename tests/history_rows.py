"""Recording mapping-shaped rows through the positional history API.

``HistoryStore.record`` takes a relation (a column layout plus one value
sequence per row), the shape a fetch produces.  Tests mostly think in
dicts; :func:`record_rows` lays a batch of dicts out as that relation:
the layout is every key the batch uses, in first-seen order, and a key
a row lacks is NULL, which is what the store does with it anyway.
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
