"""CacheController (paper Figure 2 and §4).

The gateway-level query cache: results of recent queries are kept for a
policy TTL and served to clients who accept cached data — "a heavily used
GridRM Gateway can return a view of the recent status of a site while
limiting resource intrusion", and the same mechanism "is used between
gateways to increase scalability by reducing unnecessary requests".

Keys are (source url, normalised SQL); values carry the result rows plus
the sample time and the GLUE group they answer, so the console can
display both without reading the SQL again.

The public contract is raw text in, normalised inside.  A caller that
already holds the query's :class:`~repro.core.plans.PlanEntry` hands
its normalised text down as ``key=`` and :func:`normalise_sql` is
skipped — the serving path normalises a query text once, in
``PlanCache.get``, however many sources it reads.

The cache is bounded: ``max_entries`` is an LRU capacity (0 =
unbounded).  Lookups refresh recency; inserting past
capacity evicts the least recently used entry and counts it in
``evictions``, so a long-running gateway's memory footprint stays flat.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

from repro.analysis import races
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import VirtualClock


@dataclass
class CachedResult:
    """One cached query result."""

    columns: list[str]
    rows: list[list[Any]]
    cached_at: float
    source_url: str
    sql: str
    #: GLUE group the query selects from ("?" when the storer named
    #: none); the tree view prints it.
    group: str = "?"

    def age(self, now: float) -> float:
        return now - self.cached_at


#: Distinct raw texts :func:`normalise_sql` remembers (LRU beyond it).
NORMALISE_MEMO_SIZE = 1024


@lru_cache(maxsize=NORMALISE_MEMO_SIZE)
def normalise_sql(sql: str) -> str:
    """Collapse whitespace and case-fold keywords/identifiers for cache keying.

    A pure function of its text, and dashboards resend byte-identical
    texts, so results are memoised (bounded: query texts come from
    clients).

    Deliberately cheap: semantically equal but textually different
    queries may miss, which only costs a refetch.  Quoted string
    literals are preserved **verbatim** (case and internal whitespace):
    ``WHERE Name = 'A'`` and ``WHERE Name = 'a'`` select different rows,
    so they must not collide on one cache/single-flight key.  Doubled
    quotes inside a literal (``'it''s'``) stay inside it; an
    unterminated literal is kept verbatim to the end of the string.
    """
    out: list[str] = []
    i, n = 0, len(sql)
    while i < n:
        quote = sql[i]
        if quote in ("'", '"'):
            # Quoted literal: copy through the closing quote unchanged.
            j = i + 1
            while j < n:
                if sql[j] == quote:
                    if j + 1 < n and sql[j + 1] == quote:
                        j += 2  # escaped quote, still inside the literal
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
            continue
        j = i
        while j < n and sql[j] not in ("'", '"'):
            j += 1
        segment = sql[i:j]
        collapsed = " ".join(segment.split()).lower()
        if collapsed:
            # Keep a single space where the raw text separated this
            # segment from an adjacent literal.
            if segment[0].isspace() and out:
                collapsed = " " + collapsed
            if segment[-1].isspace() and j < n:
                collapsed = collapsed + " "
        elif out and j < n:
            # Whitespace-only gap between two literals.
            collapsed = " "
        out.append(collapsed)
        i = j
    text = "".join(out)
    # Strip any run of trailing semicolons/whitespace (idempotently).
    while text and text[-1] in "; \t":
        text = text[:-1]
    return text


class CacheController:
    """TTL + LRU cache of query results over the virtual clock.

    ``_entries`` relies on dict insertion order as the recency order:
    oldest first.  Hits and stores move the key to the end; eviction
    pops from the front.
    """

    def __init__(
        self,
        clock: VirtualClock,
        *,
        ttl: float = 30.0,
        max_entries: int = 4096,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if ttl < 0:
            raise ValueError(f"negative ttl: {ttl!r}")
        if max_entries < 0:
            raise ValueError(f"negative max_entries: {max_entries!r}")
        self.clock = clock
        self.ttl = ttl
        self.max_entries = max_entries
        self._entries: dict[tuple[str, str], CachedResult] = {}
        # Counters live in the shared registry (prefix ``cache.``) so the
        # self-monitoring driver sees them; the ``hits``/``misses``/
        # ``evictions`` attribute reads below stay source-compatible.
        reg = registry if registry is not None else MetricsRegistry()
        self._hits = reg.counter("cache.hits")
        self._misses = reg.counter("cache.misses")
        self._evictions = reg.counter("cache.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.add(value - self._hits.value)

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def key(
        self, source_url: str, sql: str, normalised: str | None = None
    ) -> tuple[str, str]:
        return (source_url, normalised or normalise_sql(sql))

    def lookup(
        self,
        source_url: str,
        sql: str,
        *,
        max_age: float | None = None,
        key: str | None = None,
    ) -> Optional[CachedResult]:
        """A live cached result, or None.  ``max_age`` tightens the TTL
        per-request (a client may insist on fresher data); ``key`` is
        the already-normalised ``sql`` when the caller has it."""
        key = self.key(source_url, sql, key)
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "cache", f"{key[0]}|{key[1]}", "r", site="CacheController.lookup"
            )
        entry = self._entries.get(key)
        if entry is None:
            self._misses.add(1)
            return None
        now = self.clock.now()
        if entry.cached_at > now:
            # Stored by a concurrent sibling branch whose private timeline
            # ran ahead of ours: from this branch's point of view that
            # result does not exist yet.  Treat as a miss so the caller
            # takes the single-flight path (and pays its wait cost)
            # instead of time-travelling.
            self._misses.add(1)
            return None
        limit = self.ttl if max_age is None else min(self.ttl, max_age)
        if entry.age(now) > limit:
            self._misses.add(1)
            return None
        self._hits.add(1)
        # Refresh recency: move to the back of the eviction queue.
        self._entries.pop(key)
        self._entries[key] = entry
        return entry

    def lookup_stale(
        self, source_url: str, sql: str, *, key: str | None = None
    ) -> Optional[CachedResult]:
        """The last result for this query regardless of age.

        Graceful-degradation path: when a source's circuit breaker is
        OPEN the gateway would rather answer with whatever it last saw
        (flagged degraded) than with an error.  Does not count as a hit
        or a miss — it is outside the freshness contract.  Entries only
        vanish via :meth:`invalidate`/:meth:`sweep`, so keep the periodic
        sweep off sources you want stale answers for.
        """
        return self._entries.get(self.key(source_url, sql, key))

    def store(
        self,
        source_url: str,
        sql: str,
        columns: list[str],
        rows: list[list[Any]],
        *,
        group: str = "?",
        key: str | None = None,
    ) -> CachedResult:
        entry = CachedResult(
            columns=list(columns),
            rows=[list(r) for r in rows],
            cached_at=self.clock.now(),
            source_url=source_url,
            sql=sql,
            group=group,
        )
        key = self.key(source_url, sql, key)
        if races.ACTIVE is not None:
            digest = hashlib.sha256(
                repr((entry.columns, entry.rows)).encode()
            ).hexdigest()[:16]
            races.ACTIVE.note(
                "cache",
                f"{key[0]}|{key[1]}",
                "w",
                digest=digest,
                site="CacheController.store",
            )
        self._entries.pop(key, None)
        self._entries[key] = entry
        if self.max_entries:
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._evictions.add(1)
        return entry

    def invalidate(self, source_url: str | None = None) -> int:
        """Drop entries (all, or those of one source); returns the count."""
        if source_url is None:
            n = len(self._entries)
            self._entries.clear()
            return n
        doomed = [k for k in self._entries if k[0] == source_url]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def entries_by_source(self) -> dict[str, list[CachedResult]]:
        """All live entries grouped by source url, in one walk of the
        cache (the tree view reads these)."""
        now = self.clock.now()
        grouped: dict[str, list[CachedResult]] = {}
        for (url, _), entry in self._entries.items():
            if entry.age(now) <= self.ttl:
                grouped.setdefault(url, []).append(entry)
        return grouped

    def entries_for(self, source_url: str) -> list[CachedResult]:
        """All live entries of one source."""
        return self.entries_by_source().get(source_url, [])

    def sweep(self) -> int:
        """Evict expired entries; returns how many were dropped."""
        now = self.clock.now()
        doomed = [k for k, e in self._entries.items() if e.age(now) > self.ttl]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)
