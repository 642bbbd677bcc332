"""Plan cache: parse + validate + compile a query exactly once.

Every layer that used to analyse SQL on its own — the gateway's
authorisation, the request manager, the driver translation path, the
history scan, the result cache and single-flight keying, the console's
tree view — reads a :class:`PlanEntry` instead: one
:meth:`PlanCache.get` per ``Gateway.query`` is the only place a
serving-path query text is lexed, parsed or normalised.  An entry is
keyed by the **same** normalised-SQL text the result cache and
single-flight layers key on (:func:`repro.core.cache.normalise_sql`)
and keeps it as ``entry.key``, so one client query maps to one cache
key across all three subsystems and the text is normalised once.

Each entry carries that key, the parsed AST (``entry.select.tables`` is
what the FGSL authorises), the compile-time GLUE validation findings,
and (when the query validated cleanly) a
:class:`~repro.sql.plan.CompiledPlan` — compiled plans are the only
SELECT executor under ``src/repro`` (the tree-walking reference the
tests compare them with is ``tests/reference_sql.py``).  The invariant
is ``entry.plan`` is ``None`` ⇔ ``entry.findings``: compilation is
total, so the one kind of entry without a plan is a query callers
reject before executing anything.
Warm queries skip the lexer, the parser, the validator and all closure
construction: the trace shows a single ``plan.cache_hit`` span where a
cold query shows ``plan.compile`` with ``parse`` and ``validate``
children.

Invalidation is versioned: the cache polls ``version_fn`` (wired to
``SchemaManager.version``, which bumps on every GLUE mapping change) and
drops every entry when the schema moves — a plan compiled against an old
schema must never serve a new one.  Capacity is a deterministic LRU.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Sequence

from repro.analysis import races
from repro.analysis.findings import Finding
from repro.analysis.query_check import validate_select
from repro.core.cache import normalise_sql
from repro.glue.schema import GlueSchema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NO_TRACER, Tracer
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, compile_plan


class PlanEntry:
    """One cached compilation: key + AST + validation findings + plan.

    Invariant: ``plan`` is ``None`` ⇔ ``findings`` is non-empty.
    Callers reject an entry with findings before executing anything and
    take the plan of a clean one from :meth:`compiled`.
    """

    __slots__ = ("key", "select", "findings", "plan")

    def __init__(
        self, key: str, select: ast.Select, findings: list[Finding]
    ) -> None:
        #: The normalised text this entry is cached under — handed down
        #: as the result-cache and single-flight ``key=``.
        self.key = key
        self.select = select
        self.findings = findings
        self.plan: CompiledPlan | None = (
            None if findings else compile_plan(select)
        )

    def compiled(self) -> CompiledPlan:
        """The plan of an entry whose ``findings`` the caller found empty."""
        assert self.plan, "entry has findings: reject it, do not execute it"
        return self.plan


class PlanCache:
    """LRU cache of :class:`PlanEntry` keyed by normalised SQL.

    ``_entries`` relies on dict insertion order as recency order (the
    same idiom as :class:`~repro.core.cache.CacheController`): hits move
    the key to the back, eviction pops the front.  All counters live in
    the shared metrics registry under the ``plans.`` prefix so the
    self-monitoring driver and the console see them.
    """

    def __init__(
        self,
        schema: GlueSchema,
        *,
        version_fn: "Callable[[], Any] | None" = None,
        max_entries: int = 128,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"negative max_entries: {max_entries!r}")
        self.schema = schema
        self.version_fn = version_fn
        self.max_entries = max_entries
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._entries: dict[tuple[str, tuple[str, ...]], PlanEntry] = {}
        self._version: Any = version_fn() if version_fn is not None else None
        reg = registry if registry is not None else MetricsRegistry()
        self._hits = reg.counter("plans.hits")
        self._misses = reg.counter("plans.misses")
        self._invalidations = reg.counter("plans.invalidations")
        self._evictions = reg.counter("plans.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def key(
        self, sql: str, extra_fields: Sequence[str] = ()
    ) -> tuple[str, tuple[str, ...]]:
        """Cache key: normalised SQL + the validator's extra-field set
        (a history query and a realtime query validate differently, so
        they cannot share an entry)."""
        return (normalise_sql(sql), tuple(extra_fields))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, sql: str, *, extra_fields: Sequence[str] = ()) -> PlanEntry:
        """The entry for ``sql``, compiling on miss.

        Parse errors propagate as :class:`~repro.sql.errors.SqlError`
        (never cached: the raw text may be corrected retyped).  Entries
        with validation findings ARE cached — rejecting a doomed query
        repeatedly should not cost repeated parses.
        """
        self._check_version()
        key = self.key(sql, extra_fields)
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "plans", f"{key[0]}|{','.join(key[1])}", "r", site="PlanCache.get"
            )
        entry = self._entries.get(key)
        if entry is not None:
            self._hits.add(1)
            with self.tracer.span("plan.cache_hit"):
                pass
            self._entries.pop(key)
            self._entries[key] = entry
            return entry
        self._misses.add(1)
        with self.tracer.span("plan.compile"):
            with self.tracer.span("parse"):
                select = parse_select(sql)
            with self.tracer.span("validate"):
                findings = validate_select(
                    select, self.schema, extra_fields=extra_fields
                )
            entry = PlanEntry(key[0], select, findings)
        if races.ACTIVE is not None:
            digest = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
            races.ACTIVE.note(
                "plans",
                f"{key[0]}|{','.join(key[1])}",
                "w",
                digest=digest,
                site="PlanCache.get",
            )
        self._entries[key] = entry
        if self.max_entries:
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._evictions.add(1)
        return entry

    def _check_version(self) -> None:
        """Drop everything when the GLUE schema version moved."""
        if self.version_fn is None:
            return
        current = self.version_fn()
        if current != self._version:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self._invalidations.add(dropped)
            self._version = current

    def invalidate(self) -> int:
        """Explicitly drop all entries; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self._invalidations.add(dropped)
        return dropped
