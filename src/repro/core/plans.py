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

A lookup takes one of three ways, and the trace's first span under
the root names it:

* ``plan.cache_hit`` — the text (normalised, with its extra fields) has
  an entry: one memoised key lookup and one dict get.
* ``plan.instantiate`` — the text is new but its **shape** is not: the
  token sequence with each NUMBER and STRING literal replaced by a slot
  typed ``int``, ``float`` or ``str``
  (:func:`repro.sql.lexer.literal_shape`), plus the extra-field set.
  A console refresh that moves a threshold or a time window sends such
  a text.  The entry's AST is the remembered template's with the new
  values put in; the lexer, the parser and the validator do not run.
  Validation is reused soundly because its findings depend on names
  and on the classes of literals only (``glue.validation.TYPE_CHECKS``
  are ``isinstance`` tests), and both are part of the shape.  When the
  literals sit only in WHERE, LIMIT and OFFSET, the plans of a shape
  also share their layout bindings: a layout one of them bound is only
  re-filtered for the next (:meth:`~repro.sql.plan.BoundPlan.refiltered`).
* ``plan.compile`` with ``parse`` and ``validate`` children — anything
  else.  ``plans.misses`` counts these and only these.

Invalidation is versioned: the cache polls ``version_fn`` (wired to
``SchemaManager.version``, which bumps on every GLUE mapping change) and
drops every entry and every shape when the schema moves — a plan
compiled against an old schema must never serve a new one.  Capacity is
a deterministic LRU of :data:`MAX_ENTRIES` entries; the shape memo
keeps at most :data:`MAX_SHAPES` templates, keyed by the exact shape
tuple plus the extra fields, and only of statements that parsed and
validated clean.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, NamedTuple, Sequence

from repro.analysis import races
from repro.analysis.findings import Finding
from repro.analysis.query_check import validate_select
from repro.core.cache import normalise_sql
from repro.glue.schema import GlueSchema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NO_TRACER, Tracer
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Shape, literal_shape
from repro.sql.parser import parse_select
from repro.sql.plan import CompiledPlan, ShapeBindings, compile_plan

#: LRU capacity of a gateway's plan cache (entries).
MAX_ENTRIES = 128
#: LRU capacity of the shape memo (templates of clean statements).
MAX_SHAPES = 128

_SLOT_CLASSES = (int, float, str)
#: The parts of a SELECT that a binding compiles besides its WHERE.
_BOUND_PARTS = ("items", "group_by", "having", "order_by")


class Template(NamedTuple):
    """What the cache keeps of a shape compiled clean."""

    #: The statement's AST from its literal values.
    rebuild: Callable[[Sequence[Any]], ast.Select]
    #: Bindings every plan of the shape shares, or ``None`` when a
    #: literal sits where a binding compiles it in (a projection,
    #: GROUP BY, HAVING or ORDER BY): there each plan binds afresh.
    bindings: ShapeBindings | None


def _rebuilder(node: Any, found: list[Any]) -> Callable[[Sequence[Any]], Any] | None:
    """A function of a statement's literal values that rebuilds ``node``
    with them in place, or ``None`` when ``node`` holds no literal.

    The walk takes a node's fields in declaration order, which for every
    node is the order the parser reads them from the text, so the n-th
    literal met is the text's n-th literal; ``found`` collects the values
    met, for the caller to check against the text's own.  A literal is
    an ``ast.Literal`` of an exact slot class or a bare ``int`` field
    (``LIMIT`` / ``OFFSET``); ``TRUE``, ``FALSE`` and ``NULL`` are part
    of the shape and stay in the tree.
    """
    cls = node.__class__
    if cls is ast.Literal:
        if node.value.__class__ not in _SLOT_CLASSES:
            return None
        index = len(found)
        found.append(node.value)
        return lambda values: ast.Literal(values[index])
    if cls is int:
        index = len(found)
        found.append(node)
        return lambda values: values[index]
    if cls is tuple:
        parts = [_rebuilder(item, found) for item in node]
        if not any(parts):
            return None
        pairs = list(zip(parts, node))
        return lambda values: tuple(
            item if part is None else part(values) for part, item in pairs
        )
    if not dataclasses.is_dataclass(node):
        return None
    fixed = [getattr(node, f.name) for f in dataclasses.fields(node)]
    parts = [_rebuilder(value, found) for value in fixed]
    if not any(parts):
        return None
    pairs = list(zip(parts, fixed))
    return lambda values: cls(
        *[value if part is None else part(values) for part, value in pairs]
    )


def _template(select: ast.Select, values: Sequence[Any]) -> Template | None:
    """``select`` as a function of its literal values, or ``None`` unless
    the literals it holds are ``values``, class for class, in order."""
    found: list[Any] = []
    rebuild = _rebuilder(select, found)
    if [v.__class__ for v in found] != [v.__class__ for v in values]:
        return None
    if found != list(values):
        return None
    literal_free = all(
        _rebuilder(getattr(select, part), []) is None for part in _BOUND_PARTS
    )
    return Template(
        (lambda _values: select) if rebuild is None else rebuild,
        {} if literal_free else None,
    )


class PlanEntry:
    """One cached compilation: key + AST + validation findings + plan.

    Invariant: ``plan`` is ``None`` ⇔ ``findings`` is non-empty.
    Callers reject an entry with findings before executing anything and
    take the plan of a clean one from :meth:`compiled`.
    """

    __slots__ = ("key", "select", "findings", "plan")

    def __init__(
        self,
        key: str,
        select: ast.Select,
        findings: list[Finding],
        shape_bindings: ShapeBindings | None = None,
    ) -> None:
        #: The normalised text this entry is cached under — handed down
        #: as the result-cache and single-flight ``key=``.
        self.key = key
        self.select = select
        self.findings = findings
        self.plan: CompiledPlan | None = (
            None if findings else compile_plan(select, shape_bindings)
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
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.schema = schema
        self.version_fn = version_fn
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._entries: dict[tuple[str, tuple[str, ...]], PlanEntry] = {}
        #: (shape, extra fields) -> template of a clean statement; LRU.
        self._shapes: dict[tuple[Shape, tuple[str, ...]], Template] = {}
        self._version: Any = version_fn() if version_fn is not None else None
        reg = registry if registry is not None else MetricsRegistry()
        self._hits = reg.counter("plans.hits")
        self._misses = reg.counter("plans.misses")
        self._instantiations = reg.counter("plans.instantiations")
        self._invalidations = reg.counter("plans.invalidations")
        self._evictions = reg.counter("plans.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def instantiations(self) -> int:
        return self._instantiations.value

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
        """The entry for ``sql``: cached, instantiated from a template of
        its shape, or compiled.

        Parse errors propagate as :class:`~repro.sql.errors.SqlError`
        (never cached: the raw text may be corrected retyped).  Entries
        with validation findings ARE cached — rejecting a doomed query
        repeatedly should not cost repeated parses — but only a clean
        statement leaves a template for its shape.
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
        shaped = literal_shape(sql)
        if shaped is None:
            entry = self._compile(sql, key[0], extra_fields, None, ())
        else:
            shape, values = shaped
            shape_key = (shape, key[1])
            template = self._shapes.pop(shape_key, None)
            if template is None:
                entry = self._compile(sql, key[0], extra_fields, shape_key, values)
            else:
                self._shapes[shape_key] = template
                self._instantiations.add(1)
                with self.tracer.span("plan.instantiate"):
                    entry = PlanEntry(
                        key[0], template.rebuild(values), [], template.bindings
                    )
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
        while len(self._entries) > MAX_ENTRIES:
            del self._entries[next(iter(self._entries))]
            self._evictions.add(1)
        return entry

    def _compile(
        self,
        sql: str,
        key: str,
        extra_fields: Sequence[str],
        shape_key: tuple[Shape, tuple[str, ...]] | None,
        values: Sequence[Any],
    ) -> PlanEntry:
        """The full path: lex, parse, validate and compile ``sql``; a
        clean statement leaves a template for ``shape_key``."""
        self._misses.add(1)
        with self.tracer.span("plan.compile"):
            with self.tracer.span("parse"):
                select = parse_select(sql)
            with self.tracer.span("validate"):
                findings = validate_select(
                    select, self.schema, extra_fields=extra_fields
                )
            if not findings:
                select = self._canonical(select)
            template = None
            if shape_key is not None and not findings:
                template = _template(select, values)
            if template is None:
                return PlanEntry(key, select, findings)
            self._shapes[shape_key] = template
            while len(self._shapes) > MAX_SHAPES:
                del self._shapes[next(iter(self._shapes))]
            return PlanEntry(key, select, findings, template.bindings)

    def _canonical(self, select: ast.Select) -> ast.Select:
        """``select`` with each FROM group in its GLUE spelling.

        The validator resolves a group name case-insensitively, while
        drivers, the history store and the stream hub key on the exact
        name; the entry (and every plan instantiated from its shape)
        carries the schema's spelling, so they never see the client's.
        """
        tables = tuple(self.schema.group(table).name for table in select.tables)
        if tables == select.tables:
            return select
        return dataclasses.replace(select, table=tables[0], extra_tables=tables[1:])

    def _check_version(self) -> None:
        """Drop everything when the GLUE schema version moved."""
        if self.version_fn is None:
            return
        current = self.version_fn()
        if current != self._version:
            dropped = len(self._entries)
            self._entries.clear()
            self._shapes.clear()
            if dropped:
                self._invalidations.add(dropped)
            self._version = current

    def invalidate(self) -> int:
        """Explicitly drop all entries and shapes; returns how many
        entries were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._shapes.clear()
        if dropped:
            self._invalidations.add(dropped)
        return dropped
