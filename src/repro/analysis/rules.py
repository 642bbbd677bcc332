"""Pluggable lint-rule registry and the built-in project-invariant rules.

A rule is a class with a stable ``rule_id``, a default :class:`Severity`
and a ``check(module)`` generator yielding :class:`Finding` objects.
Rules register themselves with :func:`register_rule`; the linter, the
gateway's ``analyze`` API and the CLI all draw from the same registry, so
a third-party driver package can ship extra rules by importing this
module and decorating its own classes.

Rule-id ranges:

* ``GRM1xx`` — project invariants checked over any Python source
  (virtual-clock discipline: GRM101 is every wall-clock read, the
  determinism family's included; simnet discipline; exception
  discipline; instruments bound at construction) and DDK
  driver-contract checks (signatures, exception families);
* ``GRM2xx`` — compile-time GLUE query validation
  (:mod:`repro.analysis.query_check`);
* ``GRM3xx`` — gateway start-up findings
  (:mod:`repro.analysis.conformance`);
* ``GRM4xx`` — storage recovery findings (quarantined segments, torn
  WAL tails — :mod:`repro.storage.recovery`);
* ``GRM50x`` — determinism sanitizer
  (:mod:`repro.analysis.determinism`): the replay-identity hazards
  other than the wall clock (unseeded random, unordered set iteration,
  id()/hash() ordering, entropy sources);
* ``GRM55x`` — virtual-lane race findings
  (:mod:`repro.analysis.races`): unordered-branch access conflicts and
  dual-run divergence, reported by the runtime detector rather than an
  AST pass.

The rules that ban stdlib names (GRM101, GRM102's socket half, GRM502,
GRM505) are rows of one table, :data:`STDLIB_HAZARDS`, read through one
import resolver (:meth:`ModuleContext.origin`).
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import PurePath
from typing import Iterator, NamedTuple, Sequence, Type

from repro.analysis.findings import Finding, Severity

#: Driver entry points whose escaping exceptions must stay in the
#: SQLException family (paper §3.2.1: a fully implemented driver throws
#: SQLExceptions; the driver manager's failure policies catch nothing
#: else).
DRIVER_ENTRY_POINTS = frozenset(
    {"probe", "connect", "accepts_url", "execute_query"}
)

#: Exception names a driver entry point may raise: the SQLException
#: family (``SQL*``), the simnet transport errors the DDK base class
#: translates itself, and NotImplementedError for abstract members.
ALLOWED_DRIVER_RAISES = frozenset(
    {
        "NetworkError",
        "TimeoutError_",
        "HostUnreachableError",
        "PortClosedError",
        "NotImplementedError",
    }
)

#: The one function allowed a blanket ``except`` (GRM103): (path below
#: ``repro/``, class, method) of the DDK wrapper that turns whatever a
#: reply decoder raises into ``SQLDataException``.
TRUST_BOUNDARY = (("drivers", "base.py"), "GridRmDriver", "_typed")

#: The stdlib names a rule bans, keyed by dotted origin as
#: :meth:`ModuleContext.origin` resolves it through the module's imports
#: (``import m [as a]``, ``from m import n [as a]``).  ``m.*`` covers
#: every member of ``m`` without a row of its own.  A :data:`CALL` row is
#: reached by a call through a module binding (``t.time()``) or by a
#: from-import (``from time import time``: one finding at the import, its
#: calls are not flagged again); an :data:`UNSEEDED` row by a call with no
#: arguments; an :data:`IMPORT` row by any import of the module.
CALL, UNSEEDED, IMPORT = "call", "unseeded", "import"
STDLIB_HAZARDS: dict[str, tuple[str, str]] = {
    origin: (rule_id, kind)
    for rule_id, kind, origins in (
        (
            "GRM101",
            CALL,
            "time.time time.time_ns time.sleep time.monotonic time.monotonic_ns "
            "time.perf_counter time.perf_counter_ns time.process_time "
            "time.process_time_ns time.thread_time time.thread_time_ns "
            "time.clock_gettime time.clock_gettime_ns time.localtime "
            "time.gmtime time.ctime time.asctime datetime.datetime.now "
            "datetime.datetime.utcnow datetime.datetime.today "
            "datetime.date.today os.times",
        ),
        ("GRM102", IMPORT, "socket"),
        ("GRM502", CALL, "random.*"),
        ("GRM502", UNSEEDED, "random.Random"),
        (
            "GRM505",
            CALL,
            "random.SystemRandom os.urandom os.getrandom uuid.uuid1 uuid.uuid4",
        ),
        ("GRM505", IMPORT, "secrets"),
    )
    for origin in origins.split()
}


def _hazard_row(origin: str) -> "tuple[str, str] | None":
    """The :data:`STDLIB_HAZARDS` row ``origin`` reaches, if any."""
    return STDLIB_HAZARDS.get(origin) or STDLIB_HAZARDS.get(
        origin.rpartition(".")[0] + ".*"
    )


class StdlibUse(NamedTuple):
    """One place a module reaches a :data:`STDLIB_HAZARDS` row."""

    node: ast.AST
    rule_id: str
    text: str  # how the source spells the use, opening the message
    symbol: str


#: ``# grm: allow-<tag>`` trailing (or immediately preceding, on a
#: comment-only line) a flagged statement suppresses the matching rule.
#: Tags are per-rule (``allow-wallclock``, ``allow-random``, ...) so an
#: escape documents exactly which hazard was judged acceptable.
_ALLOW_COMMENT = re.compile(r"#\s*grm:\s*allow-([a-z][a-z0-9-]*)")


@dataclass
class ModuleContext:
    """One parsed source file handed to every rule."""

    path: str
    source: str
    tree: ast.Module

    @cached_property
    def _lines(self) -> list[str]:
        return self.source.splitlines()

    def allowed(self, node: ast.AST, tag: str) -> bool:
        """True when ``node``'s line carries ``# grm: allow-<tag>``.

        A tag on the line itself or on a standalone comment line directly
        above it both count, so escapes survive black-style wrapping.
        """
        lineno = getattr(node, "lineno", 0)
        if not 1 <= lineno <= len(self._lines):
            return False
        above = self._lines[lineno - 2] if lineno > 1 else ""
        return tag in _ALLOW_COMMENT.findall(self._lines[lineno - 1]) or (
            above.lstrip().startswith("#") and tag in _ALLOW_COMMENT.findall(above)
        )

    @cached_property
    def _imports(self) -> dict[str, str]:
        """Local name -> the dotted module or member an import binds it to."""
        bound: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.partition(".")[0]
                    bound[alias.asname or head] = alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return bound

    def origin(self, node: ast.expr) -> str:
        """Dotted origin of a Name/Attribute chain through this module's
        imports (``t.time`` after ``import time as t`` is ``time.time``);
        '' when the chain does not start at an imported name."""
        if isinstance(node, ast.Attribute):
            head = self.origin(node.value)
            return f"{head}.{node.attr}" if head else ""
        if isinstance(node, ast.Name):
            return self._imports.get(node.id, "")
        return ""

    @cached_property
    def stdlib_uses(self) -> list[StdlibUse]:
        """Every call and import in the module that reaches a
        :data:`STDLIB_HAZARDS` row, in walk order."""
        uses: list[StdlibUse] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    uses.extend(_module_import(node, alias.name))
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                uses.extend(_module_import(node, node.module))
                named: dict[str, list[str]] = {}
                for alias in node.names:
                    row = _hazard_row(f"{node.module}.{alias.name}")
                    if row is not None and row[1] == CALL:
                        named.setdefault(row[0], []).append(alias.name)
                for rule_id, names in named.items():
                    names.sort()
                    uses.append(
                        StdlibUse(
                            node,
                            rule_id,
                            f"importing {', '.join(names)} from {node.module}",
                            f"import-{node.module}-{'-'.join(names)}",
                        )
                    )
            elif isinstance(node, ast.Call):
                origin = self.origin(node.func)
                row = _hazard_row(origin) if origin else None
                if row is None:
                    continue
                if (row[1] == CALL and isinstance(node.func, ast.Attribute)) or (
                    row[1] == UNSEEDED and not node.args and not node.keywords
                ):
                    # The owner and the member: ``datetime.now`` for
                    # ``datetime.datetime.now``, as the call reads.
                    symbol = ".".join(origin.split(".")[-2:])
                    uses.append(StdlibUse(node, row[0], f"{symbol}()", symbol))
        return uses

    def driver_classes(self) -> dict[str, ast.ClassDef]:
        """Classes in this module that (transitively, within the module)
        subclass ``GridRmDriver``."""
        classes = {
            node.name: node
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        }
        driver_names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, node in classes.items():
                if name in driver_names:
                    continue
                for base in node.bases:
                    base_name = _base_name(base)
                    if base_name == "GridRmDriver" or base_name in driver_names:
                        driver_names.add(name)
                        changed = True
                        break
        return {n: c for n, c in classes.items() if n in driver_names}


def _module_import(node: ast.AST, module: str) -> list[StdlibUse]:
    """The use an import of ``module`` makes when an IMPORT row bans it."""
    top = module.partition(".")[0]
    row = STDLIB_HAZARDS.get(top)
    if row is None or row[1] != IMPORT:
        return []
    return [StdlibUse(node, row[0], f"importing {top}", f"import-{top}")]


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class LintRule:
    """Base class for lint rules; subclasses set the class attributes and
    implement :meth:`check`."""

    rule_id = ""
    severity = Severity.ERROR
    title = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str, *, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 0),
            symbol=symbol,
        )


#: rule_id -> rule class.  One shared registry for the whole process.
_REGISTRY: dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule id {cls.rule_id!r} already registered by {existing.__name__}"
        )
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[LintRule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def rules_by_id(ids: "list[str] | None" = None) -> list[LintRule]:
    """Instances for ``ids`` (all rules when None); unknown ids raise."""
    if ids is None:
        return all_rules()
    missing = [i for i in ids if i not in _REGISTRY]
    if missing:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(missing))}")
    return [_REGISTRY[i]() for i in sorted(ids)]


def rule_table() -> list[tuple[str, str, str]]:
    """(id, severity, title) rows, one per registered rule (DRIVER_GUIDE's
    rule table is tested against them)."""
    return [
        (rid, _REGISTRY[rid].severity.value, _REGISTRY[rid].title)
        for rid in sorted(_REGISTRY)
    ]


# ----------------------------------------------------------------------
# Project-invariant rules (any source file)
# ----------------------------------------------------------------------
class StdlibRule(LintRule):
    """A rule whose hazards are its rows of :data:`STDLIB_HAZARDS`: each
    use is one finding, "<use> <hazard> (<escape>)"."""

    #: ``# grm: allow-<tag>`` escapes a use ('' = no escape).
    tag = ""
    #: What a use does and what to do instead.
    hazard = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        escape = f" (# grm: allow-{self.tag} to escape)" if self.tag else ""
        for use in module.stdlib_uses:
            if use.rule_id == self.rule_id and not module.allowed(use.node, self.tag):
                message = f"{use.text} {self.hazard}{escape}"
                yield self.finding(module, use.node, message, symbol=use.symbol)


@register_rule
class WallClockRule(StdlibRule):
    """Virtual-clock discipline: all timing flows through simnet's clock,
    so a seeded run replays identically."""

    rule_id = "GRM101"
    severity = Severity.ERROR
    title = "wall-clock read (use repro.simnet.clock, not time/datetime/os.times)"
    tag = "wallclock"
    hazard = "reads the wall clock; take time from the simnet virtual clock"


@register_rule
class RawSocketRule(StdlibRule):
    """I/O discipline: no real network I/O bypassing the simulation, and
    no driver I/O bypassing the DDK — a driver describes its protocol as
    ``hello`` / ``exchange`` conversations; ``GridRmDriver.converse`` is
    the one place a request is sent."""

    rule_id = "GRM102"
    severity = Severity.ERROR
    title = "I/O that bypasses the sanctioned path (repro.simnet; the DDK's converse)"
    hazard = (
        "bypasses the simulated network; drivers must use "
        "connection.request() over repro.simnet"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for cls_name, cls in module.driver_classes().items():
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef) and node.name == "fetch_group":
                    yield self.finding(
                        module,
                        node,
                        f"{cls_name} defines fetch_group; describe the fetch as "
                        "an exchange(url, group, select) conversation and let "
                        "the DDK drive it",
                        symbol=f"{cls_name}.fetch_group",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "request"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{cls_name} calls .request() itself; yield the payload "
                        "from a conversation instead",
                        symbol=f"{cls_name}.request",
                    )
        yield from super().check(module)


@register_rule
class ExceptionDisciplineRule(LintRule):
    """No bare except / blanket ``except Exception`` in library code.

    Cleanup-and-reraise handlers (whose last statement is a bare
    ``raise``) are exempt: they narrow nothing and swallow nothing.  So
    is exactly one function, by qualified name: the DDK's trust boundary
    (:data:`TRUST_BOUNDARY`), whose job is to type whatever decoding an
    agent's reply raises.
    """

    rule_id = "GRM103"
    severity = Severity.ERROR
    title = "bare or blanket except (catch concrete exception types)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        exempt = self._trust_boundary(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler) or node in exempt:
                continue
            last = node.body[-1] if node.body else None
            if isinstance(last, ast.Raise) and last.exc is None:
                continue
            for caught in self._caught_names(node):
                yield self.finding(
                    module,
                    node,
                    f"handler catches {caught}; name the concrete "
                    "exception types instead",
                    symbol=caught,
                )

    @staticmethod
    def _trust_boundary(module: ModuleContext) -> set[ast.AST]:
        """Nodes of the one exempted function (none in any other module)."""
        path, cls_name, fn_name = TRUST_BOUNDARY
        if _below_repro(module.path) != list(path):
            return set()
        return {
            node
            for cls in module.tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == cls_name
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == fn_name
            for node in ast.walk(fn)
        }

    @staticmethod
    def _caught_names(node: ast.ExceptHandler) -> list[str]:
        if node.type is None:
            return ["everything (bare except)"]
        exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return [
            e.id
            for e in exprs
            if isinstance(e, ast.Name) and e.id in ("Exception", "BaseException")
        ]


#: Names a metrics registry goes by, and the ``repro`` packages whose
#: serving paths GRM108 holds to "instruments are bound at construction".
_REGISTRY_NAMES = frozenset({"registry", "_registry", "metrics", "reg"})
_BOUND_INSTRUMENT_PACKAGES = frozenset({"core", "gma", "simnet", "storage", "obs"})


def _below_repro(path: str) -> list[str]:
    """Path components below the innermost ``repro`` directory (empty
    when the file is not under one)."""
    parts = PurePath(path).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return list(parts[index + 1 :])
    return []


@register_rule
class BoundInstrumentRule(LintRule):
    """Instruments are bound where their owner is constructed.

    ``registry.counter("x")`` formats nothing but still costs a dict
    lookup and a type check per call; on a serving path that is paid per
    source per query.  Resolve the instrument once, in ``__init__``, and
    hold it (or a :class:`~repro.obs.metrics.StatsView` over it).
    """

    rule_id = "GRM108"
    severity = Severity.ERROR
    title = "instrument looked up by name outside __init__ (bind it at construction)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        below = _below_repro(module.path)
        if (
            not below
            or below[0] not in _BOUND_INSTRUMENT_PACKAGES
            or below == ["obs", "metrics.py"]  # the registry itself
        ):
            return
        yield from self._walk(module, module.tree, None)

    def _walk(
        self, module: ModuleContext, node: ast.AST, function: "str | None"
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(module, child, child.name)
                continue
            if (
                function not in (None, "__init__")
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("counter", "histogram")
                and child.args
                and _base_name(child.func.value) in _REGISTRY_NAMES
            ):
                yield self.finding(
                    module,
                    child,
                    f"{function}() resolves an instrument by name; bind it "
                    "in __init__ and hold the instrument",
                    symbol=f"{function}:{child.func.attr}",
                )
            yield from self._walk(module, child, function)


# ----------------------------------------------------------------------
# DDK driver-contract rules (GridRmDriver subclasses only)
# ----------------------------------------------------------------------
#: method name -> names of the required positional parameters after the
#: receiver.
_REQUIRED_SIGNATURES = {
    "build_mapping": (),
    "hello": ("url",),
    "exchange": ("url", "group", "select"),
    "probe": ("url",),  # overridden only by a driver with no wire
}


def signature_mismatch(
    cls_name: str,
    method: str,
    params: Sequence[inspect.Parameter],
    *,
    static: bool,
) -> str:
    """GRM104's one comparison, for both of its views (the AST rule below
    and :func:`repro.analysis.conformance.check_driver_class`): what is
    wrong with ``params`` as the DDK's ``method``, '' when nothing is (or
    ``method`` has no DDK shape).

    The receiver is the first positional parameter unless ``static``.
    After it, the DDK's names must come first, in order; further
    parameters need defaults; ``*args`` is refused.
    """
    required = _REQUIRED_SIGNATURES.get(method)
    if required is None:
        return ""
    P = inspect.Parameter
    positional = [
        p for p in params if p.kind in (P.POSITIONAL_ONLY, P.POSITIONAL_OR_KEYWORD)
    ]
    after = positional[0 if static else 1 :]
    got = tuple(p.name for p in after)
    extra = [p.name for p in after[len(required) :] if p.default is P.empty]
    if not static and not positional:
        problem = "has no receiver (self)"
    elif got[: len(required)] != required:
        problem = f"takes positional parameters {got or '()'}"
    elif extra:
        problem = f"adds required positional parameter(s) {', '.join(extra)}"
    elif any(p.kind is P.VAR_POSITIONAL for p in params):
        problem = "uses *args"
    else:
        return ""
    shape = ", ".join(required if static else ("self", *required))
    return f"{cls_name}.{method} {problem}; the DDK requires {method}({shape})"


def _ast_parameters(args: ast.arguments) -> list[inspect.Parameter]:
    """A ``def``'s positional parameters and ``*args`` in :mod:`inspect`'s
    terms (defaults are the AST nodes: only their presence matters)."""
    P = inspect.Parameter
    positional = [(a, P.POSITIONAL_ONLY) for a in args.posonlyargs] + [
        (a, P.POSITIONAL_OR_KEYWORD) for a in args.args
    ]
    defaults: list[object] = [P.empty] * (len(positional) - len(args.defaults))
    defaults += args.defaults
    params = [P(a.arg, kind, default=d) for (a, kind), d in zip(positional, defaults)]
    if args.vararg is not None:
        params.append(P(args.vararg.arg, P.VAR_POSITIONAL))
    return params


@register_rule
class DriverSignatureRule(LintRule):
    """DDK contract: ``build_mapping()`` / ``hello(url)`` /
    ``exchange(url, group, select)`` (/ ``probe(url)``) shapes, read from
    source (a live class is checked by the same comparison)."""

    rule_id = "GRM104"
    severity = Severity.ERROR
    title = "driver method does not match the DDK signature"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for cls_name, cls in module.driver_classes().items():
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(
                    _base_name(d) == "staticmethod" for d in node.decorator_list
                )
                message = signature_mismatch(
                    cls_name, node.name, _ast_parameters(node.args), static=static
                )
                if message:
                    yield self.finding(
                        module, node, message, symbol=f"{cls_name}.{node.name}"
                    )


@register_rule
class DriverExceptionLeakRule(LintRule):
    """DDK contract: only the SQLException family (plus the transport
    errors the base class translates) escapes driver entry points."""

    rule_id = "GRM105"
    severity = Severity.ERROR
    title = "driver entry point raises outside the SQLException family"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for cls_name, cls in module.driver_classes().items():
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name not in DRIVER_ENTRY_POINTS:
                    continue
                for raised in ast.walk(node):
                    if not isinstance(raised, ast.Raise):
                        continue
                    name = self._raised_name(raised)
                    if name is None:  # bare re-raise
                        continue
                    if name.startswith("SQL") or name in ALLOWED_DRIVER_RAISES:
                        continue
                    yield self.finding(
                        module,
                        raised,
                        f"{cls_name}.{node.name} raises {name}; driver entry "
                        "points must raise SQLException subtypes "
                        "(repro.dbapi.exceptions)",
                        symbol=f"{cls_name}.{node.name}:{name}",
                    )

    @staticmethod
    def _raised_name(node: ast.Raise) -> "str | None":
        exc = node.exc
        if exc is None:
            return None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id
        if isinstance(exc, ast.Attribute):
            return exc.attr
        return "<dynamic>"
