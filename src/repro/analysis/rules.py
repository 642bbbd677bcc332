"""Pluggable lint-rule registry and the built-in project-invariant rules.

A rule is a class with a stable ``rule_id``, a default :class:`Severity`
and a ``check(module)`` generator yielding :class:`Finding` objects.
Rules register themselves with :func:`register_rule`; the linter, the
gateway's ``analyze`` API and the CLI all draw from the same registry, so
a third-party driver package can ship extra rules by importing this
module and decorating its own classes.

Rule-id ranges:

* ``GRM1xx`` — project invariants checked over any Python source
  (virtual-clock discipline, simnet discipline, exception discipline,
  instruments bound at construction) and DDK driver-contract checks
  (signatures, exception families);
* ``GRM2xx`` — compile-time GLUE query validation
  (:mod:`repro.analysis.query_check`);
* ``GRM3xx`` — gateway start-up findings
  (:mod:`repro.analysis.conformance`);
* ``GRM4xx`` — storage recovery findings (quarantined segments, torn
  WAL tails — :mod:`repro.storage.recovery`);
* ``GRM50x`` — determinism sanitizer
  (:mod:`repro.analysis.determinism`): replay-identity hazards beyond
  GRM101's wall-clock set (unseeded random, unordered set iteration,
  id()/hash() ordering, entropy sources);
* ``GRM55x`` — virtual-lane race findings
  (:mod:`repro.analysis.races`): unordered-branch access conflicts and
  dual-run divergence, reported by the runtime detector rather than an
  AST pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterator, Type

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

#: ``(module, attribute)`` call patterns that read or block on the wall
#: clock.  All timing must flow through ``repro.simnet.clock`` so that
#: experiments stay deterministic.
_WALL_CLOCK_CALLS = {
    "time": {"time", "sleep", "monotonic", "perf_counter", "time_ns"},
    "datetime": {"now", "utcnow", "today"},
}
_WALL_CLOCK_IMPORTS = {
    ("time", "time"),
    ("time", "sleep"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
}


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
    #: Lazily built 1-based line -> allow tags map (see :meth:`allowed`).
    _allow_lines: "dict[int, set[str]] | None" = field(
        default=None, repr=False, compare=False
    )

    def allowed(self, node: ast.AST, tag: str) -> bool:
        """True when ``node``'s line carries ``# grm: allow-<tag>``.

        A tag on the line itself or on a standalone comment line directly
        above it both count, so escapes survive black-style wrapping.
        """
        if self._allow_lines is None:
            lines: dict[int, set[str]] = {}
            for lineno, text in enumerate(self.source.splitlines(), start=1):
                tags = set(_ALLOW_COMMENT.findall(text))
                if tags:
                    lines[lineno] = tags
            self._allow_lines = lines
        lineno = getattr(node, "lineno", 0)
        if not lineno:
            return False
        for candidate in (lineno, lineno - 1):
            tags = self._allow_lines.get(candidate)
            if tags and tag in tags:
                # A preceding line only counts if it is comment-only.
                if candidate == lineno or self._comment_only(candidate):
                    return True
        return False

    def _comment_only(self, lineno: int) -> bool:
        lines = self.source.splitlines()
        if not 1 <= lineno <= len(lines):
            return False
        return lines[lineno - 1].lstrip().startswith("#")

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
    """(id, severity, title) rows for docs and the CLI's --list-rules."""
    return [
        (rid, _REGISTRY[rid].severity.value, _REGISTRY[rid].title)
        for rid in sorted(_REGISTRY)
    ]


# ----------------------------------------------------------------------
# Project-invariant rules (any source file)
# ----------------------------------------------------------------------
@register_rule
class WallClockRule(LintRule):
    """Virtual-clock discipline: all timing flows through simnet's clock."""

    rule_id = "GRM101"
    severity = Severity.ERROR
    title = "wall-clock call (use repro.simnet.clock, not time/datetime)"

    # The ``# grm: allow-wallclock`` escape (shared with the determinism
    # family's GRM501) silences this rule on annotated lines.
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if module.allowed(node, "wallclock"):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names = {a.name for a in node.names}
                bad = sorted(
                    n for (m, n) in _WALL_CLOCK_IMPORTS if m == "time" and n in names
                )
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"imports wall-clock function(s) {', '.join(bad)} "
                        "from time",
                        symbol=f"import-time-{'-'.join(bad)}",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                owner = func.value
                owner_name = ""
                if isinstance(owner, ast.Name):
                    owner_name = owner.id
                elif isinstance(owner, ast.Attribute):
                    owner_name = owner.attr
                bad_attrs = _WALL_CLOCK_CALLS.get(owner_name)
                if bad_attrs and func.attr in bad_attrs:
                    yield self.finding(
                        module,
                        node,
                        f"{owner_name}.{func.attr}() breaks the virtual clock; "
                        "use the simnet clock instead",
                        symbol=f"{owner_name}.{func.attr}",
                    )


@register_rule
class RawSocketRule(LintRule):
    """I/O discipline: no real network I/O bypassing the simulation, and
    no driver I/O bypassing the DDK — a driver describes its protocol as
    ``hello`` / ``exchange`` conversations; ``GridRmDriver.converse`` is
    the one place a request is sent."""

    rule_id = "GRM102"
    severity = Severity.ERROR
    title = "I/O that bypasses the sanctioned path (repro.simnet; the DDK's converse)"

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
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "socket" or alias.name.startswith("socket."):
                        yield self.finding(
                            module,
                            node,
                            "imports the socket module; drivers must use "
                            "connection.request() over the simulated network",
                            symbol="import-socket",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "socket" or (node.module or "").startswith(
                    "socket."
                ):
                    yield self.finding(
                        module,
                        node,
                        "imports from the socket module; drivers must use "
                        "connection.request() over the simulated network",
                        symbol="import-socket",
                    )


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
                and child.func.attr in ("counter", "histogram", "gauge")
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
#: method name -> names of the required positional parameters after self.
_REQUIRED_SIGNATURES = {
    "build_mapping": (),
    "hello": ("url",),
    "exchange": ("url", "group", "select"),
    "probe": ("url",),  # overridden only by a driver with no wire
}


def expected_signature(method: str) -> "tuple[str, ...] | None":
    """Required positional parameters (after self) of a DDK method."""
    return _REQUIRED_SIGNATURES.get(method)


@register_rule
class DriverSignatureRule(LintRule):
    """DDK contract: ``build_mapping()`` / ``hello(url)`` /
    ``exchange(url, group, select)`` (/ ``probe(url)``) positional shapes."""

    rule_id = "GRM104"
    severity = Severity.ERROR
    title = "driver method does not match the DDK signature"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for cls_name, cls in module.driver_classes().items():
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                required = _REQUIRED_SIGNATURES.get(node.name)
                if required is None:
                    continue
                problem = self._signature_problem(node, required)
                if problem:
                    yield self.finding(
                        module,
                        node,
                        f"{cls_name}.{node.name} {problem}; the DDK requires "
                        f"{node.name}({', '.join(('self',) + required)})",
                        symbol=f"{cls_name}.{node.name}",
                    )

    @staticmethod
    def _signature_problem(
        node: "ast.FunctionDef | ast.AsyncFunctionDef", required: tuple[str, ...]
    ) -> str:
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if not positional or positional[0] != "self":
            return "is missing self"
        got = tuple(positional[1:])
        # Trailing positional parameters with defaults are optional
        # extensions and tolerated; the required prefix must match.
        n_required = len(got) - len(args.defaults)
        if got[: len(required)] != required:
            return f"takes positional parameters {got or '()'}"
        if n_required > len(required):
            return (
                f"adds required positional parameter(s) "
                f"{', '.join(got[len(required):n_required])}"
            )
        if args.vararg is not None:
            return "uses *args"
        return ""


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
