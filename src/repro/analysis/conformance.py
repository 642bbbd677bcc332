"""Driver conformance checking against the DDK contract.

Two complementary views of the same contract (paper §3.2.1):

* :func:`check_module` / :func:`check_source` — **AST inspection** of a
  driver module: signature shapes, exception families escaping entry
  points, wall-clock and raw-socket discipline.  Works on any source
  text, including plug-ins that are not importable in this process.
* :func:`check_driver` — **introspection** of a live driver object as
  registered with a gateway: required members overridden, runtime
  signatures compatible, protocol declared — then the AST pass over the
  class's defining module for the source-level rules.

Both produce the shared :class:`~repro.analysis.findings.Finding` model,
so a gateway can refuse (or just report) non-conformant plug-ins before
any query reaches them, instead of failing at fetch time.
"""

from __future__ import annotations

import ast
import inspect
from typing import Any, Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import (
    LintRule,
    ModuleContext,
    all_rules,
    signature_mismatch,
)

#: Members every concrete driver must supply (the GLUE implementation
#: plus the native protocol's two conversations; everything else is
#: inherited).  A driver with no wire may override ``probe`` itself
#: instead of supplying ``hello``.
REQUIRED_OVERRIDES = ("build_mapping", "hello", "exchange")


def parse_module(source: str, path: str = "<driver>") -> ModuleContext:
    """Parse source text into the context the rules consume.

    Raises :class:`SyntaxError` for unparseable text — callers decide
    whether that is itself a finding (see :func:`check_source`).
    """
    return ModuleContext(path=path, source=source, tree=ast.parse(source))


def check_source(
    source: str,
    path: str = "<driver>",
    *,
    rules: "Iterable[LintRule] | None" = None,
) -> list[Finding]:
    """Run the registered rules over one module's source text."""
    try:
        module = parse_module(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id="GRM100",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                symbol="syntax",
            )
        ]
    selected = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rule in selected:
        findings.extend(rule.check(module))
    return sorted(findings, key=lambda f: (f.line, f.rule_id, f.message))


#: Memo for :func:`check_module`, keyed by the exact (path, source text)
#: it checked — a plug-in fixed and reloaded in place is checked afresh.
#: A gateway conformance-checks its whole driver set at start-up, and
#: test suites build many gateways over the same six shipped modules.
MODULE_CACHE_SIZE = 64
_MODULE_CACHE: dict[tuple[str, str], list[Finding]] = {}


def check_module(module: Any) -> list[Finding]:
    """AST-check an imported module object (memoised by its source)."""
    try:
        source = inspect.getsource(module)
        path = inspect.getsourcefile(module) or getattr(module, "__name__", "")
    except (OSError, TypeError):
        # Built in REPL / exec'd source: nothing to inspect statically.
        return []
    findings = _MODULE_CACHE.get((path, source))
    if findings is None:
        findings = check_source(source, path)
        if len(_MODULE_CACHE) >= MODULE_CACHE_SIZE:
            del _MODULE_CACHE[next(iter(_MODULE_CACHE))]
        _MODULE_CACHE[path, source] = findings
    return list(findings)


def clear_module_cache() -> None:
    """Drop the per-module memo (tests redefine fixture modules)."""
    _MODULE_CACHE.clear()


# ----------------------------------------------------------------------
# Introspection over live driver objects
# ----------------------------------------------------------------------
def _signature_finding(driver_cls: type, method_name: str) -> "Finding | None":
    """GRM104 over the live class: the raw attribute's parameters go to
    the same comparison the AST rule uses."""
    raw = inspect.getattr_static(driver_cls, method_name, None)
    try:
        # A staticmethod / classmethod wraps the function it describes.
        params = inspect.signature(getattr(raw, "__func__", raw)).parameters
    except (TypeError, ValueError):
        return None
    message = signature_mismatch(
        driver_cls.__name__,
        method_name,
        list(params.values()),
        static=isinstance(raw, staticmethod),
    )
    if not message:
        return None
    return Finding(
        rule_id="GRM104",
        severity=Severity.ERROR,
        message=message,
        path=getattr(driver_cls, "__module__", ""),
        symbol=f"{driver_cls.__name__}.{method_name}",
    )


def check_driver_class(driver_cls: type) -> list[Finding]:
    """Introspect one driver class against the DDK contract."""
    # Imported lazily: analysis must stay importable without the driver
    # stack (e.g. when linting source trees that do not import).
    from repro.drivers.base import GridRmDriver

    findings: list[Finding] = []
    symbol = driver_cls.__name__
    module_path = getattr(driver_cls, "__module__", "")
    if not issubclass(driver_cls, GridRmDriver):
        # Foreign Driver implementations honour a looser contract; only
        # the DDK base class carries the hello/exchange recipe.
        return findings
    for member in REQUIRED_OVERRIDES:
        if member == "hello" and driver_cls.probe is not GridRmDriver.probe:
            continue
        if getattr(driver_cls, member, None) is getattr(GridRmDriver, member):
            findings.append(
                Finding(
                    rule_id="GRM106",
                    severity=Severity.ERROR,
                    message=f"{symbol} does not supply required member "
                    f"{member}()",
                    path=module_path,
                    symbol=f"{symbol}.{member}",
                )
            )
    if not getattr(driver_cls, "protocol", ""):
        findings.append(
            Finding(
                rule_id="GRM107",
                severity=Severity.ERROR,
                message=f"{symbol} declares no jdbc subprotocol",
                path=module_path,
                symbol=f"{symbol}.protocol",
            )
        )
    for method_name in (*REQUIRED_OVERRIDES, "probe"):
        f = _signature_finding(driver_cls, method_name)
        if f is not None:
            findings.append(f)
    return findings


def check_driver(driver: Any) -> list[Finding]:
    """Full conformance check of a live driver: introspection plus the
    AST rules over its defining module.

    AST findings are filtered to the driver's own class (a module
    defining several drivers reports each driver's problems separately);
    module-level findings (imports, helpers) are kept for all.
    """
    from repro.drivers.base import GridRmDriver

    driver_cls = type(driver)
    findings = check_driver_class(driver_cls)
    module = inspect.getmodule(driver_cls)
    if module is not None:
        sibling_drivers = {
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, GridRmDriver)
            and name != driver_cls.__name__
        }
        findings += [
            f
            for f in check_module(module)
            if f.symbol.partition(".")[0] not in sibling_drivers
        ]
    # De-duplicate: the AST signature rule and the introspection check
    # flag the same method alike.
    unique: dict[tuple[str, str], Finding] = {}
    for f in findings:
        unique.setdefault((f.rule_id, f.symbol), f)
    return list(unique.values())
