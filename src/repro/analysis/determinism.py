"""Determinism sanitizer: the GRM50x static rule family.

GridRM's whole benchmark methodology (the MDS/R-GMA/Hawkeye comparison
of Zhang, Freschl & Schopf) rests on *replayable* simulation: the chaos
replays (PR 4) and crashtest signatures (PR 6) are byte-identical only
while every input to the simulation is a pure function of the seed and
the virtual clock.  One stray wall-clock read, one unseeded ``random``
draw or one set-ordered merge silently breaks replay identity — and the
breakage shows up as an unreproducible benchmark, not as a test failure.

These rules make the determinism contract a *checked* property:

* **GRM101** (:mod:`repro.analysis.rules`) — every stdlib wall-clock
  read (``time.*`` clocks and ``sleep``, ``datetime.now`` / ``today``,
  ``date.today``, ``os.times``);
* **GRM502** — module-level ``random`` use (the shared global generator
  is seeded from OS entropy) and unseeded ``random.Random()``;
* **GRM503** — iteration over ``set`` / ``frozenset`` expressions
  feeding ordered outputs (merges, renders, wire encoding) without a
  ``sorted(...)`` wrapper;
* **GRM504** — ``id()`` / ``hash()``-dependent ordering: ``id(...)``
  calls, and ``id`` / ``hash`` used as a sort key;
* **GRM505** — entropy sources: ``os.urandom`` / ``getrandom``,
  ``uuid.uuid1`` / ``uuid4``, the ``secrets`` module,
  ``random.SystemRandom``.

GRM101, GRM502 and GRM505 are rows of one table,
:data:`repro.analysis.rules.STDLIB_HAZARDS`, read through the module's
imports: ``import time as t; t.time()`` and ``from os import urandom``
are caught, a parameter that happens to be named ``time`` is not.

Deliberate escapes are annotated in place::

    stamp = time.time()  # grm: allow-wallclock

The tag may also sit on a comment-only line directly above.  Each rule
has its own tag (``allow-wallclock``, ``allow-random``,
``allow-set-order``, ``allow-id-order``, ``allow-entropy``) so the
residual allowlist documents exactly which hazard was accepted and why.

Note on ``dict``: iteration over dicts (including ``.keys()`` /
``.values()`` / ``.items()``) is insertion-ordered in Python >= 3.7 and
therefore deterministic whenever insertion order is — so it is *not*
flagged here.  The hazard the family guards is genuinely unordered
collections; a dict populated from a set iteration is caught at the set.

The runtime half of the sanitizer — the virtual-lane race detector
reporting GRM55x findings — lives in :mod:`repro.analysis.races`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    LintRule,
    ModuleContext,
    Severity,
    StdlibRule,
    register_rule,
)

#: Aggregating sinks for which iteration order genuinely does not
#: matter: consuming a set through these is deterministic.
_ORDER_INSENSITIVE_SINKS = frozenset(
    {
        "sorted",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "set",
        "frozenset",
    }
)

#: Sort-shaped calls whose ``key=`` argument orders the output.
_SORT_CALLS = frozenset({"sorted", "sort", "min", "max"})


@register_rule
class UnseededRandomRule(StdlibRule):
    """Replay identity: no module-level or unseeded random generators.

    The module-level functions (``random.random()``, ``random.choice``,
    ``random.seed`` ...) all share one hidden global generator seeded
    from OS entropy at import; ``random.Random()`` with no arguments
    seeds the same way.  The sanctioned idiom is an explicitly seeded
    ``random.Random(seed)`` owned by the component that draws from it.
    """

    rule_id = "GRM502"
    severity = Severity.ERROR
    title = "module-level or unseeded random (pass an explicit seed)"
    tag = "random"
    hazard = (
        "draws from a generator seeded by OS entropy; use an explicitly "
        "seeded random.Random instance"
    )


class _SetTracker(ast.NodeVisitor):
    """Shallow, conservative set-ness inference over one scope.

    A name counts as set-typed only while *every* assignment to it in
    the enclosing function body is a syntactic set expression — the
    moment anything else is assigned, the name is forgotten.  This keeps
    the rule quiet on genuinely ambiguous code at the cost of missing
    sets that arrive through calls; the dynamic lane detector covers the
    rest at run time.
    """

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.poisoned: set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self.set_names)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set and target.id not in self.poisoned:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
                    self.poisoned.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            annotated_set = isinstance(
                node.annotation, (ast.Name, ast.Subscript)
            ) and _annotation_is_set(node.annotation)
            value_set = node.value is not None and _is_set_expr(
                node.value, self.set_names
            )
            if (annotated_set or value_set) and node.target.id not in self.poisoned:
                self.set_names.add(node.target.id)
            else:
                self.set_names.discard(node.target.id)
                self.poisoned.add(node.target.id)
        self.generic_visit(node)


def _annotation_is_set(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id in ("set", "frozenset")
    return False


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Syntactic set-ness: literals, comprehensions, constructors, set
    algebra over sets, and names already known to hold sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function bodies —
    those are visited as scopes of their own, with their own tracker."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _walk_scope(child)


@register_rule
class SetIterationOrderRule(LintRule):
    """Replay identity: unordered iteration must not feed ordered output.

    Set iteration order is a function of element hashes and insertion
    history — with ``PYTHONHASHSEED`` randomisation it changes *between
    processes*, so any merge, render or wire encoding built by iterating
    a set is different on every run.  Wrap the iteration in ``sorted()``
    (or keep the data in a list/dict, which preserve order).
    """

    rule_id = "GRM503"
    severity = Severity.ERROR
    title = "unordered set iteration feeding ordered output (use sorted())"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(self, module: ModuleContext, scope: ast.AST) -> Iterator[Finding]:
        tracker = _SetTracker()
        body = scope.body if hasattr(scope, "body") else []
        # Comprehensions consumed directly by an order-insensitive sink
        # (``sorted(x for x in some_set)``) are fine; _walk_scope yields
        # the enclosing Call before its children, so bless them first.
        blessed: set[ast.AST] = set()
        # Statement-ordered walk: track assignments, then test uses; a
        # single pass in source order approximates def-before-use.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # visited as a scope of its own
            for node in _walk_scope(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    tracker.visit(node)
                if isinstance(node, ast.Call):
                    callee = ""
                    if isinstance(node.func, ast.Name):
                        callee = node.func.id
                    elif isinstance(node.func, ast.Attribute):
                        callee = node.func.attr
                    if callee in _ORDER_INSENSITIVE_SINKS:
                        blessed.update(
                            arg
                            for arg in node.args
                            if isinstance(
                                arg,
                                (ast.ListComp, ast.GeneratorExp, ast.SetComp),
                            )
                        )
                yield from self._check_node(
                    module, node, tracker.set_names, blessed
                )

    def _check_node(
        self,
        module: ModuleContext,
        node: ast.AST,
        set_names: set[str],
        blessed: set[ast.AST],
    ) -> Iterator[Finding]:
        # for x in <set>: ...
        if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
            if not module.allowed(node, "set-order"):
                yield self._order_finding(module, node.iter, "for-loop")
            return
        # Comprehension generators drawing from a set.
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if node in blessed:
                return
            for gen in node.generators:
                if _is_set_expr(gen.iter, set_names) and not module.allowed(
                    node, "set-order"
                ):
                    yield self._order_finding(module, gen.iter, "comprehension")
            return
        # Order-sensitive sinks: list(<set>), tuple(<set>), sep.join(<set>).
        if isinstance(node, ast.Call):
            func = node.func
            callee = ""
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee in ("list", "tuple", "join", "extend") and node.args:
                arg = node.args[0]
                if _is_set_expr(arg, set_names) and not module.allowed(
                    node, "set-order"
                ):
                    yield self._order_finding(module, arg, f"{callee}()")
            # <set>.pop() returns an arbitrary element.
            if (
                callee == "pop"
                and isinstance(func, ast.Attribute)
                and _is_set_expr(func.value, set_names)
                and not node.args
                and not module.allowed(node, "set-order")
            ):
                yield self.finding(
                    module,
                    node,
                    "set.pop() removes an arbitrary (hash-ordered) element; "
                    "pick deterministically (# grm: allow-set-order to escape)",
                    symbol="set.pop",
                )

    def _order_finding(
        self, module: ModuleContext, iter_node: ast.expr, context: str
    ) -> Finding:
        return self.finding(
            module,
            iter_node,
            f"{context} iterates a set in hash order; wrap in sorted() so "
            "downstream merges/renders replay identically "
            "(# grm: allow-set-order to escape)",
            symbol=f"set-iteration-{context}",
        )


@register_rule
class IdentityOrderRule(LintRule):
    """Replay identity: no ordering by memory address or string hash.

    ``id()`` is a CPython heap address — different on every run — and
    ``hash(str)`` is randomised per process by ``PYTHONHASHSEED``.
    Either one used as (or inside) a sort key makes the output order an
    accident of the allocator.
    """

    rule_id = "GRM504"
    severity = Severity.ERROR
    title = "id()/hash()-dependent ordering (order by a stable key)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.allowed(node, "id-order"):
                continue
            func = node.func
            # Plain id(...) anywhere: its value is a per-run address.
            if isinstance(func, ast.Name) and func.id == "id" and node.args:
                yield self.finding(
                    module,
                    node,
                    "id() is a per-run memory address; derive identity from "
                    "stable data (# grm: allow-id-order to escape)",
                    symbol="id",
                )
                continue
            callee = ""
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee not in _SORT_CALLS:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                bad = self._unstable_key(kw.value)
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"{callee}(key={bad}) orders by a per-run value; "
                        "use a stable key (# grm: allow-id-order to escape)",
                        symbol=f"{callee}-key-{bad}",
                    )

    @staticmethod
    def _unstable_key(key: ast.expr) -> str:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda):
            for inner in ast.walk(key.body):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id in ("id", "hash")
                ):
                    return inner.func.id
        return ""


@register_rule
class EntropySourceRule(StdlibRule):
    """Replay identity: no OS entropy in the simulation substrate."""

    rule_id = "GRM505"
    severity = Severity.ERROR
    title = "entropy source (os.urandom/uuid4/secrets cannot replay)"
    tag = "entropy"
    hazard = "draws OS entropy, which can never replay; derive values from the seed"


#: The family's ids, in rule order (the registry coverage tests read it;
#: CI's determinism gate spells its own list).  Wall-clock reads are
#: GRM101, which belongs to the family too.
DETERMINISM_RULE_IDS = ("GRM101", "GRM502", "GRM503", "GRM504", "GRM505")
