"""Security layers.

The paper (§2) stacks two security layers inside each gateway:

* the **Coarse Grained Security Layer (CGSL)** sits behind the client
  interface and gates whole operations — may this principal query at all,
  may it administer drivers, may it reach the Global layer;
* the **Fine Grained Security Layer (FGSL)** sits in front of the
  Abstract Data Layer and gates individual resources — which hosts and
  which GLUE groups a principal may read ("multi-level and granularity of
  security for data access", §1.1).

Rules are first-match-wins over (principal-or-role, host pattern, group
pattern), with fnmatch-style wildcards, so "deny student * Job" plus
"allow * * *" express the usual shapes.  In a hierarchy of gateways
"security decisions can be deferred to the local Gateway responsible for
a given resource" — remote queries are re-checked by the owning gateway,
not by the forwarding one.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import SecurityError


@dataclass(frozen=True)
class Principal:
    """An authenticated client identity with a set of roles."""

    name: str
    roles: frozenset[str] = frozenset()

    @classmethod
    def with_roles(cls, name: str, *roles: str) -> "Principal":
        return cls(name=name, roles=frozenset(roles))


#: The unauthenticated principal used when security is disabled.
ANONYMOUS = Principal(name="anonymous", roles=frozenset({"anonymous"}))

#: Operations the CGSL distinguishes.
OPERATIONS = ("query", "query_remote", "admin", "events", "history")


@dataclass(frozen=True)
class AccessRule:
    """One FGSL rule: allow/deny (who, host pattern, group pattern)."""

    allow: bool
    who: str  # principal name, "role:<role>", or "*"
    host_pattern: str = "*"
    group_pattern: str = "*"

    def matches(self, principal: Principal, host: str, group: str) -> bool:
        if self.who != "*":
            if self.who.startswith("role:"):
                if self.who[5:] not in principal.roles:
                    return False
            elif self.who != principal.name:
                return False
        return fnmatch.fnmatchcase(host, self.host_pattern) and fnmatch.fnmatchcase(
            group, self.group_pattern
        )


class CoarseGrainedSecurity:
    """Operation-level gate between the ACIL and the gateway internals."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        # operation -> set of principal names / "role:<r>" / "*" allowed.
        self._grants: dict[str, set[str]] = {op: {"*"} for op in OPERATIONS}
        # Admin defaults to operators only.
        self._grants["admin"] = {"role:admin"}

    def grant(self, operation: str, who: str) -> None:
        self._check_op(operation)
        self._grants[operation].add(who)

    def revoke(self, operation: str, who: str) -> None:
        self._check_op(operation)
        self._grants[operation].discard(who)

    def restrict(self, operation: str, *who: str) -> None:
        """Replace an operation's grant set entirely."""
        self._check_op(operation)
        self._grants[operation] = set(who)

    def permits(self, principal: Principal, operation: str) -> bool:
        self._check_op(operation)
        if not self.enabled:
            return True
        for entry in self._grants[operation]:
            if entry == "*":
                return True
            if entry.startswith("role:"):
                if entry[5:] in principal.roles:
                    return True
            elif entry == principal.name:
                return True
        return False

    def check(self, principal: Principal, operation: str) -> None:
        if not self.permits(principal, operation):
            raise SecurityError(
                f"{principal.name!r} may not perform {operation!r} on this gateway"
            )

    def _check_op(self, operation: str) -> None:
        if operation not in self._grants:
            raise SecurityError(f"unknown operation {operation!r}")


class FineGrainedSecurity:
    """Resource-level gate in front of the Abstract Data Layer.

    First matching rule wins; with no matching rule the default applies
    (allow by default, matching the open deployments of the era — flip
    ``default_allow`` for a locked-down site).
    """

    def __init__(self, *, enabled: bool = True, default_allow: bool = True) -> None:
        self.enabled = enabled
        self.default_allow = default_allow
        self._rules: list[AccessRule] = []

    def add_rule(self, rule: AccessRule) -> None:
        self._rules.append(rule)

    def add_rules(self, rules: Iterable[AccessRule]) -> None:
        for r in rules:
            self.add_rule(r)

    def permits(self, principal: Principal, host: str, group: str) -> bool:
        if not self.enabled:
            return True
        for rule in self._rules:
            if rule.matches(principal, host, group):
                return rule.allow
        return self.default_allow

    def check(self, principal: Principal, host: str, group: str) -> None:
        if not self.permits(principal, host, group):
            raise SecurityError(
                f"{principal.name!r} may not read group {group!r} on host {host!r}"
            )
