"""Threshold alerting (paper Figures 3 and 4: "Threshold exceeded.
Event transmitted").

GridRM's event path is fed from two directions: native events pushed by
agents (SNMP traps, handled by :mod:`repro.core.events`) and thresholds
the *gateway itself* watches by polling — Figure 3 shows the Notification
Manager emitting an event when a query result crosses a threshold.
:class:`AlertMonitor` implements the latter: each :class:`AlertRule`
pairs a data source poll with a SQL WHERE-style predicate; on a matching
row an :class:`~repro.core.events.Event` is synthesised into the
EventManager, flowing to listeners, history and (optionally) outbound
native transmission exactly like a trap would.

Rules poll on the virtual clock with per-rule periods, and re-arm
hysteresis prevents a sustained condition from emitting one event per
poll tick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.errors import QueryValidationError
from repro.core.events import Event
from repro.core.request_manager import QueryMode
from repro.sql.errors import SqlError
from repro.sql.parser import parse_select

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway


@dataclass
class AlertRule:
    """One threshold watch.

    Attributes:
        name: event name emitted ("alert.<name>").
        urls: data sources to poll (any JDBC URL text).
        sql: the probe query; its WHERE clause IS the threshold — any row
            it returns is a violation (e.g. ``SELECT HostName,
            LoadAverage1Min FROM Processor WHERE LoadAverage1Min > 4``).
        period: poll interval, virtual seconds.
        severity: severity of emitted events.
        use_cache: poll with CACHED_OK (cheap, bounded staleness) or
            force REALTIME.
        rearm_after: a (rule, host) pair that fired stays silent until it
            has been clear for this long (hysteresis); 0 re-fires every
            matching poll.
    """

    name: str
    urls: list[str]
    sql: str
    period: float = 30.0
    severity: str = "warning"
    use_cache: bool = True
    rearm_after: float = 120.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be > 0: {self.period!r}")
        if self.rearm_after < 0:
            raise ValueError(f"rearm_after must be >= 0: {self.rearm_after!r}")
        if not self.urls:
            raise ValueError("rule needs at least one data source URL")
        # Validate the probe SQL once, at definition time.
        try:
            parse_select(self.sql)
        except SqlError as exc:
            raise ValueError(f"bad rule SQL: {exc}") from exc


@dataclass
class _Armed:
    """Firing state for one (rule, host)."""

    last_fired: float = float("-inf")
    firing: bool = False


class AlertMonitor:
    """Polls alert rules and feeds violations into the EventManager."""

    def __init__(self, gateway: "Gateway") -> None:
        self.gateway = gateway
        self._rules: dict[str, AlertRule] = {}
        self._timers: dict[str, Any] = {}
        self._state: dict[tuple[str, str], _Armed] = {}
        self._ids = itertools.count(1)
        self.stats = {"polls": 0, "violations": 0, "events_emitted": 0, "suppressed": 0}

    # ------------------------------------------------------------------
    def add_rule(self, rule: AlertRule) -> None:
        """Install a rule; polling starts about one period from now.

        Rules are staggered by a small per-rule offset so that two rules
        with the same period never poll at the same instant — co-firing
        pollers would each miss the shared query cache (the second poll
        starts while the first is still waiting on the network) and
        double the agent intrusion for nothing.
        """
        if rule.name in self._rules:
            raise ValueError(f"duplicate alert rule {rule.name!r}")
        # Compile-time GLUE validation: a rule naming an unknown group or
        # attribute would poll forever and never match — reject it at
        # install time, exactly like the RequestManager rejects ad-hoc
        # queries, instead of burning a poll period per mistake.  The
        # findings are those of the plan-cache entry the polls are served
        # from, so the text is analysed once.
        findings = self.gateway.request_manager.plan_entry(
            rule.sql, self._mode(rule)
        ).findings
        if findings:
            raise QueryValidationError(
                f"alert rule {rule.name!r} SQL is invalid: "
                + "; ".join(f.message for f in findings),
                findings=findings,
            )
        stagger = 0.25 * len(self._rules)
        self._rules[rule.name] = rule
        self._timers[rule.name] = self.gateway.network.clock.call_every(
            rule.period, lambda r=rule: self.poll_rule(r),
            first_in=rule.period + stagger,
        )

    def remove_rule(self, name: str) -> bool:
        rule = self._rules.pop(name, None)
        if rule is None:
            return False
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()
        for key in [k for k in self._state if k[0] == name]:
            del self._state[key]
        return True

    def rules(self) -> list[AlertRule]:
        return [self._rules[k] for k in sorted(self._rules)]

    # ------------------------------------------------------------------
    @staticmethod
    def _mode(rule: AlertRule) -> QueryMode:
        return QueryMode.CACHED_OK if rule.use_cache else QueryMode.REALTIME

    def poll_rule(self, rule: AlertRule) -> int:
        """Execute one poll of ``rule``; returns events emitted."""
        self.stats["polls"] += 1
        gw = self.gateway
        result = gw.query(rule.urls, rule.sql, mode=self._mode(rule), max_age=rule.period)
        now = gw.network.clock.now()
        emitted = 0
        hosts_in_violation = set()
        for row in result.dicts():
            host = str(row.get("HostName") or "?")
            hosts_in_violation.add(host)
            self.stats["violations"] += 1
            state = self._state.setdefault((rule.name, host), _Armed())
            if state.firing and rule.rearm_after > 0:
                self.stats["suppressed"] += 1
                state.last_fired = now
                continue
            state.firing = True
            state.last_fired = now
            event = Event(
                source_host=host,
                name=f"alert.{rule.name}",
                severity=rule.severity,
                time=now,
                fields={k: v for k, v in row.items() if v is not None},
                native_kind="gateway-alert",
            )
            gw.events.emit(event)
            emitted += 1
            self.stats["events_emitted"] += 1
        # Re-arm hosts whose condition has been clear long enough.
        for (name, host), state in self._state.items():
            if name != rule.name or not state.firing:
                continue
            if host in hosts_in_violation:
                continue
            if now - state.last_fired >= rule.rearm_after:
                state.firing = False
        return emitted

    def firing(self) -> list[tuple[str, str]]:
        """(rule, host) pairs currently in the firing state."""
        return sorted(k for k, s in self._state.items() if s.firing)
