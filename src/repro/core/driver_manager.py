"""GridRMDriverManager (paper §3.1.3, §3.2.2, §4).

Registers and unregisters resource drivers and performs
driver-to-resource allocation.  Drivers are selected either

* **statically** — "using driver preferences registered in advance by the
  user", an ordered driver-name list per data source; or
* **dynamically** — scanning the registry's ``accepts_url`` loop at
  runtime (paper Table 2).

For performance the manager keeps "a cache containing details of the
driver last successfully used for a data source"; configuration rules
(:class:`~repro.core.policy.FailureAction`) determine what happens when a
cached or preferred driver no longer works: report the error, retry the
driver *n* times, try the next preference, or dynamically select a fresh
driver.

Registration is reflection-friendly, mirroring paper Table 1: a driver
can be (re)loaded from a ``"package.module:ClassName"`` spec, and every
successful registration is recorded in a persistent store so a restarted
gateway re-registers the same plug-ins.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Mapping, MutableMapping, Optional

from repro.core.deadline import Deadline
from repro.core.errors import DataSourceError, GridRmError, NoSuitableDriverError
from repro.core.policy import FailureAction, GatewayPolicy
from repro.dbapi.exceptions import SQLException
from repro.dbapi.interfaces import Driver
from repro.dbapi.registry import DriverRegistry
from repro.dbapi.url import JdbcUrl
from repro.drivers.base import GridRmConnection, GridRmDriver
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.network import Network


#: Default connect-time liveness-probe timeout (matches the DDK's
#: ``probe(url, timeout=1.0)`` default); clamped further by any deadline.
PROBE_TIMEOUT = 1.0


def driver_spec(driver: Driver) -> str:
    """The ``module:ClassName`` spec used for persistent registration."""
    cls = type(driver)
    return f"{cls.__module__}:{cls.__qualname__}"


def load_driver(spec: str, network: Network, *, gateway_host: str) -> GridRmDriver:
    """Instantiate a driver from its spec — the ``Class.forName`` trick of
    paper Table 1, kept generic by never referencing concrete names."""
    module_name, _, class_name = spec.partition(":")
    if not module_name or not class_name:
        raise NoSuitableDriverError(f"malformed driver spec {spec!r}")
    try:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name)
    except (ImportError, AttributeError) as exc:
        raise NoSuitableDriverError(f"cannot load driver {spec!r}: {exc}") from exc
    if not (isinstance(cls, type) and issubclass(cls, GridRmDriver)):
        raise NoSuitableDriverError(f"{spec!r} is not a GridRmDriver subclass")
    return cls(network, gateway_host=gateway_host)


@dataclass
class RestoreReport:
    """Outcome of :meth:`GridRmDriverManager.restore_persisted`.

    Iterating the report iterates the restored drivers.
    """

    restored: list[GridRmDriver] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (spec, error)

    def __iter__(self):
        return iter(self.restored)


@dataclass
class DriverPreference:
    """A user's static, prioritised driver choice for one data source."""

    url_key: str
    driver_names: list[str] = field(default_factory=list)


def _url_key(url: JdbcUrl) -> str:
    """Cache/preference key: the source endpoint, protocol-agnostic."""
    port = url.port if url.port is not None else 0
    return f"{url.host}:{port}/{url.path}"


class GridRmDriverManager:
    """Driver registration + driver-to-resource allocation."""

    def __init__(
        self,
        registry: DriverRegistry,
        policy: GatewayPolicy,
        *,
        persistent_store: MutableMapping[str, str] | None = None,
        metrics: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.registry = registry
        self.policy = policy
        #: spec string -> display name; survives "restarts" when the
        #: caller passes the same mapping back in (paper §3.2.2).
        self.persistent_store = persistent_store if persistent_store is not None else {}
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._preferences: dict[str, DriverPreference] = {}
        self._last_driver: dict[str, Driver] = {}
        self.stats = StatsView(
            metrics if metrics is not None else MetricsRegistry(),
            "drivers",
            (
                "selections",
                "cache_hits",
                "dynamic_scans",
                "failovers",
                "connect_failures",
            ),
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, driver: Driver, *, persist: bool = True) -> None:
        self.registry.register(driver)
        if persist:
            try:
                self.persistent_store[driver_spec(driver)] = driver.name()
            except SQLException:
                self.persistent_store[driver_spec(driver)] = type(driver).__name__

    def unregister(self, driver: Driver) -> bool:
        removed = self.registry.unregister(driver)
        if removed:
            self.persistent_store.pop(driver_spec(driver), None)
            # Drop any cached allocation pointing at the departed driver.
            for key in [k for k, d in self._last_driver.items() if d is driver]:
                del self._last_driver[key]
        return removed

    def restore_persisted(
        self, network: Network, *, gateway_host: str, skip_names: Any = ()
    ) -> "RestoreReport":
        """Re-register every persisted driver spec (gateway start-up).

        A malformed or unloadable spec (renamed class, missing module,
        corrupted store entry) must not abort start-up: it is skipped,
        left out of the restored set, and reported in the returned
        :class:`RestoreReport`'s ``skipped`` list for logging.

        ``skip_names`` lists driver display names already live in the
        registry (e.g. the default driver set), whose specs are left
        alone rather than re-instantiated.
        """
        report = RestoreReport()
        skip = set(skip_names)
        for spec, stored_name in list(self.persistent_store.items()):
            if stored_name in skip:
                continue
            try:
                driver = load_driver(spec, network, gateway_host=gateway_host)
                self.registry.register(driver)
            except (GridRmError, SQLException, TypeError) as exc:
                # NoSuitableDriverError for malformed/unloadable specs,
                # SQLException from a driver constructor or registration,
                # TypeError from a constructor with the wrong arity.
                report.skipped.append((spec, f"{type(exc).__name__}: {exc}"))
                continue
            report.restored.append(driver)
        return report

    def driver_names(self) -> list[str]:
        return self.registry.driver_names()

    def driver_by_name(self, name: str) -> Optional[Driver]:
        for d in self.registry.drivers():
            if d.name() == name:
                return d
        return None

    # ------------------------------------------------------------------
    # Preferences and the last-driver cache
    # ------------------------------------------------------------------
    def set_preference(self, url: JdbcUrl | str, driver_names: list[str]) -> None:
        """Pin an ordered driver list for one data source (paper Fig. 8)."""
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        key = _url_key(url)
        self._preferences[key] = DriverPreference(url_key=key, driver_names=list(driver_names))

    def clear_preference(self, url: JdbcUrl | str) -> bool:
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        return self._preferences.pop(_url_key(url), None) is not None

    def cached_driver(self, url: JdbcUrl) -> Optional[Driver]:
        if not self.policy.driver_cache_enabled:
            return None
        return self._last_driver.get(_url_key(url))

    def invalidate_cache(self, url: JdbcUrl | str | None = None) -> None:
        if url is None:
            self._last_driver.clear()
            return
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        self._last_driver.pop(_url_key(url), None)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _candidates(self, url: JdbcUrl) -> tuple[list[Driver], bool]:
        """Candidate drivers in trial order: preferences > cache > scan.

        The boolean flag reports whether the list is just the cached
        last-successful driver — failure policies that "try another"
        must then widen to a fresh scan.
        """
        pref = self._preferences.get(_url_key(url))
        if pref is not None and pref.driver_names:
            out = []
            for name in pref.driver_names:
                d = self.driver_by_name(name)
                if d is not None:
                    out.append(d)
            if out:
                return out, False
        cached = self.cached_driver(url)
        if cached is not None and cached in self.registry:
            self.stats.inc("cache_hits")
            return [cached], True
        self.stats.inc("dynamic_scans")
        return self.registry.locate_all(url), False

    def open_connection(
        self,
        url: JdbcUrl | str,
        info: Mapping[str, Any] | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> GridRmConnection:
        """Allocate a driver for ``url`` and open a connection, applying
        the configured failure policy on the way.

        A ``deadline`` is re-checked before every connect attempt: a
        budget already eaten by earlier candidates (each costing a native
        probe timeout) stops the selection loop instead of trying ever
        more drivers nobody is waiting for.
        """
        url = JdbcUrl.parse(url) if isinstance(url, str) else url
        with self.tracer.span("driver.connect", url=str(url)) as span:
            return self._open_connection_traced(url, info, deadline, span)

    def _open_connection_traced(
        self,
        url: JdbcUrl,
        info: Mapping[str, Any] | None,
        deadline: Deadline | None,
        span: Any,
    ) -> GridRmConnection:
        if deadline is not None:
            deadline.check(f"driver selection for {url}")
        self.stats.inc("selections")
        candidates, only_cached = self._candidates(url)
        span["candidates"] = len(candidates)
        if not candidates:
            raise NoSuitableDriverError(f"no registered driver accepts {url}")

        action = self.policy.failure_action
        attempts_per_driver = (
            1 + self.policy.failure_retries if action is FailureAction.RETRY else 1
        )
        tried: list[Driver] = []
        last_error: Exception | None = None

        def try_driver(driver: Driver) -> Optional[GridRmConnection]:
            nonlocal last_error
            for _ in range(attempts_per_driver):
                attempt_info = dict(info or {})
                if deadline is not None:
                    deadline.check(f"driver selection for {url}")
                    # Bound the connect-time liveness probe by whatever
                    # budget remains, so a dead host cannot eat more of
                    # the deadline than the caller has left to give.
                    base = float(attempt_info.get("connect_timeout", PROBE_TIMEOUT))
                    attempt_info["connect_timeout"] = deadline.clamp(
                        base, f"connect probe for {url}"
                    )
                try:
                    conn = driver.connect(url, attempt_info)
                except SQLException as exc:
                    self.stats.inc("connect_failures")
                    last_error = exc
                    continue
                if self.policy.driver_cache_enabled:
                    self._last_driver[_url_key(url)] = driver
                try:
                    span["driver"] = driver.name()
                except SQLException:
                    span["driver"] = type(driver).__name__
                return conn
            return None

        for driver in candidates:
            tried.append(driver)
            conn = try_driver(driver)
            if conn is not None:
                return conn
            if action is FailureAction.REPORT:
                raise DataSourceError(
                    f"driver {driver.name()!r} failed for {url}: {last_error}"
                ) from last_error
            self.stats.inc("failovers")
            # RETRY exhausts its budget on the first candidate only; the
            # remaining candidates exist for TRY_NEXT / DYNAMIC.
            if action is FailureAction.RETRY:
                break

        # TRY_NEXT means "try another driver": when the trial list was only
        # the cached last-success entry, the "next" drivers come from a
        # fresh scan.  DYNAMIC always widens to a fresh scan.
        if action is FailureAction.DYNAMIC or (
            action is FailureAction.TRY_NEXT and only_cached
        ):
            # Fresh dynamic scan for anything not yet tried — the cached /
            # preferred driver may be stale while another fits (paper §4).
            self.invalidate_cache(url)
            self.stats.inc("dynamic_scans")
            for driver in self.registry.locate_all(url):
                if driver in tried:
                    continue
                tried.append(driver)
                conn = try_driver(driver)
                if conn is not None:
                    return conn

        raise DataSourceError(
            f"all {len(tried)} driver(s) failed for {url} "
            f"(policy {action.value}): {last_error}"
        ) from last_error
