"""Metrics registry: counters and virtual-clock histograms.

One :class:`MetricsRegistry` per gateway gathers every manager's
telemetry under dotted names (``requests.queries``, ``pool.reused``,
``dispatch.hedges_fired`` ...).  Instruments are bound once, where the
component that bumps them is constructed: a serving path holds its
counters and histograms, it never looks one up by name (lint rule
GRM108 keeps it so).  Each manager's ``stats`` — dict-shaped for the
request/connection/driver managers, attribute-shaped for dispatch and
network — is a read-only :class:`StatsView` over its bound counters, so
tests and console panels read the keys they always did while the
self-monitoring driver (:mod:`repro.obs.driver`) serves the very same
instruments as the ``GatewayMetrics`` GLUE group.

Histograms are geometric-bucketed (four buckets per doubling), so
recording is O(1) and quantiles are **bounded**: a reported quantile is
a bucket upper bound clamped into ``[min, max]``, so
``min <= p50 <= p95 <= p99 <= max`` always holds and
``quantile(100) == max`` exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.analysis import races

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.clock import VirtualClock

#: Histogram bucket growth factor: four buckets per doubling keeps the
#: worst-case quantile overestimate below 19%.
_GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(_GROWTH)


class Counter:
    """A monotone counter.  ``add`` refuses negative deltas; the only
    way down is an explicit :meth:`reset` (benchmark bookkeeping)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0

    @property
    def value(self) -> float:
        return self._value

    def inc(self) -> None:
        self._value += 1
        if races.ACTIVE is not None:
            races.ACTIVE.note("metrics.counter", self.name, "w", site="Counter.inc")

    def add(self, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {delta!r}")
        self._value += delta
        if races.ACTIVE is not None:
            races.ACTIVE.note("metrics.counter", self.name, "w", site="Counter.add")

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value!r})"


class Histogram:
    """Geometric-bucketed histogram of non-negative samples.

    Samples land in bucket ``ceil(log(v) / log(growth))`` (zeros in a
    dedicated bucket), so recording is O(1).  Quantiles walk the buckets to the
    requested rank and report that bucket's upper bound, clamped into
    ``[min, max]`` of the observed samples.
    """

    __slots__ = ("name", "_buckets", "_zeros", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} takes values >= 0: {value!r}")
        self.count += 1
        self.total += value
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "metrics.histogram", self.name, "w", site="Histogram.record"
            )
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0:
            self._zeros += 1
            return
        # Round before ceil so values sitting exactly on a bucket edge
        # (e.g. 2.0 with growth 2**0.25) bucket identically across
        # platforms despite log() rounding.
        index = math.ceil(round(math.log(value) / _LOG_GROWTH, 9))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile estimate (``0 < q <= 100``)."""
        if not 0 < q <= 100:
            raise ValueError(f"quantile out of range (0, 100]: {q!r}")
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "metrics.histogram", self.name, "r", site="Histogram.quantile"
            )
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * (q / 100.0)))
        if rank >= self.count:
            # The top-ranked sample is the maximum, exactly; a bucket's
            # upper bound can round one ulp below a sample on its edge.
            return self.max
        seen = self._zeros
        if seen >= rank:
            return self._clamp(0.0)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._clamp(_GROWTH ** index)
        return self.max

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    @property
    def p50(self) -> float:
        return self.quantile(50)

    @property
    def p95(self) -> float:
        return self.quantile(95)

    @property
    def p99(self) -> float:
        return self.quantile(99)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """All of one gateway's instruments, by dotted name."""

    def __init__(self, clock: "VirtualClock | None" = None) -> None:
        self.clock = clock
        self._metrics: dict[str, Counter | Histogram] = {}

    def _instrument(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """A plain-data view of every instrument (console / servlet)."""
        out: dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "p50": metric.p50 if metric.count else 0.0,
                    "p95": metric.p95 if metric.count else 0.0,
                    "p99": metric.p99 if metric.count else 0.0,
                }
            else:
                out[name] = metric.value
        return out

    def as_rows(self) -> list[dict[str, Any]]:
        """One record per instrument, shaped for the GatewayMetrics
        GLUE group (the self-monitoring driver's native records)."""
        rows: list[dict[str, Any]] = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                rows.append(
                    {
                        "name": name,
                        "kind": "histogram",
                        "value": metric.mean,
                        "count": metric.count,
                        "p50": metric.p50 if metric.count else 0.0,
                        "p95": metric.p95 if metric.count else 0.0,
                        "p99": metric.p99 if metric.count else 0.0,
                    }
                )
            else:
                rows.append(
                    {
                        "name": name,
                        "kind": "counter",
                        "value": metric.value,
                        "count": None,
                        "p50": None,
                        "p95": None,
                        "p99": None,
                    }
                )
        return rows


class StatsView(Mapping):
    """Read-only view over counters bound at construction.

    Every manager's ``stats`` is one of these: key ``k`` is the counter
    ``<prefix>.<k>`` of the owning registry, resolved once, here.  It
    reads as the plain dict or dataclass it replaced — ``stats["k"]``,
    ``stats.k``, ``dict(stats)``, :meth:`as_dict`, iteration in
    declaration order — and ``SELECT * FROM GatewayMetrics`` serves the
    same numbers.  The owner writes through :meth:`inc` (or holds the
    registry counter itself on a path hot enough to care); nothing is
    assigned through the view and no key appears after construction, so
    a bump is one dict lookup and one ``Counter.add``.
    """

    __slots__ = ("_counters",)

    def __init__(
        self, registry: MetricsRegistry, prefix: str, keys: "tuple[str, ...]"
    ) -> None:
        self._counters = {key: registry.counter(f"{prefix}.{key}") for key in keys}

    def inc(self, key: str, n: float = 1) -> None:
        self._counters[key].add(n)

    def __getitem__(self, key: str) -> float:
        return self._counters[key].value

    def __getattr__(self, name: str) -> float:
        if not name.startswith("_"):
            counter = self._counters.get(name)
            if counter is not None:
                return counter.value
        raise AttributeError(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def as_dict(self) -> dict[str, float]:
        return {key: counter.value for key, counter in self._counters.items()}

    def reset(self) -> None:
        """Zero every counter (benchmark bookkeeping)."""
        for counter in self._counters.values():
            counter.reset()

    def __repr__(self) -> str:
        return repr(self.as_dict())
