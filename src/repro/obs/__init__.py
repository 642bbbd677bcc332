"""Observability plane: tracing, metrics, and the self-monitoring driver.

The paper's premise is homogeneous visibility into heterogeneous
resources; this package turns that lens back on the gateway itself:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters
  and virtual-clock histograms; every instrument is bound where
  its owner is constructed, and each manager's ``stats`` is a read-only
  :class:`StatsView` over its bound counters;
* :mod:`repro.obs.trace` — a :class:`Tracer` producing one span per hop
  of the query path, threaded along the same route the ``Deadline``
  travels (``span()`` / ``start_trace()`` return plain scope objects
  for ``with``);
* :mod:`repro.obs.invariants` — structural checks over finished traces
  (every span closed, child intervals within parents, hedged losers
  cancelled), shared by the chaos harness and the test suite;
* :mod:`repro.obs.driver` — the ``grm://`` self-monitoring driver that
  publishes the registry as the ``GatewayMetrics`` GLUE group, so
  ``SELECT * FROM GatewayMetrics`` works like any other query.
"""

from repro.obs.invariants import check_trace, check_tracer
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, StatsView
from repro.obs.trace import NO_TRACER, NULL_SPAN, Span, Trace, Tracer

# NOTE: repro.obs.driver (GatewayMetricsDriver) is deliberately NOT
# imported here — it pulls in the DDK stack, which itself depends on
# this package; import it as repro.obs.driver where needed.

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "StatsView",
    "NO_TRACER",
    "NULL_SPAN",
    "Span",
    "Trace",
    "Tracer",
    "check_trace",
    "check_tracer",
]
