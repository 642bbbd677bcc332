"""GridRM Local layer — the gateway core (paper §2-§4).

Composition, top to bottom, mirroring paper Figure 2/3:

* :mod:`repro.core.acil` — Abstract Client Interface Layer.
* :mod:`repro.core.security` — Coarse and Fine Grained Security Layers.
* :mod:`repro.core.sessions` — session management.
* :mod:`repro.core.request_manager` — RequestManager: real-time vs
  historical queries, multi-source coordination, result consolidation.
* :mod:`repro.core.connection_manager` — ConnectionManager + JDBC
  connection pool.
* :mod:`repro.core.driver_manager` — GridRMDriverManager: registration,
  static/dynamic driver-to-resource allocation, last-driver cache,
  failure policies.
* :mod:`repro.core.schema_manager` — SchemaManager serving GLUE mappings.
* :mod:`repro.core.events` — EventManager: native event ingestion (fast
  buffer), translation, fan-out, history recording, outbound transmit.
* :mod:`repro.core.history` — the gateway's internal historical database.
* :mod:`repro.core.cache` — CacheController backing the tree view and
  inter-gateway scalability.
* :mod:`repro.core.health` — per-source circuit breakers: exponential
  backoff, pool quarantine and stale-result graceful degradation.
* :mod:`repro.core.deadline` — end-to-end query deadlines carried
  Consumer → Gateway → RequestManager → driver → network.
* :mod:`repro.core.retry` — per-query retry budgets with jittered
  backoff (retry-amplification guard).
* :mod:`repro.core.gateway` — the Gateway that wires it all together.
"""

from repro.core.deadline import Deadline
from repro.core.errors import (
    GridRmError,
    SecurityError,
    SessionError,
    NoSuitableDriverError,
    DataSourceError,
    DeadlineExceededError,
)
from repro.core.retry import RetryBudget, RetryPolicy
from repro.core.health import BreakerState, HealthTracker, SourceHealth
from repro.core.policy import GatewayPolicy, FailureAction
from repro.core.security import (
    Principal,
    AccessRule,
    CoarseGrainedSecurity,
    FineGrainedSecurity,
    ANONYMOUS,
)
from repro.core.sessions import Session, SessionManager
from repro.core.schema_manager import SchemaManager
from repro.core.cache import CacheController, CachedResult
from repro.core.history import HistoryStore
from repro.core.connection_manager import ConnectionManager, PooledConnection
from repro.core.driver_manager import (
    GridRmDriverManager,
    DriverPreference,
    RestoreReport,
)
from repro.core.events import Event, EventManager, SnmpTrapEventDriver
from repro.core.alerts import AlertMonitor, AlertRule
from repro.core.request_manager import RequestManager, QueryMode, QueryResult
from repro.core.gateway import Gateway

__all__ = [
    "GridRmError",
    "SecurityError",
    "SessionError",
    "NoSuitableDriverError",
    "DataSourceError",
    "Deadline",
    "DeadlineExceededError",
    "RetryBudget",
    "RetryPolicy",
    "BreakerState",
    "HealthTracker",
    "SourceHealth",
    "GatewayPolicy",
    "FailureAction",
    "Principal",
    "AccessRule",
    "CoarseGrainedSecurity",
    "FineGrainedSecurity",
    "ANONYMOUS",
    "Session",
    "SessionManager",
    "SchemaManager",
    "CacheController",
    "CachedResult",
    "HistoryStore",
    "ConnectionManager",
    "PooledConnection",
    "GridRmDriverManager",
    "DriverPreference",
    "RestoreReport",
    "Event",
    "EventManager",
    "SnmpTrapEventDriver",
    "AlertMonitor",
    "AlertRule",
    "RequestManager",
    "QueryMode",
    "QueryResult",
    "Gateway",
]
