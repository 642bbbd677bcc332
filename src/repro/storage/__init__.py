"""Durable storage substrate for the gateway's historical database.

The paper keeps "historical data ... in the Gateway's internal database";
until this package existed that database was a pure in-memory ring and a
gateway restart lost every sample.  :mod:`repro.storage` adds the
durability substrate underneath :class:`~repro.core.history.HistoryStore`:

* :mod:`repro.storage.simdisk` — a deterministic simulated disk on the
  virtual clock with write/fsync latency and torn-write-on-crash
  semantics;
* :mod:`repro.storage.wal` — a checksummed, record-oriented write-ahead
  log with policy-tunable group commit;
* :mod:`repro.storage.segments` — sealed, immutable, time-partitioned
  history segments (one per GLUE group per checkpoint) and the one
  order history rows are kept in (``recorded_key``);
* :mod:`repro.storage.checkpoint` — the manifest/CURRENT checkpoint
  protocol that truncates the WAL and drops segments the ring evicted;
* :mod:`repro.storage.recovery` — crash recovery: load the manifest's
  segments (quarantining corrupt ones), replay the committed WAL suffix,
  stop cleanly at torn/corrupt tails;
* :mod:`repro.storage.engine` — :class:`HistoryEngine`, the orchestrator
  the :class:`~repro.core.history.HistoryStore` talks to.

The headline invariant (checked by ``python -m repro crashtest`` on every
seeded crash): the recovered store serves exactly what a store that had
recorded only the pre-crash *acknowledged* rows serves — no acked row
lost, no evicted, torn or corrupt row ever served.
"""

from repro.storage.engine import HistoryEngine
from repro.storage.recovery import RecoveryReport
from repro.storage.simdisk import SimDisk
from repro.storage.wal import WriteAheadLog

__all__ = ["HistoryEngine", "RecoveryReport", "SimDisk", "WriteAheadLog"]
