"""Per-query retry budgets with jittered exponential backoff.

The driver manager's :class:`~repro.core.policy.FailureAction` machinery
retries *within* one connection attempt (paper §4); this module adds a
second, query-scoped layer above it: after a source's whole fetch fails
transiently (connect error, timeout), the request manager may re-run it —
but only while the query's shared :class:`RetryBudget` has tokens left.

The budget is the "retry amplification" guard from the Tail-at-Scale
literature: without it, a query fanned out over N failing sources retries
N times *each*, multiplying load on an already-struggling site.  With it,
all sources of one query draw from one small pool, so a systemic outage
degrades to fast failures instead of a retry storm.

Backoff between attempts reuses the health layer's jittered-exponential
helper (:func:`repro.core.health.jittered_backoff`) so breaker re-probes
and query retries desynchronise identically.  Retries are only attempted
for *transient* failures against *idempotent* drivers (see
``GridRmDriver.idempotent``), and never when the remaining end-to-end
deadline could not absorb the backoff plus another attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.health import jittered_backoff

#: Tokens shared by all sources of one query (caps amplification).
RETRY_BUDGET = 3

#: Jittered-exponential backoff base between attempts (s, virtual).
BASE_BACKOFF = 0.05

#: Ceiling on the per-attempt backoff (reached at attempt 7).
MAX_BACKOFF = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Query-level retries; the request manager takes ``attempts`` from
    ``GatewayPolicy.retry_attempts``, budget and backoffs are the module
    constants above."""

    #: Max attempts per source per query, including the first (1 = off).
    attempts: int = 1

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Jittered wait before retry number ``attempt`` (1-based)."""
        raw = min(MAX_BACKOFF, BASE_BACKOFF * (2 ** (attempt - 1)))
        return jittered_backoff(raw, MAX_BACKOFF, rng)


class RetryBudget:
    """Tokens one query's sources share; ``take()`` before each retry."""

    __slots__ = ("tokens", "spent", "denied")

    def __init__(self, tokens: int) -> None:
        self.tokens = max(0, tokens)
        self.spent = 0
        self.denied = 0

    def take(self) -> bool:
        """Spend one token; False (and counted) when the pool is dry."""
        if self.spent >= self.tokens:
            self.denied += 1
            return False
        self.spent += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RetryBudget(spent={self.spent}/{self.tokens}, denied={self.denied})"
