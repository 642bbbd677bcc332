"""Gateway-level error hierarchy."""

from __future__ import annotations


class GridRmError(Exception):
    """Base class for gateway failures."""


class SecurityError(GridRmError):
    """The principal is not allowed to perform the operation."""


class SessionError(GridRmError):
    """Missing, expired or invalid session."""


class NoSuitableDriverError(GridRmError):
    """No registered driver can serve the data source."""


class DataSourceError(GridRmError):
    """The data source failed after the configured failure policy was
    exhausted (connect errors, timeouts, driver errors)."""


class RefusedError(GridRmError):
    """A source answered, and its answer refuses the query (an access
    deny, a syntax error): it says nothing about the source's health."""


class DeadlineExceededError(GridRmError):
    """The query's end-to-end deadline ran out.

    Raised by :class:`repro.core.deadline.Deadline` checks at every hop
    (gateway dispatch, driver selection, connection acquisition, native
    requests): once the remaining budget hits zero, the hop fails fast
    instead of starting work whose answer nobody is waiting for."""


class OverloadError(GridRmError):
    """The gateway refused the query to protect itself (load shed).

    Raised by the admission controller (:mod:`repro.core.admission`)
    when the gateway is saturated and the query's class is sheddable,
    and decoded off the GMA wire when a *remote* gateway shed the query.
    A shed says nothing about data-source health: it must never count as
    a circuit-breaker failure, never consume a retry-budget token, and
    never trigger a hedge — the client should back off and retry after
    ``retry_after`` (virtual seconds, 0 = unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float = 0.0,
        query_class: str = "",
    ) -> None:
        super().__init__(message)
        #: Hint: seconds (virtual) until the pressure state could relax.
        self.retry_after = retry_after
        #: The shed query's class ("critical" / "interactive" / "batch").
        self.query_class = query_class


class PolicyError(GridRmError):
    """Invalid gateway policy configuration."""


class QueryValidationError(GridRmError):
    """The query was rejected at compile time by the GLUE validator —
    unknown group, unknown attribute or type-incompatible predicate —
    before any driver was selected or any agent traffic spent.

    ``findings`` holds the :class:`repro.analysis.findings.Finding`
    objects explaining exactly what is wrong.
    """

    def __init__(self, message: str, findings: "list | None" = None) -> None:
        super().__init__(message)
        self.findings = list(findings or [])
