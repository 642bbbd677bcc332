"""Abstract Client Interface Layer (paper §2).

"The Abstract Client Interface Layer (ACIL) provides a clear separation
between client specific APIs and the data model used within GridRM."
Concrete client channels — the Java applet, JSP pages, web/Grid services
and the GMA producer of Figure 2 — all funnel through this layer, which
owns session validation and the Coarse Grained Security checks, then
hands plain (urls, sql, mode) triples to the gateway internals and plain
dict rows back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence, TYPE_CHECKING

from repro.core.errors import SecurityError, SessionError
from repro.core.request_manager import QueryMode, QueryResult
from repro.core.security import ANONYMOUS, Principal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway


@dataclass
class ClientRequest:
    """A channel-neutral client query."""

    urls: Sequence[str]
    sql: str
    mode: str = "realtime"
    session_token: str | None = None
    max_age: float | None = None
    #: Admission priority ("critical" | "interactive" | "batch"); empty
    #: means the gateway policy's default class.  Under overload, BATCH
    #: sheds first and CRITICAL is never shed.
    query_class: str = ""


@dataclass
class ClientResponse:
    """A channel-neutral reply: dict rows plus per-source status."""

    columns: list[str]
    rows: list[dict[str, Any]]
    statuses: list[dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0
    mode: str = "realtime"
    #: False when the request as a whole failed (``error`` says why) —
    #: used by batch replies, where one member's failure must not abort
    #: its siblings.
    ok: bool = True
    error: str = ""

    @classmethod
    def from_result(cls, result: QueryResult) -> "ClientResponse":
        return cls(
            columns=list(result.columns),
            rows=result.dicts(),
            statuses=[s.as_dict() for s in result.statuses],
            elapsed=result.elapsed,
            mode=result.mode.value,
        )


class AbstractClientInterface:
    """The ACIL facade every client channel adapts to."""

    def __init__(self, gateway: "Gateway") -> None:
        self.gateway = gateway

    # ------------------------------------------------------------------
    def resolve_principal(self, session_token: str | None) -> Principal:
        """Map a session token to its principal (ANONYMOUS when security
        is off and no token given)."""
        gw = self.gateway
        if session_token is not None:
            return gw.sessions.validate(session_token).principal
        if gw.policy.security_enabled:
            raise SessionError("this gateway requires a session token")
        return ANONYMOUS

    def query(self, request: ClientRequest) -> ClientResponse:
        """Validate, authorise and execute a client query."""
        principal = self.resolve_principal(request.session_token)
        try:
            mode = QueryMode(request.mode)
        except ValueError:
            raise SecurityError(f"unknown query mode {request.mode!r}") from None
        result = self.gateway.query(
            list(request.urls),
            request.sql,
            mode=mode,
            principal=principal,
            max_age=request.max_age,
            query_class=request.query_class or None,
        )
        return ClientResponse.from_result(result)

    def query_many(self, requests: Sequence[ClientRequest]) -> list[ClientResponse]:
        """Execute a batch of client queries concurrently.

        The batch costs the slowest member's virtual elapsed time.
        Replies come back in request order; a member that fails (bad
        session, security rejection, invalid SQL) yields a reply with
        ``ok=False`` and the error text, without aborting its siblings.
        """

        def member(request: ClientRequest):
            return lambda: self.query(request)

        outcomes = self.gateway.dispatcher.run([member(r) for r in requests])
        replies: list[ClientResponse] = []
        for request, outcome in zip(requests, outcomes):
            if outcome.error is not None:
                replies.append(
                    ClientResponse(
                        columns=[],
                        rows=[],
                        mode=request.mode,
                        ok=False,
                        error=str(outcome.error),
                    )
                )
            else:
                replies.append(outcome.value)
        return replies
