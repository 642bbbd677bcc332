"""GMA consumer: the client side of gateway-to-gateway queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.deadline import Deadline
from repro.core.errors import GridRmError, OverloadError
from repro.gma.directory import DirectoryClient
from repro.gma.records import ProducerRecord
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.errors import NetworkError
from repro.simnet.network import Address, Network


class RemoteQueryFailure(GridRmError):
    """The remote gateway rejected or failed the query.

    A :class:`GridRmError` so the dispatch layer treats it as a
    legitimate branch/flight outcome (captured and shared), not a
    programming error.
    """


@dataclass
class RemoteResult:
    """A remote gateway's answer, mirroring QueryResult's shape."""

    columns: list[str]
    rows: list[list[Any]]
    statuses: list[dict[str, Any]] = field(default_factory=list)
    producer: ProducerRecord | None = None
    #: Trace id of the query as executed at the *remote* gateway (its
    #: tracer owns that trace; ours only records the wire span).
    remote_trace_id: str = ""

    def dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, r)) for r in self.rows]


class GatewayConsumer:
    """Looks producers up in the directory and queries them."""

    def __init__(
        self,
        network: Network,
        from_host: str,
        directory: DirectoryClient,
        *,
        from_site: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.network = network
        self.from_host = from_host
        self.directory = directory
        self.from_site = from_site or network.site_of(from_host)
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.queries_sent = 0

    # ------------------------------------------------------------------
    def producers_for(self, site: str) -> list[ProducerRecord]:
        return self.directory.lookup_site(site)

    def query_producer(
        self,
        producer: ProducerRecord,
        sql: str,
        *,
        urls: list[str] | None = None,
        mode: str = "cached_ok",
        max_age: float | None = None,
        timeout: float | None = None,
        deadline: Deadline | None = None,
        query_class: str | None = None,
    ) -> RemoteResult:
        """Send one query to one producer.

        A ``deadline`` clamps the network timeout to the remaining
        budget and rides along on the wire as ``deadline_budget`` — a
        relative number of seconds, because the producer's clock is not
        ours to anchor an absolute instant against.  The producer
        re-anchors it locally, so every hop sees only what is left.
        ``query_class`` rides along too, so the remote gateway's
        admission control sheds by the *originating* query's priority.
        A remote shed comes back as :class:`OverloadError` — typed, so
        callers never mistake a protecting gateway for a failing one.
        """
        self.queries_sent += 1
        payload = {
            "op": "query",
            "sql": sql,
            "urls": urls,
            "mode": mode,
            "max_age": max_age,
            "from_site": self.from_site,
        }
        if query_class is not None:
            payload["query_class"] = query_class
        if deadline is not None:
            base = self.network.DEFAULT_TIMEOUT if timeout is None else timeout
            timeout = deadline.clamp(base, f"remote query to {producer.key()}")
            payload["deadline_budget"] = deadline.remaining()
        # Span context rides the wire so the remote gateway re-parents
        # its own query trace under this hop (see GatewayProducer._query).
        ctx = self.tracer.context()
        if ctx is not None:
            payload["trace_ctx"] = ctx
        with self.tracer.span("wire", producer=producer.key()) as span:
            try:
                response = self.network.request(
                    self.from_host,
                    Address(producer.gateway_host, producer.port),
                    payload,
                    timeout=timeout,
                )
            except NetworkError as exc:
                raise RemoteQueryFailure(
                    f"producer {producer.key()} unreachable: {exc}"
                ) from exc
            if isinstance(response, dict) and response.get("shed"):
                # The remote gateway refused the query to protect itself:
                # propagate as the typed shed, not a producer failure
                # (no failover to siblings, no breaker penalty upstream).
                span["shed"] = True
                raise OverloadError(
                    f"producer {producer.key()} shed the query: "
                    f"{response.get('error', 'overloaded')}",
                    retry_after=float(response.get("retry_after", 0) or 0),
                    query_class=str(response.get("query_class", "")),
                )
            if not isinstance(response, dict) or not response.get("ok"):
                error = (
                    response.get("error") if isinstance(response, dict) else "garbage"
                )
                raise RemoteQueryFailure(f"producer {producer.key()}: {error}")
            remote_trace_id = str(response.get("trace_id", ""))
            if remote_trace_id:
                span["remote_trace"] = remote_trace_id
            # Batched wire shape: status keys once, statuses positional.
            if "status_keys" not in response or "status_rows" not in response:
                raise RemoteQueryFailure(
                    f"producer {producer.key()}: malformed reply (no statuses)"
                )
            keys = list(response["status_keys"])
            return RemoteResult(
                columns=list(response.get("columns", [])),
                rows=[list(r) for r in response.get("rows", [])],
                statuses=[dict(zip(keys, row)) for row in response["status_rows"]],
                producer=producer,
                remote_trace_id=remote_trace_id,
            )

    def query_site(
        self,
        site: str,
        sql: str,
        *,
        urls: list[str] | None = None,
        mode: str = "cached_ok",
        max_age: float | None = None,
        deadline: Deadline | None = None,
        query_class: str | None = None,
    ) -> RemoteResult:
        """Query a site via its first reachable registered producer.

        A ``deadline`` stops the failover loop: once the budget is gone,
        remaining producers are not tried (``DeadlineExceededError``
        propagates rather than being folded into the all-failed
        summary).  A shed (:class:`OverloadError`) stops it too — a
        producer protecting itself is not a producer that failed, and
        hammering its siblings with the same query would amplify the
        overload.
        """
        producers = self.producers_for(site)
        if not producers:
            raise RemoteQueryFailure(f"no producer registered for site {site!r}")
        last: Exception | None = None
        for producer in producers:
            try:
                return self.query_producer(
                    producer, sql, urls=urls, mode=mode, max_age=max_age,
                    deadline=deadline, query_class=query_class,
                )
            except RemoteQueryFailure as exc:
                last = exc
        raise RemoteQueryFailure(
            f"all {len(producers)} producer(s) for {site!r} failed: {last}"
        )
