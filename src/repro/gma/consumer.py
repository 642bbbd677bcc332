"""GMA consumer: the client side of gateway-to-gateway queries."""

from __future__ import annotations

from repro.core.deadline import Deadline
from repro.core.errors import OverloadError
from repro.core.request_manager import QueryMode, QueryResult
from repro.gma.directory import DirectoryClient
from repro.gma.records import (
    Fields,
    ProducerRecord,
    RemoteQueryFailure,
    call,
    stamp,
    unpack_statuses,
)
from repro.obs.trace import Tracer
from repro.simnet.network import Address, Network

class GatewayConsumer:
    """Looks producers up in the directory and queries them."""

    def __init__(
        self,
        network: Network,
        from_host: str,
        directory: DirectoryClient,
        *,
        from_site: str,
        tracer: Tracer,
    ) -> None:
        self.network = network
        self.from_host = from_host
        self.directory = directory
        self.from_site = from_site
        self.tracer = tracer

    def query_producer(
        self,
        producer: ProducerRecord,
        request: dict[str, object],
        *,
        deadline: Deadline | None = None,
        query_class: str | None = None,
    ) -> QueryResult:
        """Send one ``query`` request to one producer, under the hop
        envelope of :mod:`repro.gma.records`; ``trace_id`` in the answer
        is the query's trace at the *remote* gateway (ours holds the wire
        span).  A shed is :class:`OverloadError`; every other failure, a
        reply out of shape included, :class:`RemoteQueryFailure`.
        """
        key = producer.key()
        timeout = stamp(
            request, tracer=self.tracer, deadline=deadline, query_class=query_class,
            what=f"remote query to {key}",
        )
        address = Address(producer.gateway_host, producer.port)
        with self.tracer.span("wire", producer=key) as span:
            try:
                reply = Fields(
                    call(self.network, self.from_host, address, request, timeout=timeout)
                ).accepted("refused")
                trace_id = reply.opt("trace_id", str) or ""
                if trace_id:
                    span["remote_trace"] = trace_id
                columns = reply.items("columns", str)
                rows = reply.items("rows", list)
                if any(len(row) != len(columns) for row in rows):
                    raise reply.bad("rows")
                return QueryResult(
                    columns,
                    [list(row) for row in rows],
                    unpack_statuses(reply),
                    QueryMode(request["mode"]),
                    trace_id=trace_id,
                )
            except OverloadError:
                span["shed"] = True
                raise
            except RemoteQueryFailure as exc:
                # A refusal stays one (:class:`RemoteRefusal`).
                raise type(exc)(f"producer {key}: {exc}") from exc

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
    ) -> QueryResult:
        """Query a site via its first reachable registered producer.

        A ``deadline`` stops the failover loop: once the budget is gone,
        remaining producers are not tried (``DeadlineExceededError``
        propagates rather than being folded into the all-failed
        summary).  A shed (:class:`OverloadError`) stops it too — a
        producer protecting itself is not a producer that failed, and
        hammering its siblings with the same query would amplify the
        overload.
        """
        producers = self.directory.lookup_site(site)
        if not producers:
            raise RemoteQueryFailure(f"no producer registered for site {site!r}")
        request = {
            "op": "query",
            "sql": sql,
            "urls": urls,
            "mode": mode,
            "max_age": max_age,
            "from_site": self.from_site,
        }
        last = RemoteQueryFailure("")
        for producer in producers:
            try:
                return self.query_producer(
                    producer, dict(request), deadline=deadline, query_class=query_class
                )
            except RemoteQueryFailure as exc:
                last = exc
        # The last producer's refusal is the site's (:class:`RemoteRefusal`).
        raise type(last)(f"all {len(producers)} producer(s) for {site!r} failed: {last}")
