"""Multi-gateway event archiver — an archiving GMA consumer.

The GMA architecture the paper builds on explicitly anticipates
"archiver" consumers: components that subscribe to many producers and
record the event stream for later analysis (R-GMA, which the paper cites,
is exactly this shape).  :class:`EventArchiver` subscribes to any number
of gateway :class:`~repro.gma.subscription.EventPublisher` endpoints and
records every received event into its own relational store, queryable
with the same SQL engine the rest of GridRM uses.

Its feeds are ordinary event subscriptions: the subscriber's
:class:`~repro.gma.streams.StreamConsumer` renews their leases at
half-lease cadence and re-registers one a publisher forgot (counters in
``archiver.subscriber.consumer.stats``).
"""

from __future__ import annotations

from repro.core.events import Event
from repro.gma.subscription import EventPublisher, EventSubscriber
from repro.simnet.network import Address, Network
from repro.sql.database import Database
from repro.sql.values import SelectResult

#: Archived events kept, newest last; older rows are dropped first.
MAX_ROWS = 100_000


class EventArchiver:
    """Subscribes to gateways and archives their event streams."""

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        port: int = 8450,
    ) -> None:
        if not network.has_host(host):
            network.add_host(host, site="archiver")
        self.network = network
        self.host = host
        self.subscriber = EventSubscriber(network, host, port=port)
        self.subscriber.on_event(self._archive)
        self.db = Database()
        self.stats = {"archived": 0}
        self.db.create_table(
            "events",
            [
                ("source_host", "TEXT"),
                ("name", "TEXT"),
                ("severity", "TEXT"),
                ("time", "TIMESTAMP"),
                ("native_kind", "TEXT"),
                ("received_at", "TIMESTAMP"),
            ],
        )

    # ------------------------------------------------------------------
    def follow(
        self,
        publisher: EventPublisher | Address,
        *,
        where: str = "",
        lease: float = 300.0,
    ) -> int:
        """Subscribe to a gateway's events; returns the subscription id."""
        address = (
            publisher.address if isinstance(publisher, EventPublisher) else publisher
        )
        return self.subscriber.subscribe(address, where=where, lease=lease)

    def stop(self) -> None:
        """Unsubscribe everywhere and stop renewing."""
        self.subscriber.consumer.stop()

    # ------------------------------------------------------------------
    def _archive(self, event: Event) -> None:
        table = self.db.table("events")
        table.insert_row(
            {
                "source_host": event.source_host,
                "name": event.name,
                "severity": event.severity,
                "time": event.time,
                "native_kind": event.native_kind,
                "received_at": self.network.clock.now(),
            }
        )
        overflow = len(table.rows) - MAX_ROWS
        if overflow > 0:
            del table.rows[:overflow]
        self.stats["archived"] += 1

    # ------------------------------------------------------------------
    def query(self, sql: str) -> SelectResult:
        """Arbitrary SQL over the archive (table: ``events``)."""
        return self.db.query(sql)

    def event_count(self) -> int:
        return len(self.db.table("events").rows)

    def noisiest_hosts(self, limit: int = 5) -> list[tuple[str, int]]:
        result = self.db.query(
            "SELECT source_host, COUNT(*) AS n FROM events "
            f"GROUP BY source_host ORDER BY n DESC, source_host ASC LIMIT {limit}"
        )
        return [(r[0], r[1]) for r in result.rows]

    def severity_breakdown(self) -> dict[str, int]:
        result = self.db.query(
            "SELECT severity, COUNT(*) FROM events GROUP BY severity"
        )
        return {r[0]: r[1] for r in result.rows}
