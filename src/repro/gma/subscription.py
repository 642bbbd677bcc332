"""Inter-gateway event subscriptions (paper §3.1.5, GMA publish/subscribe).

"This behaviour allows GridRM to propagate events between Gateways and
groups of diverse data sources."  GMA's third interaction mode (besides
request/response and query) is subscription, and R-GMA makes it
relational: every monitoring datum, events included, is a tuple, and a
subscription is a continuous ``SELECT``.  The event plane is therefore an
instance of the stream plane (:mod:`repro.gma.streams`), not a second
mechanism beside it:

* :class:`EventPublisher` attaches to a gateway and owns a
  :class:`~repro.gma.streams.StreamHub` over a one-group schema
  (:data:`EVENT_GROUP`).  Every local event — translated from a native
  trap or synthesised by the alert monitor — is published as one row.
* :class:`EventSubscriber` owns a
  :class:`~repro.gma.streams.StreamConsumer`; a subscription is
  ``SELECT * FROM Event [WHERE <where>]`` registered at a publisher, and
  delivered rows become :class:`~repro.core.events.Event` objects again
  for the local callbacks.

Leases, tombstone grace, pause/resume, bounded buffers, overflow fates,
frames and the typed shed at ``stream_max_subscriptions`` are the hub's;
renewal and re-registration are the consumer's (``subscriber.consumer``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.core.events import Event
from repro.core.plans import PlanCache
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.simnet.network import Address, Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gateway import Gateway

PUBLISHER_PORT = 8400

#: Events as a relation.  ``Fields`` carries the event's free-form
#: mapping as one opaque cell; predicates address the other five columns.
EVENT_GROUP = GlueGroup(
    name="Event",
    fields=(
        GlueField("SourceHost", "TEXT"),
        GlueField("Name", "TEXT"),
        GlueField("Severity", "TEXT"),
        GlueField("Time", "TIMESTAMP"),
        GlueField("NativeKind", "TEXT"),
        GlueField("Fields", "TEXT"),
    ),
    description="GridRM events (native traps, alerts, gateway state changes)",
)
EVENT_COLUMNS = EVENT_GROUP.field_names()


def encode_event(event: Event) -> list[Any]:
    """An event as one row of :data:`EVENT_GROUP`."""
    return [
        event.source_host,
        event.name,
        event.severity,
        event.time,
        event.native_kind,
        dict(event.fields),
    ]


def decode_event(row: Any) -> Optional[Event]:
    """The event a delivered ``SELECT *`` row carries; ``None`` for
    anything that is not a full, well-typed row (untrusted boundary)."""
    if not isinstance(row, list) or len(row) != len(EVENT_COLUMNS):
        return None
    source_host, name, severity, time, native_kind, fields = row
    try:
        return Event(
            source_host=str(source_host),
            name=str(name),
            severity=str(severity),
            time=float(time),
            fields=dict(fields),
            native_kind=str(native_kind),
        )
    except (TypeError, ValueError, OverflowError):
        return None


class EventPublisher:
    """Gateway-side event publisher: a stream hub fed by the gateway's
    event manager.  The control and data wires are the hub's (see
    :class:`~repro.gma.streams.StreamHub`); ``stats`` are its counters.
    """

    def __init__(self, gateway: "Gateway", *, port: int = PUBLISHER_PORT) -> None:
        # Imported here, not at module level: streams.py imports the
        # archiver (Republisher's base), which imports this module.
        from repro.gma.streams import StreamHub

        schema = GlueSchema("events-1", [EVENT_GROUP])
        self.hub = StreamHub(
            gateway.network,
            gateway.host,
            plans=PlanCache(schema),
            schema=schema,
            policy=gateway.policy,
            port=port,
        )
        self.address = self.hub.address
        self.stats = self.hub.stats
        gateway.events.register_listener(self._on_event)

    def _on_event(self, event: Event) -> None:
        now = self.hub.network.clock.now()
        self.hub.publish(EVENT_GROUP.name, [("", EVENT_COLUMNS, [encode_event(event)], now)])

    def subscriber_count(self) -> int:
        return self.hub.subscription_count()


class EventSubscriber:
    """Consumer side: receive remote gateways' events locally.

    Flow control and lease upkeep are ``self.consumer``'s: pause, resume,
    renew and deregister a subscription there, by (publisher, id).
    """

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        port: int = 8401,
    ) -> None:
        from repro.gma.streams import StreamConsumer

        self.consumer = StreamConsumer(network, host, port=port)
        self.consumer.on_batch(self._on_batch)
        self._callbacks: list[Callable[[Event], None]] = []
        self.received = 0

    def _on_batch(self, batch: dict[str, Any]) -> None:
        for row in batch["rows"]:
            event = decode_event(row)
            if event is None:
                continue
            self.received += 1
            for cb in list(self._callbacks):
                cb(event)

    def on_event(self, callback: Callable[[Event], None]) -> None:
        self._callbacks.append(callback)

    def subscribe(
        self,
        publisher: Address,
        *,
        where: str = "",
        lease: float = 300.0,
        max_buffer: int | None = None,
        overflow: str | None = None,
    ) -> int:
        """Subscribe at a remote publisher; returns the subscription id.

        ``where`` is a SQL predicate over :data:`EVENT_GROUP`
        (``"Name LIKE 'alert.%'"``, ``"SourceHost = 'n0'"``), evaluated
        at the publisher.  A refused subscription — unparsable or
        invalid predicate, unknown overflow policy — raises
        :class:`~repro.simnet.errors.NetworkError`; a full subscription
        table raises :class:`~repro.core.errors.OverloadError`.
        """
        sql = f"SELECT * FROM {EVENT_GROUP.name}"
        if where:
            sql += f" WHERE {where}"
        return self.consumer.register(
            publisher, sql, lease=lease, max_buffer=max_buffer, overflow=overflow
        )
