"""EventManager (paper §3.1.5, Figure 4).

"The Manager provides a bridge between the native events issued by data
sources and GridRM": event drivers receive native events (SNMP traps
here) and translate them into the standard GridRM event format; incoming
events are recorded for historical analysis and forwarded to every
registered listener; and events can be pushed back *out* — translated to
a data source's native format and transmitted — which is how GridRM
"propagates events between Gateways and groups of diverse data sources".

Buffering follows Figure 4: a bounded **fast buffer** absorbs bursts
("ensures events are not lost in a busy system"); when it fills, events
spill to a larger **disk buffer**; only when both are full are events
dropped.  A periodic pump drains a bounded batch per tick — the drain
rate versus arrival rate trade-off is experiment E6.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Mapping, Optional

from repro.agents import snmp as wire
from repro.core.history import HistoryStore
from repro.core.policy import GatewayPolicy
from repro.simnet.network import Address, Network

#: Listener signature.
Listener = Callable[["Event"], None]


@dataclass(frozen=True)
class Event:
    """The GridRM internal event format."""

    source_host: str
    name: str
    severity: str  # "info" | "warning" | "error"
    time: float
    fields: Mapping[str, Any] = field(default_factory=dict)
    native_kind: str = ""  # which event driver produced it


class EventDriver:
    """Translate between one native event format and :class:`Event`.

    The "custom Formatter plugged into each Driver" of Figure 4 is the
    pair of methods below.
    """

    #: Port this driver listens on at the gateway.
    port = 0
    #: Tag recorded into ``Event.native_kind``.
    kind = "base"

    def decode(self, payload: Any, src: Address, now: float) -> Optional[Event]:
        """Native payload -> Event (None to discard silently)."""
        raise NotImplementedError

    def encode(self, event: Event) -> Any:
        """Event -> native payload for outbound transmission."""
        raise NotImplementedError


class SnmpTrapEventDriver(EventDriver):
    """SNMP trap <-> GridRM event translation."""

    port = wire.TRAP_PORT
    kind = "snmp-trap"

    #: Known enterprise trap OIDs -> (event name, severity).
    TRAP_NAMES = {
        wire.oid_str(wire.TRAP_LOAD_HIGH): ("load.high", "warning"),
    }

    def decode(self, payload: Any, src: Address, now: float) -> Optional[Event]:
        try:
            msg = wire.SnmpMessage.decode(payload)
        except (wire.SnmpCodecError, TypeError):
            return None
        if msg.pdu_type != wire.TAG_TRAP or not msg.varbinds:
            return None
        trap_oid = wire.oid_str(msg.varbinds[0].oid)
        name, severity = self.TRAP_NAMES.get(trap_oid, (f"trap.{trap_oid}", "info"))
        fields = {
            wire.oid_str(vb.oid): vb.value for vb in msg.varbinds[1:]
        }
        return Event(
            source_host=src.host,
            name=name,
            severity=severity,
            time=now,
            fields=fields,
            native_kind=self.kind,
        )

    def encode(self, event: Event) -> bytes:
        varbinds = [wire.VarBind(oid=wire.TRAP_LOAD_HIGH, value=event.name)]
        for key, value in event.fields.items():
            try:
                oid = wire.oid_parse(key)
            except ValueError:
                continue
            varbinds.append(wire.VarBind(oid=oid, value=value))
        return wire.SnmpMessage(
            version=1,
            community="public",
            pdu_type=wire.TAG_TRAP,
            request_id=0,
            error_status=0,
            error_index=0,
            varbinds=tuple(varbinds),
        ).encode()


@dataclass
class _Registration:
    listener: Listener
    source_host: Optional[str]
    name_prefix: Optional[str]

    def wants(self, event: Event) -> bool:
        if self.source_host is not None and event.source_host != self.source_host:
            return False
        if self.name_prefix is not None and not event.name.startswith(self.name_prefix):
            return False
        return True


class EventManager:
    """Fast buffer -> disk buffer -> translate -> record + fan out."""

    #: Events drained per pump tick — the "busy system" bottleneck of E6.
    DEFAULT_DRAIN_BATCH = 64
    DEFAULT_DRAIN_PERIOD = 1.0

    def __init__(
        self,
        network: Network,
        gateway_host: str,
        policy: GatewayPolicy,
        *,
        history: HistoryStore | None = None,
        drain_batch: int = DEFAULT_DRAIN_BATCH,
        drain_period: float = DEFAULT_DRAIN_PERIOD,
    ) -> None:
        if drain_batch < 1:
            raise ValueError(f"drain_batch must be >= 1: {drain_batch!r}")
        self.network = network
        self.gateway_host = gateway_host
        self.policy = policy
        self.history = history
        self.drain_batch = drain_batch
        self._drivers: dict[int, EventDriver] = {}
        self._fast: Deque[tuple[int, Any, Address, float]] = deque()
        self._disk: Deque[tuple[int, Any, Address, float]] = deque()
        self._registrations: list[_Registration] = []
        self._reg_ids = itertools.count(1)
        self.recent: Deque[Event] = deque(maxlen=256)
        self.stats = {
            "received": 0,
            "translated": 0,
            "delivered": 0,
            "undecodable": 0,
            "spilled": 0,
            "dropped": 0,
            "transmitted": 0,
            "internal": 0,
        }
        self._pump_timer = network.clock.call_every(drain_period, self.pump)

    def stop(self) -> None:
        """Stop the drain pump and unbind event-driver ports (shutdown)."""
        self._pump_timer.cancel()
        for port in self._drivers:
            self.network.close(Address(self.gateway_host, port))

    # ------------------------------------------------------------------
    # Event drivers / ingestion
    # ------------------------------------------------------------------
    def install_driver(self, driver: EventDriver) -> None:
        """Listen for this driver's native events at its port."""
        if driver.port in self._drivers:
            raise ValueError(f"port {driver.port} already has an event driver")
        self._drivers[driver.port] = driver
        address = Address(self.gateway_host, driver.port)

        def on_datagram(payload: Any, src: Address, _port: int = driver.port) -> None:
            self._ingest(_port, payload, src)

        self.network.listen(address, lambda p, s: None, datagram_handler=on_datagram)

    def _ingest(self, port: int, payload: Any, src: Address) -> None:
        self.stats["received"] += 1
        item = (port, payload, src, self.network.clock.now())
        if len(self._fast) < self.policy.event_fast_buffer_size:
            self._fast.append(item)
        elif len(self._disk) < self.policy.event_disk_buffer_size:
            self.stats["spilled"] += 1
            self._disk.append(item)
        else:
            self.stats["dropped"] += 1

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def register_listener(
        self,
        listener: Listener,
        *,
        source_host: str | None = None,
        name_prefix: str | None = None,
    ) -> _Registration:
        """Register for events, optionally filtered by source or name."""
        reg = _Registration(
            listener=listener, source_host=source_host, name_prefix=name_prefix
        )
        self._registrations.append(reg)
        return reg

    def unregister_listener(self, registration: _Registration) -> bool:
        try:
            self._registrations.remove(registration)
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    # Pump
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Drain up to ``drain_batch`` buffered events; returns the count."""
        processed = 0
        while processed < self.drain_batch:
            if self._fast:
                item = self._fast.popleft()
            elif self._disk:
                item = self._disk.popleft()
            else:
                break
            processed += 1
            port, payload, src, received_at = item
            driver = self._drivers.get(port)
            if driver is None:
                self.stats["undecodable"] += 1
                continue
            event = driver.decode(payload, src, received_at)
            if event is None:
                self.stats["undecodable"] += 1
                continue
            self.stats["translated"] += 1
            self._dispatch(event)
        return processed

    def emit(self, event: Event) -> None:
        """Dispatch an internally generated GridRM event.

        Gateway subsystems (alert rules, circuit-breaker transitions)
        produce events that never had a native form: they bypass the
        ingest buffers and decode step but are recorded into history and
        fanned out to listeners exactly like translated native events.
        """
        self.stats["internal"] += 1
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        self.recent.append(event)
        if self.history is not None:
            self.history.record(
                "LogEvent",
                [
                    {
                        "HostName": event.source_host,
                        "Timestamp": event.time,
                        "EventTime": event.time,
                        "Program": event.native_kind,
                        "EventName": event.name,
                        "Level": event.severity,
                        "Message": repr(dict(event.fields)),
                    }
                ],
                source_url=f"event://{event.source_host}",
                recorded_at=event.time,
            )
        for reg in list(self._registrations):
            if reg.wants(event):
                self.stats["delivered"] += 1
                reg.listener(event)

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def transmit(self, event: Event, target: Address, *, kind: str | None = None) -> None:
        """Translate a GridRM event to a native format and send it out
        (paper: "the Manager can pass events back out to data sources")."""
        driver = None
        if kind is not None:
            for d in self._drivers.values():
                if d.kind == kind:
                    driver = d
                    break
        elif self._drivers:
            driver = self._drivers.get(target.port) or next(iter(self._drivers.values()))
        if driver is None:
            raise ValueError(f"no event driver for kind {kind!r}")
        payload = driver.encode(event)
        self.network.send(self.gateway_host, target, payload)
        self.stats["transmitted"] += 1

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        return len(self._fast) + len(self._disk)
