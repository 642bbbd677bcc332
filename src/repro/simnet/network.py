"""In-process simulated network.

:meth:`Network.request` performs a blocking RPC (advancing the virtual
clock by the modelled round-trip delay), and :meth:`Network.send`
delivers a one-way datagram (used for SNMP traps and GridRM event
propagation) via the clock's schedule.

``request`` is the only RPC implementation.  Work overlaps in virtual
time by calling it inside the branches of a
:meth:`~repro.simnet.clock.VirtualClock.concurrent` scope: every branch
starts at the scope's opening instant, so N round-trips cost the *max*
of their delays once the scope joins.

Hosts belong to *sites*; traffic within a site uses the LAN link model and
traffic between sites uses the WAN model, matching the paper's two-layer
deployment (Figure 1).  Fault injection — dead hosts, partitions, extra
loss — drives the failover experiments (E10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry, StatsView
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import (
    HostUnreachableError,
    PayloadCorruptedError,
    PortClosedError,
    TimeoutError_,
)
from repro.simnet.link import LAN, WAN, LinkModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.faults import FaultPlane

#: RPC handler: (payload, source address) -> response payload.
RequestHandler = Callable[[Any, "Address"], Any]
#: One-way datagram handler: (payload, source address) -> None.
DatagramHandler = Callable[[Any, "Address"], None]


@dataclass(frozen=True, order=True)
class Address:
    """A (host, port) pair on the simulated network."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.host}:{self.port}"


@dataclass
class Endpoint:
    """A listening socket: an address bound to a request handler."""

    address: Address
    handler: RequestHandler
    datagram_handler: Optional[DatagramHandler] = None


@dataclass
class _Host:
    name: str
    site: str
    up: bool = True
    extra_loss: float = 0.0
    #: Fixed queueing/processing delay the host adds to every request it
    #: serves (a live-but-overloaded agent), charged against the caller's
    #: timeout like any other wire delay.
    service_time: float = 0.0
    #: Multiplier on link delays and service time for traffic to this
    #: host (1.0 = nominal; a degraded NIC or saturated uplink).
    slowdown: float = 1.0
    ports: dict[int, Endpoint] = field(default_factory=dict)


def _payload_size(payload: Any) -> int:
    """Wire size of a payload, for bandwidth-delay charging.

    Bytes count themselves, text its UTF-8 length, and every structured
    payload (the dict/list messages all of this repo's wires speak) the
    length of its ``repr`` — one C call.  A structural Python walk that
    returned the same integer without building the string was measured
    2.1-2.4x *slower* at every size (7.2 vs 3.0 us for one 222-byte
    tuple batch, 4.1 vs 1.9 ms for a 2000-row result), so the string is
    built and dropped.  Charged sizes feed every virtual transfer time: changing
    this integer for any payload shifts golden traces and replay
    signatures.
    """
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="replace"))
    return len(repr(payload))


class Network:
    """The simulated internetwork joining all sites in an experiment.

    >>> clock = VirtualClock()
    >>> net = Network(clock, seed=7)
    >>> net.add_host("a", site="s1"); net.add_host("b", site="s1")
    >>> net.listen(Address("b", 9), lambda req, src: req.upper())
    >>> net.request("a", Address("b", 9), "ping")
    'PING'
    """

    DEFAULT_TIMEOUT = 5.0

    def __init__(
        self,
        clock: VirtualClock,
        *,
        seed: int = 0,
        lan: LinkModel = LAN,
        wan: LinkModel = WAN,
    ) -> None:
        self.clock = clock
        self._rng = random.Random(seed)
        self._lan = lan
        self._wan = wan
        self._hosts: dict[str, _Host] = {}
        self._partitions: Optional[list[set[str]]] = None
        #: Fabric-wide instruments (``net.*``); gateways merge these into
        #: their self-monitoring view alongside their own registries.
        self.metrics = MetricsRegistry(clock)
        #: Aggregate traffic counters (``net.stats.requests``,
        #: ``as_dict()``, ``reset()`` — benchmarks read and zero them): a
        #: read-only view over the ``net.*`` counters, so a gateway's
        #: self-monitoring driver serves the same numbers.
        self.stats = StatsView(
            self.metrics, "net", ("requests", "datagrams", "drops", "bytes_sent")
        )
        # The traffic paths bump the held counters: no lookup at all per
        # message.
        self._requests = self.metrics.counter("net.requests")
        self._datagrams = self.metrics.counter("net.datagrams")
        self._drops = self.metrics.counter("net.drops")
        self._bytes_sent = self.metrics.counter("net.bytes_sent")
        #: Optional chaos plane consulted per request (see simnet.faults).
        self.fault_plane: "FaultPlane | None" = None

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_host(self, name: str, *, site: str = "default") -> None:
        """Register a host; idempotent only for identical site membership."""
        if name in self._hosts:
            if self._hosts[name].site != site:
                raise ValueError(
                    f"host {name!r} already exists in site {self._hosts[name].site!r}"
                )
            return
        self._hosts[name] = _Host(name=name, site=site)

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    def hosts(self, *, site: str | None = None) -> list[str]:
        """All host names, optionally filtered to one site, sorted."""
        return sorted(
            h.name for h in self._hosts.values() if site is None or h.site == site
        )

    def site_of(self, host: str) -> str:
        return self._require_host(host).site

    def listen(
        self,
        address: Address,
        handler: RequestHandler,
        *,
        datagram_handler: DatagramHandler | None = None,
    ) -> Endpoint:
        """Bind ``handler`` at ``address``; the host must already exist."""
        host = self._require_host(address.host)
        if address.port in host.ports:
            raise ValueError(f"port already bound: {address}")
        ep = Endpoint(address=address, handler=handler, datagram_handler=datagram_handler)
        host.ports[address.port] = ep
        return ep

    def close(self, address: Address) -> None:
        """Unbind whatever listens at ``address`` (no-op if nothing does)."""
        host = self._hosts.get(address.host)
        if host is not None:
            host.ports.pop(address.port, None)

    def is_listening(self, address: Address) -> bool:
        host = self._hosts.get(address.host)
        return host is not None and address.port in host.ports

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_host_up(self, name: str, up: bool) -> None:
        """Crash (``up=False``) or revive a host."""
        self._require_host(name).up = up

    def set_extra_loss(self, name: str, loss: float) -> None:
        """Add host-local loss probability on top of the link model."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss!r}")
        self._require_host(name).extra_loss = loss

    def set_service_time(self, name: str, seconds: float) -> None:
        """Fixed per-request processing delay at ``name`` (0 = instant).

        Charged against the caller's timeout, so a live-but-overloaded
        host can genuinely miss a deadline.
        """
        if seconds < 0:
            raise ValueError(f"service time must be >= 0: {seconds!r}")
        self._require_host(name).service_time = seconds

    def set_slowdown(self, name: str, factor: float) -> None:
        """Multiply link delays and service time for traffic to ``name``."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0: {factor!r}")
        self._require_host(name).slowdown = factor

    def service_time(self, name: str) -> float:
        return self._require_host(name).service_time

    def slowdown(self, name: str) -> float:
        return self._require_host(name).slowdown

    def install_fault_plane(self, plane: "FaultPlane | None") -> None:
        """Attach (or detach, with None) a chaos plane to this network."""
        self.fault_plane = plane

    def partition(self, *groups: set[str]) -> None:
        """Split the network: traffic may only flow within one group.

        Hosts not named in any group can talk to nobody until
        :meth:`heal` is called.
        """
        self._partitions = [set(g) for g in groups]

    def heal(self) -> None:
        """Remove any active partition."""
        self._partitions = None

    def _partitioned(self, a: str, b: str) -> bool:
        if self._partitions is None or a == b:
            return False
        return not any(a in g and b in g for g in self._partitions)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def link_for(self, src: str, dst: str) -> LinkModel:
        """The link model governing traffic between two hosts."""
        if self._require_host(src).site == self._require_host(dst).site:
            return self._lan
        return self._wan

    def request(
        self,
        src_host: str,
        dst: Address,
        payload: Any,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Synchronous RPC from ``src_host`` to the endpoint at ``dst``.

        Advances the virtual clock by the modelled round-trip time.
        Raises :class:`HostUnreachableError`, :class:`PortClosedError` or
        :class:`TimeoutError_` exactly where a real socket would fail.

        ``timeout`` is enforced against accumulated virtual wire time:
        link delays (scaled by the destination's slowdown factor) plus
        the destination's service time plus any fault-plane latency
        spikes.  When the budget runs out the clock lands exactly on the
        deadline instant and :class:`TimeoutError_` is raised — a slow
        chain can no longer exceed its deadline yet return success.
        Handler *compute* time (nested RPC work done by the server) is
        not charged; end-to-end budgets across multi-hop chains are the
        job of the core layer's ``Deadline``, which re-checks the
        remaining budget at every hop.
        """
        timeout = self.DEFAULT_TIMEOUT if timeout is None else timeout
        self._requests.inc()
        size = _payload_size(payload)
        self._bytes_sent.add(size)

        budget = timeout  # remaining transport + service budget

        def expire(remaining: float, exc: Exception) -> Exception:
            # The caller's timer runs out: land exactly on the deadline.
            self.clock.advance(remaining)
            return exc

        src = self._require_host(src_host)
        dst_host = self._hosts.get(dst.host)
        if dst_host is None or self._partitioned(src_host, dst.host):
            # An unreachable destination looks like a timeout on the wire.
            raise expire(budget, HostUnreachableError(f"{src_host} -> {dst}: no route"))
        if not dst_host.up:
            raise expire(budget, HostUnreachableError(f"{src_host} -> {dst}: host down"))

        plane = self.fault_plane
        slow = dst_host.slowdown
        link = self.link_for(src_host, dst.host)
        loss = link.loss + src.extra_loss + dst_host.extra_loss
        if loss > 0.0 and self._rng.random() < loss:
            self._drops.inc()
            raise expire(budget, TimeoutError_(f"{src_host} -> {dst}: request lost"))

        send_delay = link.delay(size, self._rng) * slow
        if send_delay > budget:
            raise expire(
                budget, TimeoutError_(f"{src_host} -> {dst}: no reply within {timeout:g}s")
            )
        self.clock.advance(send_delay)
        budget -= send_delay

        if plane is not None and plane.refuses(dst.host, dst.port):
            raise PortClosedError(f"{src_host} -> {dst}: connection refused (flaky port)")
        endpoint = dst_host.ports.get(dst.port)
        if endpoint is None:
            raise PortClosedError(f"{src_host} -> {dst}: connection refused")

        service = dst_host.service_time * slow
        if plane is not None:
            service += plane.request_overhead(dst.host)
        if service > 0.0:
            if service > budget:
                raise expire(
                    budget,
                    TimeoutError_(f"{src_host} -> {dst}: no reply within {timeout:g}s"),
                )
            self.clock.advance(service)
            budget -= service

        response = endpoint.handler(payload, Address(src_host, 0))
        rsize = _payload_size(response)
        self._bytes_sent.add(rsize)
        if loss > 0.0 and self._rng.random() < loss:
            self._drops.inc()
            raise expire(budget, TimeoutError_(f"{dst} -> {src_host}: response lost"))
        resp_delay = link.delay(rsize, self._rng) * slow
        if resp_delay > budget:
            raise expire(
                budget, TimeoutError_(f"{src_host} -> {dst}: no reply within {timeout:g}s")
            )
        self.clock.advance(resp_delay)
        if plane is not None and plane.corrupts(dst.host):
            raise PayloadCorruptedError(
                f"{dst} -> {src_host}: response failed checksum"
            )
        return response

    def send(self, src_host: str, dst: Address, payload: Any) -> None:
        """One-way datagram (trap/event); silently dropped on failure."""
        self._datagrams.inc()
        size = _payload_size(payload)
        self._bytes_sent.add(size)

        src = self._require_host(src_host)
        dst_host = self._hosts.get(dst.host)
        if (
            dst_host is None
            or not dst_host.up
            or self._partitioned(src_host, dst.host)
        ):
            self._drops.inc()
            return
        link = self.link_for(src_host, dst.host)
        loss = link.loss + src.extra_loss + dst_host.extra_loss
        if loss > 0.0 and self._rng.random() < loss:
            self._drops.inc()
            return
        delay = link.delay(size, self._rng)
        src_addr = Address(src_host, 0)

        def _deliver() -> None:
            # Re-check liveness at delivery time: the host may have died
            # or closed the port while the datagram was in flight.
            live = self._hosts.get(dst.host)
            if live is None or not live.up:
                self._drops.inc()
                return
            ep = live.ports.get(dst.port)
            if ep is None or ep.datagram_handler is None:
                self._drops.inc()
                return
            ep.datagram_handler(payload, src_addr)

        self.clock.call_later(delay, _deliver)

    # ------------------------------------------------------------------
    def _require_host(self, name: str) -> _Host:
        host = self._hosts.get(name)
        if host is None:
            raise KeyError(f"unknown host: {name!r}")
        return host
