"""Seeded, schedulable chaos plane for the simulated network.

The paper's failover experiment (E10) only flips hosts between up and
down.  Real Grid monitoring fails in far messier ways: agents that answer
but slowly, NICs that drop every third connection, WAN links that flap,
partitions that heal themselves, payloads that arrive corrupted.  The
:class:`FaultPlane` injects all of these *deterministically*: every fault
is either scheduled on the virtual clock (slowdowns, flaps, partitions)
or drawn per-request from the plane's own seeded RNG (latency spikes,
flaky ports, corruption), so a chaos run replays byte-for-byte under the
same seed.

The plane attaches to a :class:`~repro.simnet.network.Network` via
``network.install_fault_plane`` (done by the constructor) and is consulted
by ``Network.request`` on every RPC:

* :meth:`request_overhead` — extra service time (heavy-tail latency
  spikes), charged against the caller's timeout;
* :meth:`refuses` — probabilistic connection refusal on a flaky port;
* :meth:`corrupts` — probabilistic checksum failure on the response.

Scheduled faults (``slow_host``, ``flap_host``, ``partition_between``)
mutate the network's existing knobs (``set_slowdown``, ``set_host_up``,
``partition``/``heal``) at their window edges, so everything downstream —
breakers, deadlines, hedging — sees them through the normal failure
surface.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network
    from repro.storage.simdisk import SimDisk


@dataclass
class FaultWindow:
    """One probabilistic per-request fault active over a time window."""

    kind: str  # "spike" | "flaky_port" | "corrupt"
    host: str
    start: float
    end: float  # math.inf for open-ended
    prob: float = 1.0
    extra: float = 0.0  # spike: added service seconds
    port: int | None = None  # flaky_port: None matches every port

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def describe(self) -> str:
        end = "∞" if math.isinf(self.end) else f"{self.end:g}s"
        detail = {
            "spike": f"+{self.extra:g}s p={self.prob:g}",
            "flaky_port": f"port={'*' if self.port is None else self.port} p={self.prob:g}",
            "corrupt": f"p={self.prob:g}",
        }[self.kind]
        return f"{self.kind} {self.host} [{self.start:g}s..{end}) {detail}"


@dataclass
class FaultPlaneStats:
    spikes_injected: int = 0
    spike_seconds: float = 0.0
    refusals: int = 0
    corruptions: int = 0
    flaps: int = 0
    slowdowns: int = 0
    partitions: int = 0
    heals: int = 0
    disk_crashes: int = 0
    torn_writes: int = 0
    bit_flips: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "spikes_injected": self.spikes_injected,
            "spike_seconds": round(self.spike_seconds, 6),
            "refusals": self.refusals,
            "corruptions": self.corruptions,
            "flaps": self.flaps,
            "slowdowns": self.slowdowns,
            "partitions": self.partitions,
            "heals": self.heals,
            "disk_crashes": self.disk_crashes,
            "torn_writes": self.torn_writes,
            "bit_flips": self.bit_flips,
        }


class FaultPlane:
    """Deterministic fault injection driven by the virtual clock.

    >>> plane = FaultPlane(network, seed=42)
    >>> plane.latency_spikes("agent-3", prob=0.1, extra=2.0)
    >>> plane.flap_host("agent-1", down_at=30.0, down_for=10.0, times=3)
    >>> plane.partition_between({"gw-a"}, {"gw-b"}, start=60.0, duration=15.0)

    All ``start`` arguments are seconds from *now* (scheduling in relative
    time keeps scenario definitions independent of warm-up length).
    """

    def __init__(self, network: "Network", *, seed: int = 0) -> None:
        self.network = network
        self.clock = network.clock
        self.seed = seed
        self._rng = random.Random(seed)
        self._windows: list[FaultWindow] = []
        self._schedule_log: list[str] = []
        self.stats = FaultPlaneStats()
        network.install_fault_plane(self)

    # ------------------------------------------------------------------
    # Per-request consultation (called by Network)
    # ------------------------------------------------------------------
    def request_overhead(self, host: str) -> float:
        """Extra service seconds injected into one request to ``host``."""
        now = self.clock.now()
        extra = 0.0
        for w in self._windows:
            if w.kind == "spike" and w.host == host and w.active(now):
                if self._rng.random() < w.prob:
                    extra += w.extra
                    self.stats.spikes_injected += 1
                    self.stats.spike_seconds += w.extra
        return extra

    def refuses(self, host: str, port: int) -> bool:
        """Does a flaky port drop this connection attempt?"""
        now = self.clock.now()
        for w in self._windows:
            if (
                w.kind == "flaky_port"
                and w.host == host
                and (w.port is None or w.port == port)
                and w.active(now)
            ):
                if self._rng.random() < w.prob:
                    self.stats.refusals += 1
                    return True
        return False

    def corrupts(self, host: str) -> bool:
        """Does the response from ``host`` fail its checksum?"""
        now = self.clock.now()
        for w in self._windows:
            if w.kind == "corrupt" and w.host == host and w.active(now):
                if self._rng.random() < w.prob:
                    self.stats.corruptions += 1
                    return True
        return False

    # ------------------------------------------------------------------
    # Schedulable faults
    # ------------------------------------------------------------------
    def latency_spikes(
        self,
        host: str,
        *,
        prob: float,
        extra: float,
        start: float = 0.0,
        duration: float | None = None,
    ) -> FaultWindow:
        """Heavy-tail latency: each request has ``prob`` chance of ``extra``s.

        This is the fault hedged requests exist to beat: a re-issued
        request to the *same* host re-draws and usually dodges the spike.
        """
        return self._add_window("spike", host, prob=prob, extra=extra, start=start, duration=duration)

    def flaky_port(
        self,
        host: str,
        port: int | None = None,
        *,
        prob: float,
        start: float = 0.0,
        duration: float | None = None,
    ) -> FaultWindow:
        """Connection attempts to ``host``:``port`` fail with ``prob``."""
        return self._add_window("flaky_port", host, prob=prob, port=port, start=start, duration=duration)

    def corrupt_payloads(
        self,
        host: str,
        *,
        prob: float,
        start: float = 0.0,
        duration: float | None = None,
    ) -> FaultWindow:
        """Responses from ``host`` fail their checksum with ``prob``."""
        return self._add_window("corrupt", host, prob=prob, start=start, duration=duration)

    def slow_host(
        self,
        host: str,
        *,
        factor: float = 1.0,
        service_time: float = 0.0,
        start: float = 0.0,
        duration: float | None = None,
    ) -> None:
        """Degrade ``host`` for a window: link slowdown and/or service time.

        Restores nominal values (factor 1.0, service 0.0) when the window
        closes; open-ended if ``duration`` is None.
        """
        net = self.network

        def apply() -> None:
            self.stats.slowdowns += 1
            net.set_slowdown(host, factor)
            net.set_service_time(host, service_time)

        def restore() -> None:
            net.set_slowdown(host, 1.0)
            net.set_service_time(host, 0.0)

        self._at(start, apply)
        if duration is not None:
            self._at(start + duration, restore)
        self._schedule_log.append(
            f"slow_host {host} x{factor:g} +{service_time:g}s "
            f"[{start:g}s..{'∞' if duration is None else f'{start + duration:g}s'})"
        )

    def flap_host(
        self,
        host: str,
        *,
        down_at: float,
        down_for: float,
        times: int = 1,
        period: float | None = None,
    ) -> None:
        """Crash ``host`` at ``down_at`` for ``down_for`` seconds, repeating.

        ``times`` flaps spaced ``period`` apart (default: back-to-back,
        one period = down_for * 2).
        """
        if times < 1:
            raise ValueError(f"times must be >= 1: {times!r}")
        gap = period if period is not None else down_for * 2
        net = self.network

        def down() -> None:
            self.stats.flaps += 1
            net.set_host_up(host, False)

        def up() -> None:
            net.set_host_up(host, True)

        for k in range(times):
            self._at(down_at + k * gap, down)
            self._at(down_at + k * gap + down_for, up)
        self._schedule_log.append(
            f"flap_host {host} at {down_at:g}s down {down_for:g}s x{times}"
        )

    def partition_between(
        self,
        *groups: set[str],
        start: float = 0.0,
        duration: float,
    ) -> None:
        """Split the network into ``groups`` for ``duration``, then heal.

        The auto-heal replaces whatever partition is active at that
        instant, so overlapping schedules last-write-win like real
        routing flaps do.
        """
        net = self.network
        frozen = [set(g) for g in groups]

        def split() -> None:
            self.stats.partitions += 1
            net.partition(*frozen)

        def heal() -> None:
            self.stats.heals += 1
            net.heal()

        self._at(start, split)
        self._at(start + duration, heal)
        self._schedule_log.append(
            f"partition {'|'.join(','.join(sorted(g)) for g in frozen)} "
            f"[{start:g}s..{start + duration:g}s)"
        )

    # ------------------------------------------------------------------
    # Storage faults (durable-history chaos)
    # ------------------------------------------------------------------
    def crash_disk(
        self, disk: "SimDisk", *, at: float = 0.0, torn: bool = True
    ) -> None:
        """Power-fail ``disk`` ``at`` seconds from now.

        Every un-fsynced write is lost; with ``torn`` (the default) the
        plane's seeded RNG may leave a strictly partial fragment of the
        first in-flight append per file — the torn-write case recovery's
        CRC framing exists to catch.  Scheduled crashes fire at clock-
        callback granularity: they land between callbacks, never midway
        through one (a checkpoint runs to completion or not at all).
        """

        def crash() -> None:
            outcome = disk.crash(self._rng if torn else None)
            self.stats.disk_crashes += 1
            if outcome["torn_bytes"]:
                self.stats.torn_writes += 1

        self._at(at, crash)
        self._schedule_log.append(
            f"crash_disk at {at:g}s torn={'yes' if torn else 'no'}"
        )

    def flip_segment_bit(
        self, disk: "SimDisk", *, at: float = 0.0, path: str | None = None
    ) -> None:
        """Flip one durable bit of a sealed segment (bit rot).

        ``path`` picks the victim file; when None the plane's RNG picks
        uniformly among the disk's ``seg/`` files at fire time (a no-op
        if none exist yet).  Recovery must quarantine the damaged
        segment and keep serving, never crash.
        """

        def flip() -> None:
            target = path
            if target is None:
                candidates = disk.list("seg/")
                if not candidates:
                    return
                target = candidates[self._rng.randrange(len(candidates))]
            if disk.exists(target) and disk.size(target):
                disk.flip_bit(target, rng=self._rng)
                self.stats.bit_flips += 1

        self._at(at, flip)
        self._schedule_log.append(
            f"flip_segment_bit at {at:g}s path={path or '(random)'}"
        )

    # ------------------------------------------------------------------
    def active_faults(self) -> list[str]:
        """Human-readable lines for every currently-active fault window."""
        now = self.clock.now()
        lines = [w.describe() for w in self._windows if w.active(now)]
        slow = [
            f"slow {name} x{self.network.slowdown(name):g} "
            f"+{self.network.service_time(name):g}s"
            for name in self.network.hosts()
            if self.network.slowdown(name) != 1.0 or self.network.service_time(name) > 0.0
        ]
        return lines + slow

    def schedule_log(self) -> list[str]:
        """Every scheduled (clock-driven) fault, in registration order."""
        return list(self._schedule_log)

    # ------------------------------------------------------------------
    def _add_window(
        self,
        kind: str,
        host: str,
        *,
        prob: float,
        extra: float = 0.0,
        port: int | None = None,
        start: float = 0.0,
        duration: float | None = None,
    ) -> FaultWindow:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1]: {prob!r}")
        if extra < 0.0:
            raise ValueError(f"extra must be >= 0: {extra!r}")
        if start < 0.0:
            raise ValueError(f"start must be >= 0: {start!r}")
        if duration is not None and duration <= 0.0:
            raise ValueError(f"duration must be > 0: {duration!r}")
        now = self.clock.now()
        window = FaultWindow(
            kind=kind,
            host=host,
            start=now + start,
            end=math.inf if duration is None else now + start + duration,
            prob=prob,
            extra=extra,
            port=port,
        )
        self._windows.append(window)
        return window

    def _at(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now (immediately at 0)."""
        if delay < 0.0:
            raise ValueError(f"start must be >= 0: {delay!r}")
        if delay == 0.0:
            callback()
        else:
            self.clock.call_later(delay, callback)
