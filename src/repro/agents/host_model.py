"""Synthetic host model.

Each :class:`SimulatedHost` is a deterministic function of (seed, time):
sampling the same host at the same virtual instant always yields the same
metrics, with no hidden state to advance.  Load is modelled as

``load(t) = base + diurnal sine + workload episodes + value noise``

where episodes are pseudo-random bursts (a batch job landing on the node)
and the noise is seeded value noise interpolated between integer-minute
knots.  All other metrics derive from load plus their own noise channels,
so CPU, memory, processes and network move plausibly together — which the
GLUE-translation tests rely on (utilisation within [0, 100], counters
monotone, free memory below total).

Each knot value and each window's job is one draw from a
``random.Random`` seeded by (host seed, key).  Those draws are pure in
their key, so a host remembers them (at most :data:`DRAW_MEMO_SIZE`
per host, oldest forgotten first) instead of re-seeding on every
snapshot: a snapshot samples about sixty of them.  The memo changes no
value, only what a snapshot costs; a fresh host starts with it empty.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any

from repro.simnet.clock import VirtualClock

_VENDORS = [
    ("Intel", "Xeon 2.4GHz", 2400.0),
    ("Intel", "Pentium III", 1000.0),
    ("AMD", "Athlon MP", 1800.0),
    ("Sun", "UltraSPARC III", 900.0),
    ("Intel", "Itanium 2", 1300.0),
]
_OSES = [
    ("Linux", "2.4.20", "RedHat 9"),
    ("Linux", "2.4.18", "Debian 3.0"),
    ("SunOS", "5.8", "Solaris 8"),
    ("Linux", "2.6.0-test", "Fedora"),
]
_PLATFORMS = ["i686", "i686", "x86_64", "sparcv9", "ia64"]
_FS_NAMES = [("/", "ext3"), ("/home", "ext3"), ("/scratch", "ext2"), ("/tmp", "ext2")]
_PROGRAMS = ["gridftp", "mpirun", "condor_starter", "globus-job", "gatekeeper"]

#: Seeded draws (noise knots and episode windows) one host remembers;
#: beyond it the oldest is forgotten.  A 15 s ``realtime_fanout`` run
#: makes about 2 600 over all its hosts.
DRAW_MEMO_SIZE = 4096


def _stable_seed(*parts: Any) -> int:
    """A 64-bit seed derived stably from arbitrary parts (not Python
    ``hash``, which is salted per-process)."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


@dataclass(frozen=True)
class HostSpec:
    """Static configuration of a simulated machine."""

    name: str
    site: str
    cpu_count: int
    clock_mhz: float
    vendor: str
    model: str
    ram_mb: float
    swap_mb: float
    os_name: str
    os_release: str
    os_version: str
    platform: str
    ip_address: str
    nic_bandwidth_mbps: float
    filesystems: tuple[tuple[str, str, float], ...]  # (root, type, size MB)
    boot_offset: float  # virtual seconds before t=0 the host booted
    base_load: float
    diurnal_amplitude: float
    seed: int

    @classmethod
    def generate(cls, name: str, site: str, seed: int) -> "HostSpec":
        """Deterministically roll a host's hardware from its identity."""
        rng = random.Random(_stable_seed("spec", name, site, seed))
        vendor, model, clock = rng.choice(_VENDORS)
        os_name, os_release, os_version = rng.choice(_OSES)
        cpu_count = rng.choice([1, 1, 2, 2, 4, 8])
        ram_mb = rng.choice([256.0, 512.0, 1024.0, 2048.0, 4096.0])
        n_fs = rng.randint(1, len(_FS_NAMES))
        filesystems = tuple(
            (root, fstype, float(rng.choice([4096, 9216, 18432, 36864])))
            for root, fstype in _FS_NAMES[:n_fs]
        )
        octets = (rng.randint(1, 254), rng.randint(1, 254))
        return cls(
            name=name,
            site=site,
            cpu_count=cpu_count,
            clock_mhz=clock * rng.choice([0.5, 1.0, 1.0, 1.5]),
            vendor=vendor,
            model=model,
            ram_mb=ram_mb,
            swap_mb=ram_mb * rng.choice([1.0, 2.0]),
            os_name=os_name,
            os_release=os_release,
            os_version=os_version,
            platform=rng.choice(_PLATFORMS),
            ip_address=f"192.168.{octets[0]}.{octets[1]}",
            nic_bandwidth_mbps=float(rng.choice([10, 100, 100, 1000])),
            filesystems=filesystems,
            boot_offset=rng.uniform(3600.0, 30 * 24 * 3600.0),
            base_load=rng.uniform(0.1, 0.6) * cpu_count,
            diurnal_amplitude=rng.uniform(0.1, 0.4) * cpu_count,
            seed=_stable_seed("host", name, site, seed),
        )


class SimulatedHost:
    """A machine whose metrics are a pure function of virtual time.

    >>> from repro.simnet import VirtualClock
    >>> clock = VirtualClock()
    >>> host = SimulatedHost(HostSpec.generate("n0", "site-a", 42), clock)
    >>> snap = host.snapshot()
    >>> 0.0 <= snap["cpu"]["utilization"] <= 100.0
    True
    """

    #: Diurnal period: compressed to 1h of virtual time so experiments see
    #: full cycles without simulating a day.
    DIURNAL_PERIOD = 3600.0

    def __init__(self, spec: HostSpec, clock: VirtualClock) -> None:
        self.spec = spec
        self.clock = clock
        # (channel, i) -> knot value; w -> None or the window's job as
        # (intensity per CPU, start, length) fractions.
        self._draws: dict[Any, Any] = {}

    def _remember(self, key: Any, value: Any) -> None:
        draws = self._draws
        if len(draws) >= DRAW_MEMO_SIZE:
            del draws[next(iter(draws))]
        draws[key] = value

    # ------------------------------------------------------------------
    # Noise and load primitives
    # ------------------------------------------------------------------
    def _value_noise(self, channel: str, t: float, knot: float = 60.0) -> float:
        """Seeded value noise in [-1, 1], C0-interpolated between knots."""
        k = math.floor(t / knot)
        frac = (t / knot) - k
        return self._knot(channel, k) * (1.0 - frac) + self._knot(channel, k + 1) * frac

    def _knot(self, channel: str, i: int) -> float:
        key = (channel, i)
        value = self._draws.get(key)
        if value is None:
            value = random.Random(_stable_seed(self.spec.seed, channel, i)).uniform(-1.0, 1.0)
            self._remember(key, value)
        return value

    def _episode(self, t: float, window: float = 600.0) -> float:
        """Pseudo-random workload bursts: each window may host a job."""
        w = math.floor(t / window)
        if w in self._draws:
            job = self._draws[w]
        else:
            rng = random.Random(_stable_seed(self.spec.seed, "episode", w))
            job = None
            if rng.random() < 0.35:  # a job lands in this window
                job = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3), rng.uniform(0.3, 0.9))
            self._remember(w, job)
        if job is not None:
            per_cpu, start_frac, length_frac = job
            start = start_frac * window
            length = length_frac * window
            offset = t - w * window
            if start <= offset <= start + length:
                return per_cpu * self.spec.cpu_count
        return 0.0

    def load_at(self, t: float) -> float:
        """Instantaneous run-queue length at virtual time ``t``."""
        s = self.spec
        diurnal = s.diurnal_amplitude * math.sin(
            2 * math.pi * t / self.DIURNAL_PERIOD + (s.seed % 628) / 100.0
        )
        noise = 0.15 * s.cpu_count * self._value_noise("load", t)
        return max(0.0, s.base_load + diurnal + self._episode(t) + noise)

    def _load_avg(self, t: float, horizon: float) -> float:
        """Approximate exponential load average by sampling the window."""
        samples = 5
        total = 0.0
        for i in range(samples):
            total += self.load_at(max(0.0, t - horizon * i / samples))
        return total / samples

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self, t: float | None = None) -> dict[str, Any]:
        """Full metric snapshot at virtual time ``t`` (default: now)."""
        t = self.clock.now() if t is None else t
        s = self.spec
        load1 = self._load_avg(t, 60.0)
        load5 = self._load_avg(t, 300.0)
        load15 = self._load_avg(t, 900.0)
        util = round(min(100.0, 100.0 * self.load_at(t) / s.cpu_count), 2)
        # Split busy time 70/30 user/system; rounding is arranged so the
        # three parts sum exactly to util (drivers re-derive util from
        # idle, so the identity must hold on the wire).
        user = round(util * 0.7, 2)
        system = round(util - user, 2)
        idle = round(100.0 - util, 2)

        mem_pressure = 0.25 + 0.5 * (util / 100.0)
        noise_mem = 0.05 * self._value_noise("mem", t)
        ram_used = s.ram_mb * min(0.97, max(0.1, mem_pressure + noise_mem))
        swap_used = s.swap_mb * min(0.8, max(0.0, (mem_pressure - 0.5)) * 0.6)
        buffers = s.ram_mb * 0.05
        cached = s.ram_mb * max(0.02, 0.2 - 0.1 * (util / 100.0))

        # Cumulative counters must be monotone in t: integrate a strictly
        # positive rate analytically (base) plus a bounded wiggle term
        # whose integral we approximate by its mean (zero).
        byte_rate = s.nic_bandwidth_mbps * 1e6 / 8.0 * 0.02
        bytes_rx = byte_rate * t * 1.3
        bytes_tx = byte_rate * t
        pkt_rx = bytes_rx / 800.0
        pkt_tx = bytes_tx / 780.0

        filesystems = []
        for root, fstype, size_mb in s.filesystems:
            frac_used = min(
                0.95,
                0.4
                + 0.1 * self._value_noise(f"fs:{root}", t, knot=3600.0)
                + t / (400 * 24 * 3600.0),  # slow fill over virtual months
            )
            filesystems.append(
                {
                    "root": root,
                    "type": fstype,
                    "size_mb": size_mb,
                    "avail_mb": size_mb * (1.0 - frac_used),
                    "read_only": False,
                }
            )

        n_proc = int(40 + 30 * (util / 100.0) + 10 * self._value_noise("proc", t))
        processes = []
        rng = random.Random(_stable_seed(s.seed, "plist", math.floor(t / 30.0)))
        for i in range(min(8, max(1, n_proc // 12))):
            processes.append(
                {
                    "pid": 1000 + rng.randint(0, 30000),
                    "name": rng.choice(_PROGRAMS),
                    "state": rng.choice(["R", "S", "S", "D"]),
                    "cpu_percent": round(rng.uniform(0.0, util), 1),
                    "mem_percent": round(rng.uniform(0.1, 20.0), 1),
                    "owner": rng.choice(["grid", "root", "mbaker", "gsmith"]),
                }
            )

        return {
            "host": s.name,
            "site": s.site,
            "time": t,
            "cpu": {
                "vendor": s.vendor,
                "model": s.model,
                "clock_mhz": s.clock_mhz,
                "count": s.cpu_count,
                "load_1": round(load1, 3),
                "load_5": round(load5, 3),
                "load_15": round(load15, 3),
                "utilization": round(util, 2),
                "user": round(user, 2),
                "system": round(system, 2),
                "idle": round(idle, 2),
            },
            "memory": {
                "ram_total_mb": s.ram_mb,
                "ram_free_mb": round(s.ram_mb - ram_used, 1),
                "swap_total_mb": s.swap_mb,
                "swap_free_mb": round(s.swap_mb - swap_used, 1),
                "buffers_mb": round(buffers, 1),
                "cached_mb": round(cached, 1),
            },
            "os": {
                "name": s.os_name,
                "release": s.os_release,
                "version": s.os_version,
                "uptime_s": t + s.boot_offset,
                "process_count": max(1, n_proc),
                "user_count": 1 + int(abs(self._value_noise("users", t)) * 5),
                "platform": s.platform,
            },
            "network": {
                "name": "eth0",
                "ip": s.ip_address,
                "mtu": 1500,
                "bandwidth_mbps": s.nic_bandwidth_mbps,
                "bytes_rx": int(bytes_rx),
                "bytes_tx": int(bytes_tx),
                "packets_rx": int(pkt_rx),
                "packets_tx": int(pkt_tx),
                "errors_in": int(t / 3600.0),
                "errors_out": int(t / 7200.0),
            },
            "filesystems": filesystems,
            "processes": processes,
        }
