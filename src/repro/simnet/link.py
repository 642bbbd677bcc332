"""Link quality models for the simulated network.

A :class:`LinkModel` turns a (source host, destination host, payload size)
triple into a one-way delay, and decides whether a given datagram is lost.
All randomness is drawn from a ``random.Random`` owned by the model so a
seeded :class:`~repro.simnet.network.Network` is fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class LinkModel:
    """Latency/jitter/loss parameters for one class of link.

    Attributes:
        base_latency: fixed one-way delay in seconds.
        jitter: maximum extra uniform random delay in seconds.
        loss: probability in [0, 1) that a datagram is dropped.
        bandwidth: bytes/second used to charge serialisation delay for
            large payloads (0 disables the term).  Coarse-grained agents
            such as Ganglia return multi-kilobyte XML dumps, so payload
            size matters for experiment E3.
    """

    base_latency: float = 0.001
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError(f"negative base_latency: {self.base_latency!r}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {self.jitter!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss!r}")
        if self.bandwidth < 0:
            raise ValueError(f"negative bandwidth: {self.bandwidth!r}")

    def delay(self, payload_size: int, rng: random.Random) -> float:
        """One-way delay in seconds for a payload of ``payload_size`` bytes."""
        d = self.base_latency
        if self.jitter:
            d += rng.uniform(0.0, self.jitter)
        if self.bandwidth:
            d += payload_size / self.bandwidth
        return d


#: Link preset for hosts inside one Grid site (same LAN as the gateway).
LAN = LinkModel(base_latency=0.0002, jitter=0.0001, loss=0.0, bandwidth=100e6 / 8)

#: Link preset between Grid sites (the paper's Global layer spans the WAN).
WAN = LinkModel(base_latency=0.040, jitter=0.010, loss=0.0, bandwidth=10e6 / 8)
