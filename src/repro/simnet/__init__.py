"""Simulated network substrate for GridRM.

The paper deploys GridRM against real agents on a LAN/WAN.  This package
provides the laptop-runnable substitute: a deterministic virtual clock and
an in-process message network with configurable latency, jitter, loss and
partitions.  Every agent, driver and gateway in the reproduction talks
through :class:`Network`, so the code paths exercised (timeouts, retries,
connection setup cost, trap delivery) match a real deployment while staying
seeded and fast.
"""

from repro.simnet.clock import ConcurrentScope, VirtualClock, ScheduledCall
from repro.simnet.errors import (
    NetworkError,
    HostUnreachableError,
    PayloadCorruptedError,
    PortClosedError,
    TimeoutError_,
)
from repro.simnet.faults import FaultPlane, FaultPlaneStats, FaultWindow
from repro.simnet.link import LinkModel
from repro.simnet.network import Address, Endpoint, Network

__all__ = [
    "ConcurrentScope",
    "VirtualClock",
    "ScheduledCall",
    "NetworkError",
    "HostUnreachableError",
    "PayloadCorruptedError",
    "PortClosedError",
    "TimeoutError_",
    "FaultPlane",
    "FaultPlaneStats",
    "FaultWindow",
    "LinkModel",
    "Address",
    "Endpoint",
    "Network",
]
