"""Shared fixtures for the GridRM test suite."""

from __future__ import annotations

import pytest

from repro.agents.host_model import HostSpec, SimulatedHost
from repro.core.policy import GatewayPolicy
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site

#: The five planes the deployed ``GatewayPolicy()`` has on and the paper's
#: 2003 gateway did not have.
PLANES = (
    "history_durable",
    "streaming_enabled",
    "admission_enabled",
    "adaptive_concurrency",
    "hedge_enabled",
)


def paper_policy(**overrides) -> GatewayPolicy:
    """The planes-off ablation: the paper's gateway, which tests compare
    the deployed one against (``test_scenario.PAPER``, the ``default``
    arm of the bad-reply and bad-wire matrices).  No shipped caller
    builds it, so it lives here and not under ``src/``."""
    return GatewayPolicy(**(dict.fromkeys(PLANES, False) | overrides))


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def network(clock: VirtualClock) -> Network:
    net = Network(clock, seed=1234)
    net.add_host("gateway", site="default")
    return net


@pytest.fixture
def host(network: Network) -> SimulatedHost:
    """One simulated host named 'n0' in the default site."""
    network.add_host("n0", site="default")
    return SimulatedHost(HostSpec.generate("n0", "default", 42), network.clock)


@pytest.fixture
def hosts(network: Network) -> list[SimulatedHost]:
    """Four simulated hosts n0..n3 in the default site."""
    out = []
    for i in range(4):
        name = f"n{i}"
        if not network.has_host(name):
            network.add_host(name, site="default")
        out.append(SimulatedHost(HostSpec.generate(name, "default", 42), network.clock))
    return out


@pytest.fixture
def site():
    """A complete single site with SNMP + Ganglia agents, warmed up."""
    clock = VirtualClock()
    network = Network(clock, seed=7)
    s = build_site(network, name="site-t", n_hosts=3, agents=("snmp", "ganglia"), seed=7)
    clock.advance(30)
    return s


@pytest.fixture
def full_site():
    """A site running every agent kind, warmed up."""
    clock = VirtualClock()
    network = Network(clock, seed=9)
    s = build_site(
        network,
        name="site-f",
        n_hosts=3,
        agents=("snmp", "ganglia", "nws", "netlogger", "scms", "sql"),
        seed=9,
    )
    clock.advance(60)
    return s
