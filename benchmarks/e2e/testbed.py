"""The ``grid3`` testbed and the one policy every gateway in it runs.

Three sites on one virtual clock and network.  ``site-a`` is the gateway
under test: 8 hosts, all six agent kinds (8 SNMP, 8 NetLogger, Ganglia,
SCMS, NWS, SQL = 20 sources), a servlet, an event publisher, and three
client hosts on its LAN.  ``site-b`` and ``site-c`` (8 hosts, SNMP +
Ganglia) exist to be queried through the GMA wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gateway import Gateway
from repro.core.policy import GatewayPolicy
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.gma.subscription import EventPublisher
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import AGENT_KINDS, Site, build_site
from repro.web.servlet import GatewayServlet

#: Every plane on; everything else at its default.
BENCH_POLICY = GatewayPolicy(
    history_durable=True,
    streaming_enabled=True,
    admission_enabled=True,
    adaptive_concurrency=True,
    hedge_enabled=True,
)

N_HOSTS = 8
PORTAL = "portal"
VIEWERS = ("viewer-1", "viewer-2")
#: 1-minute load above which site-a's SNMP agents send traps; the host
#: model's loads sit around 0.2-2, so this fires on some hosts each check.
TRAP_THRESHOLD = 0.6


@dataclass
class Grid3:
    network: Network
    site_a: Site
    site_b: Site
    site_c: Site
    directory: GMADirectory
    servlet: GatewayServlet
    publisher: EventPublisher

    @property
    def clock(self) -> VirtualClock:
        return self.network.clock

    @property
    def gateway(self) -> Gateway:
        """The gateway under test."""
        return self.site_a.gateway

    def urls(self, kind: str, site: "Site | None" = None) -> list[str]:
        prefix = f"jdbc:{kind}:"
        return [u for u in (site or self.site_a).source_urls if u.startswith(prefix)]


def build_grid3(
    seed: int, *, policy: GatewayPolicy = BENCH_POLICY, traps: bool = False
) -> Grid3:
    network = Network(VirtualClock(), seed=seed)
    site_a = build_site(
        network,
        name="site-a",
        n_hosts=N_HOSTS,
        agents=AGENT_KINDS,
        seed=seed,
        policy=policy,
        snmp_trap_threshold=TRAP_THRESHOLD if traps else None,
    )
    remote = [
        build_site(
            network,
            name=name,
            n_hosts=N_HOSTS,
            agents=("snmp", "ganglia"),
            seed=seed + offset,
            policy=policy,
        )
        for offset, name in enumerate(("site-b", "site-c"), start=1)
    ]
    directory = GMADirectory(network)
    for site in (site_a, *remote):
        GlobalLayer(site.gateway, directory)
    for host in (PORTAL, *VIEWERS):
        network.add_host(host, site="site-a")
    return Grid3(
        network=network,
        site_a=site_a,
        site_b=remote[0],
        site_c=remote[1],
        directory=directory,
        servlet=GatewayServlet(site_a.gateway),
        publisher=EventPublisher(site_a.gateway),
    )
