"""Testbed construction helpers.

One call builds a complete Grid site: simulated hosts, the native agents
the paper's initial driver set targets (SNMP, Ganglia, NWS, NetLogger,
SCMS + a site SQL database), and a configured gateway with every agent
registered as a data source.  Used by the examples, the integration tests
and every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.agents.ganglia import GangliaAgent
from repro.agents.host_model import HostSpec, SimulatedHost
from repro.agents.netlogger import NetLoggerAgent
from repro.agents.nws import NwsAgent
from repro.agents.scms import ScmsAgent
from repro.agents.snmp import SnmpAgent
from repro.agents.sqlagent import SqlAgent, seed_site_database
from repro.core.gateway import Gateway
from repro.core.policy import GatewayPolicy
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network

@dataclass
class Site:
    """Everything :func:`build_site` constructed for one Grid site."""

    name: str
    network: Network
    hosts: list[SimulatedHost]
    gateway: Gateway
    agents: dict[str, list[Any]] = field(default_factory=dict)
    source_urls: list[str] = field(default_factory=list)

    @property
    def clock(self) -> VirtualClock:
        return self.network.clock

    def host_names(self) -> list[str]:
        return [h.spec.name for h in self.hosts]

    def url_for(self, kind: str, host: str | None = None) -> str:
        """The JDBC URL of one of this site's agents."""
        hits = [u for u in self.source_urls if u.startswith(f"jdbc:{kind}:")]
        if host is not None:
            hits = [u for u in hits if f"//{host}/" in u]
        if not hits:
            raise KeyError(f"no {kind!r} source{f' on {host}' if host else ''}")
        return hits[0]

    def fail_host(self, host: str) -> None:
        """Take one monitored host (and its agents) off the network —
        the failure-injection knob for breaker/robustness experiments."""
        if host not in self.host_names() and host != self.gateway.host:
            raise KeyError(f"no host {host!r} in site {self.name!r}")
        self.network.set_host_up(host, False)

    def heal_host(self, host: str) -> None:
        """Bring a previously failed host back."""
        if host not in self.host_names() and host != self.gateway.host:
            raise KeyError(f"no host {host!r} in site {self.name!r}")
        self.network.set_host_up(host, True)


def _snmp(site: Site, hosts: list[SimulatedHost], trap_threshold: float | None) -> Any:
    agent = SnmpAgent(hosts[0], site.network, load_trap_threshold=trap_threshold)
    if trap_threshold is not None:
        agent.add_trap_sink(site.gateway.trap_sink_address)
    return agent


#: What :func:`build_site` can deploy, in deployment order: kind, agent
#: factory ``(site, hosts, snmp trap threshold)``, source URL template,
#: and whether the kind runs one agent per host (``hosts`` is then that
#: one host) or one per site.  A new driver's agent is one row here.
_AGENTS: tuple[tuple[str, Callable[..., Any], str, bool], ...] = (
    ("snmp", _snmp, "jdbc:snmp://{host}/system", True),
    (
        "ganglia",
        lambda site, hosts, _: GangliaAgent(site.name, hosts, site.network),
        "jdbc:ganglia://{host}/cluster",
        False,
    ),
    (
        "nws",
        lambda site, hosts, _: NwsAgent(
            hosts[0], site.network, peers=[h.spec.name for h in hosts[1:3]]
        ),
        "jdbc:nws://{host}/forecast",
        False,
    ),
    (
        "netlogger",
        lambda site, hosts, _: NetLoggerAgent(hosts[0], site.network),
        "jdbc:netlogger://{host}/ulm",
        True,
    ),
    (
        "scms",
        lambda site, hosts, _: ScmsAgent(site.name, hosts, site.network),
        "jdbc:scms://{host}/cluster",
        False,
    ),
    (
        "sql",
        lambda site, hosts, _: SqlAgent(
            seed_site_database(hosts, site.network), site.network, hosts[-1].spec.name
        ),
        "jdbc:sql://{host}/sitedb",
        False,
    ),
)

#: Agent kinds :func:`build_site` understands.
AGENT_KINDS = tuple(kind for kind, *_ in _AGENTS)


def build_site(
    network: Network,
    *,
    name: str,
    n_hosts: int = 4,
    agents: Sequence[str] = ("snmp", "ganglia"),
    seed: int = 0,
    policy: GatewayPolicy | None = None,
    gateway_host: str | None = None,
    snmp_trap_threshold: float | None = None,
    disk: Any | None = None,
    persistent_store: dict[str, str] | None = None,
) -> Site:
    """Build one site: hosts + agents + gateway, all registered.

    Args:
        network: shared simulated network (one per experiment).
        name: site name; hosts are ``<name>-nNN`` and the gateway host is
            ``<name>-gw`` unless overridden.
        n_hosts: number of monitored machines.
        agents: which agent kinds to deploy (see :data:`AGENT_KINDS`).
        seed: host-model seed, combined with host names.
        policy: gateway policy (defaults applied when None).
        gateway_host: override the gateway's host name.
        snmp_trap_threshold: when set, SNMP agents send load-high traps
            above this 1-minute load, sunk at the gateway's EventManager.
        disk: a :class:`~repro.storage.simdisk.SimDisk` for durable
            history — pass the same disk to successive gateway builds to
            model restart/recovery (see ``python -m repro crashtest``).
        persistent_store: driver-spec persistence shared across gateway
            incarnations, as for the Gateway constructor.
    """
    unknown = set(agents) - set(AGENT_KINDS)
    if unknown:
        raise ValueError(f"unknown agent kind(s): {sorted(unknown)}")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1: {n_hosts}")

    host_names = [f"{name}-n{i:02d}" for i in range(n_hosts)]
    for h in host_names:
        network.add_host(h, site=name)
    hosts = [
        SimulatedHost(HostSpec.generate(h, name, seed), network.clock)
        for h in host_names
    ]
    gw_host = gateway_host or f"{name}-gw"
    gateway = Gateway(
        network,
        gw_host,
        site=name,
        policy=policy,
        disk=disk,
        persistent_store=persistent_store,
    )

    site = Site(name=name, network=network, hosts=hosts, gateway=gateway)

    for kind, factory, template, per_host in _AGENTS:
        if kind not in agents:
            continue
        built = site.agents[kind] = []
        for group in ([h] for h in hosts) if per_host else [hosts]:
            agent = factory(site, group, snmp_trap_threshold)
            built.append(agent)
            url = template.format(host=agent.address.host)
            gateway.add_source(url)
            site.source_urls.append(url)

    return site


def build_testbed(
    *,
    n_sites: int = 1,
    n_hosts: int = 4,
    agents: Sequence[str] = ("snmp", "ganglia"),
    seed: int = 0,
    policy: GatewayPolicy | None = None,
) -> tuple[Network, list[Site]]:
    """A fresh clock + network with ``n_sites`` identical sites."""
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    sites = [
        build_site(
            network,
            name=f"site-{chr(ord('a') + i)}",
            n_hosts=n_hosts,
            agents=agents,
            seed=seed + i,
            policy=policy,
        )
        for i in range(n_sites)
    ]
    return network, sites
