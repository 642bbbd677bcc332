#!/usr/bin/env python
"""Event handling: SNMP traps -> GridRM events -> alerts (paper §3.1.5).

SNMP agents watch their host's 1-minute load and emit traps above a
threshold.  The gateway's EventManager translates those native traps into
the GridRM event format, records them in the historical database, fans
them out to registered listeners, and can re-transmit them natively to a
downstream sink — the full Figure 4 pipeline.

Run:  python examples/event_alerts.py
"""

from repro import Console, build_site
from repro.core.events import Event
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Address, Network


def main() -> None:
    clock = VirtualClock()
    network = Network(clock, seed=3)
    site = build_site(
        network,
        name="ops",
        n_hosts=4,
        agents=("snmp",),
        seed=3,
        snmp_trap_threshold=0.8,  # alert when 1-min load > 0.8
    )
    gateway = site.gateway

    # A listener hears every event and keeps the ones it wants.
    alerts: list[Event] = []
    gateway.events.register_listener(
        lambda event: alerts.append(event) if event.name.startswith("load.") else None
    )

    print("=== monitoring for 30 virtual minutes (threshold: load > 0.8) ===")
    clock.advance(1800.0)

    stats = gateway.events.stats
    print(
        f"   traps received={stats['received']} translated={stats['translated']} "
        f"delivered={stats['delivered']} dropped={stats['dropped']}"
    )

    print("\n=== last few alerts ===")
    for event in alerts[-5:]:
        load = next(iter(event.fields.values()), None)
        load_text = f"{load / 100:.2f}" if isinstance(load, int) else "?"
        print(
            f"   t={event.time:7.1f}s  {event.source_host:10s}  {event.name}"
            f"  severity={event.severity}  load1={load_text}"
        )

    print("\n=== alerts were recorded to history as LogEvents ===")
    result = gateway.history.query(
        "SELECT HostName, COUNT(*) AS alerts FROM LogEvent "
        "GROUP BY HostName ORDER BY HostName"
    )
    for host, count in result.rows:
        print(f"   {host}: {count} alert(s)")

    print("\n=== forwarding the latest alert to a downstream NOC, natively ===")
    network.add_host("noc", site="ops")
    received = []
    network.listen(
        Address("noc", 162),
        lambda p, s: None,
        datagram_handler=lambda p, s: received.append(p),
    )
    if alerts:
        gateway.events.transmit(alerts[-1], Address("noc", 162), kind="snmp-trap")
        clock.advance(1.0)
        print(f"   NOC received {len(received)} native SNMP trap(s) "
              f"({len(received[0])} bytes on the wire)")

    print("\n=== the console tree flags hosts with recent events ===")
    print(Console(gateway).tree_view())


if __name__ == "__main__":
    main()
