#!/usr/bin/env python
"""A Grid operations centre built on GridRM's extension surface.

Combines the pieces a real 2003 operations team would have wired up:

* **threshold alert rules** at each site's gateway (Figure 3's
  "Threshold exceeded. Event transmitted");
* **event subscriptions** pushing every alert across the WAN to a
  central **archiver** (GMA publish/subscribe, §3.1.5);
* **multi-group queries** joining Processor and MainMemory per host
  ("Clients select one or more GLUE group names to query", §3.2.3);
* the **servlet** endpoint (Figure 1's "GridRM Gateway (Servlet)") the
  NOC's dashboards would scrape, every page of it (the JSP console of
  Figures 6-9);
* the gateway **monitoring itself**: its own metrics are one more GLUE
  group, ``GatewayMetrics``, queried over ``grm://`` like any source.

Run:  python examples/operations_center.py
"""

from urllib.parse import quote

from repro import build_testbed
from repro.core.alerts import AlertRule
from repro.gma.archiver import EventArchiver
from repro.gma.subscription import EventPublisher
from repro.web.servlet import GatewayServlet, http_get


def main() -> None:
    network, sites = build_testbed(
        n_sites=2, n_hosts=4, agents=("snmp", "ganglia"), seed=6
    )
    clock = network.clock
    clock.advance(30.0)

    # --- each site gets alert rules and an event publisher -------------
    publishers = []
    for site in sites:
        gw = site.gateway
        gw.alerts.add_rule(
            AlertRule(
                name="cpu-hot",
                urls=[site.url_for("ganglia")],
                sql="SELECT HostName, CPUUtilization FROM Processor "
                    "WHERE CPUUtilization > 60",
                period=30.0,
                severity="warning",
                rearm_after=300.0,
            )
        )
        gw.alerts.add_rule(
            AlertRule(
                name="memory-low",
                urls=[site.url_for("ganglia")],
                sql="SELECT HostName, RAMAvailableMB FROM MainMemory "
                    "WHERE RAMAvailableMB < 400",
                period=60.0,
                severity="error",
                rearm_after=300.0,
            )
        )
        publishers.append(EventPublisher(gw))

    # --- the central archiver follows every site -----------------------
    archiver = EventArchiver(network, "noc-archive")
    for publisher in publishers:
        archiver.follow(publisher, where="Name LIKE 'alert.%'")

    print("=== monitoring both sites for 30 virtual minutes ===")
    clock.advance(1800.0)
    print(f"   events archived centrally: {archiver.event_count()}")
    for name, count in archiver.query(
        "SELECT name, COUNT(*) AS n FROM events GROUP BY name ORDER BY n DESC"
    ).rows:
        print(f"     {name}: {count}")

    print("\n=== noisiest hosts across the whole Grid ===")
    for host, count in archiver.noisiest_hosts(5):
        print(f"   {host}: {count} alert(s)")

    print("\n=== one SQL join answers 'load AND free memory per host' ===")
    for site in sites:
        result = site.gateway.query(
            site.url_for("ganglia"),
            "SELECT HostName, LoadAverage1Min, RAMAvailableMB "
            "FROM Processor, MainMemory ORDER BY LoadAverage1Min DESC",
        )
        worst = result.dicts()[0]
        print(
            f"   {site.name}: busiest is {worst['HostName']} "
            f"(load {worst['LoadAverage1Min']:.2f}, "
            f"{worst['RAMAvailableMB']:.0f} MB free)"
        )

    print("\n=== the NOC dashboard scrapes every servlet page ===")
    gw = sites[0].gateway
    servlet = GatewayServlet(gw)
    snmp = quote(sites[0].url_for("snmp"), safe="")
    pages = [
        "/", "/tree", "/drivers", "/sources", "/stats", "/alerts", "/health",
        "/dispatch", "/analyze", "/metrics", "/trace", f"/trace/{gw.tracer.last().trace_id}",
        "/durability", "/overload", "/streams", "/report",
        f"/query?url={snmp}&sql=SELECT+Name,+CPUPercent+FROM+Process"
        "+ORDER+BY+CPUPercent+DESC+LIMIT+3",
        "/plot?group=Processor&field=LoadAverage1Min",
    ]
    for page in pages:
        code, body = http_get(network, "noc-archive", servlet.address, page)
        print(f"   GET {page.partition('?')[0]} -> {code} ({len(body.splitlines())} lines)")
        if page == "/alerts":
            for line in body.splitlines()[:6]:
                print("     " + line)

    print("\n=== the gateway answers SQL about itself ===")
    metrics = gw.query(
        "jdbc:grm://localhost/gateway", "SELECT Name, Kind, Value FROM GatewayMetrics"
    )
    print(f"   GatewayMetrics: {len(metrics.rows)} instruments")
    for name, kind, value in metrics.rows:
        if name in ("requests.queries", "plans.hits", "history.rows_scanned"):
            print(f"     {name} ({kind}) = {value:g}")


if __name__ == "__main__":
    main()
