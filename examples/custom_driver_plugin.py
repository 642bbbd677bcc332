#!/usr/bin/env python
"""Writing a new data-source driver plug-in (paper §3.2).

The paper's central promise: "GridRM can be extended to work with any
number of data sources, all communicating via native protocols and
supplying data in a variety of formats".  This example adds a kind of
source the original authors never shipped — an environmental sensor box
(machine-room temperature / humidity / UPS charge) with its own tiny
text protocol — end to end:

1. implement the native agent;
2. extend the GLUE schema with an ``Environment`` group;
3. implement the driver (a ~35-line GridRmDriver subclass: a mapping
   and two conversations — no I/O, no counters, no error handling);
4. register it with a *running* gateway, no restart;
5. query it with plain SQL like every other source.

Run:  python examples/custom_driver_plugin.py
"""

from repro import build_testbed
from repro.drivers.base import GridRmDriver
from repro.glue.mapping import GroupMapping, MappingRule, SchemaMapping
from repro.glue.schema import GlueField, GlueGroup
from repro.simnet.network import Address

SENSOR_PORT = 7700


# ----------------------------------------------------------------------
# 1. The native agent: answers "READ" with one key=value line per sensor.
# ----------------------------------------------------------------------
class EnvSensorAgent:
    """An environmental monitoring box in the machine room."""

    def __init__(self, network, host_name):
        self.network = network
        self.address = Address(host_name, SENSOR_PORT)
        network.listen(self.address, self._handle)

    def _handle(self, payload, src):
        if str(payload).strip().upper() != "READ":
            return "ERR unknown command"
        t = self.network.clock.now()
        import math

        temp = 21.0 + 3.0 * math.sin(t / 900.0)          # HVAC cycle
        humidity = 45.0 + 5.0 * math.sin(t / 1700.0 + 1)
        battery = max(5.0, 100.0 - (t / 36000.0))        # slow drain
        return (
            f"temp_c={temp:.2f}\nhumidity_pct={humidity:.1f}\n"
            f"ups_charge_pct={battery:.1f}\nstatus=ok"
        )


# ----------------------------------------------------------------------
# 3. The driver plug-in.
# ----------------------------------------------------------------------
class EnvSensorDriver(GridRmDriver):
    """JDBC-style driver for EnvSensorAgent's protocol."""

    protocol = "envsensor"
    default_port = SENSOR_PORT
    display_name = "JDBC-EnvSensor"

    def build_mapping(self):
        return SchemaMapping(
            self.display_name,
            [
                GroupMapping(
                    "Environment",
                    [
                        MappingRule("HostName", "_host"),
                        MappingRule("SiteName", "_site"),
                        MappingRule("Timestamp", "_time"),
                        MappingRule("TemperatureC", "temp_c"),
                        MappingRule("HumidityPercent", "humidity_pct"),
                        MappingRule("UPSChargePercent", "ups_charge_pct"),
                        MappingRule("StatusOk", "status", transform=lambda v: v == "ok"),
                    ],
                )
            ],
        )

    def hello(self, url):
        return "temp_c=" in (yield "READ")

    def exchange(self, url, group, select):
        record = {"_host": url.host}
        for line in (yield "READ").splitlines():
            key, _, value = line.partition("=")
            record[key] = value
        float(record["temp_c"])  # assert what you need: the DDK types whatever this raises
        return [record]


def main() -> None:
    network, (site,) = build_testbed(n_hosts=3, agents=("snmp",), seed=4)
    gateway = site.gateway
    clock = network.clock
    clock.advance(30.0)

    # The machine room gets a sensor box on an existing host.
    sensor_host = site.host_names()[0]
    EnvSensorAgent(network, sensor_host)

    # 2. Extend the GLUE schema at the gateway — no restart required.
    gateway.schema_manager.schema.add_group(
        GlueGroup(
            "Environment",
            (
                GlueField("HostName", "TEXT"),
                GlueField("SiteName", "TEXT"),
                GlueField("Timestamp", "TIMESTAMP", "s"),
                GlueField("TemperatureC", "REAL", "", "machine-room temperature"),
                GlueField("HumidityPercent", "REAL", "percent"),
                GlueField("UPSChargePercent", "REAL", "percent"),
                GlueField("StatusOk", "BOOLEAN"),
            ),
            "Machine-room environmental sensors",
        )
    )

    # 4. Register the driver with the live gateway and add the source.
    gateway.register_driver(EnvSensorDriver(network, gateway_host=gateway.host))
    url = f"jdbc:envsensor://{sensor_host}/machine-room"
    gateway.add_source(url)
    print("registered drivers:", ", ".join(gateway.driver_manager.driver_names()))

    # 5. Query it like any other source.
    print("\n=== SELECT * FROM Environment ===")
    for _ in range(4):
        result = gateway.query(url, "SELECT * FROM Environment")
        print("  ", result.dicts()[0])
        clock.advance(600.0)

    print("\n=== SQL works, of course: thresholds, projections ===")
    result = gateway.query(
        url, "SELECT HostName, TemperatureC FROM Environment WHERE TemperatureC > 15"
    )
    print("  ", result.dicts())

    print("\n=== and history accumulated for plotting ===")
    from repro import Console

    print(Console(gateway).plot("Environment", "TemperatureC", host=sensor_host))

    # Dynamic driver selection sees the new driver too: a wildcard URL for
    # this host now matches both the SNMP agent and the sensor box.
    candidates = gateway.registry.locate_all(f"jdbc://{sensor_host}/anything")
    print(
        f"\nwildcard jdbc://{sensor_host}/... candidates: "
        + ", ".join(d.name() for d in candidates)
    )


if __name__ == "__main__":
    main()
