"""Networked SQL data source.

The paper's architecture diagram (Figure 2) lists "SQL" among the data
sources behind the Abstract Data Layer: sites often keep accounting or
inventory data in a relational database.  This agent exposes a
:class:`repro.sql.database.Database` over the simulated network with a
trivial wire protocol: the request payload is a SQL string, the response
is either ``("ok", columns, rows)``, ``("count", n)`` or
``("error", message)``.

:func:`seed_site_database` builds the kind of content a 2003 Grid site
database held — a host inventory and a job accounting table — refreshed
on a schedule from the host models so queries see live data.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from repro.agents.host_model import SimulatedHost, _stable_seed
from repro.simnet.network import Address, Network
from repro.sql.database import Database
from repro.sql.errors import SqlError
from repro.sql.values import SelectResult

SQLAGENT_PORT = 5432

Response = tuple[str, Any, Any] | tuple[str, Any]


class SqlAgent:
    """Serves a Database over the network, one SQL statement per request."""

    def __init__(
        self,
        database: Database,
        network: Network,
        bind_host: str,
        *,
        port: int = SQLAGENT_PORT,
        read_only: bool = True,
    ) -> None:
        self.database = database
        self.network = network
        self.read_only = read_only
        self.address = Address(bind_host, port)
        self.requests_served = 0
        network.listen(self.address, self._handle)

    def _handle(self, payload: object, src: Address) -> Response:
        self.requests_served += 1
        sql = str(payload)
        if self.read_only and not sql.lstrip().upper().startswith("SELECT"):
            return ("error", "data source is read-only")
        try:
            result = self.database.execute(sql)
        except SqlError as exc:
            return ("error", str(exc))
        if isinstance(result, SelectResult):
            return ("ok", result.columns, result.rows)
        return ("count", result)


def seed_site_database(
    hosts: Iterable[SimulatedHost],
    network: Network,
    *,
    refresh_period: float = 60.0,
) -> Database:
    """Create and keep refreshed a site inventory/accounting database.

    Tables:

    * ``hosts(name, site, cpus, mhz, ram_mb, os, load1, updated)`` — one
      row per node, refreshed every ``refresh_period`` virtual seconds.
    * ``jobs(jobid, owner, node, queue, state, cpusec, wallsec, nodes,
      submitted)`` — grows slowly over time, like a real accounting DB.
    """
    hosts = list(hosts)
    db = Database()
    db.create_table(
        "hosts",
        [
            ("name", "TEXT"),
            ("site", "TEXT"),
            ("cpus", "INTEGER"),
            ("mhz", "REAL"),
            ("ram_mb", "REAL"),
            ("os", "TEXT"),
            ("load1", "REAL"),
            ("updated", "TIMESTAMP"),
        ],
    )
    db.create_table(
        "jobs",
        [
            ("jobid", "TEXT"),
            ("owner", "TEXT"),
            ("node", "TEXT"),
            ("queue", "TEXT"),
            ("state", "TEXT"),
            ("cpusec", "REAL"),
            ("wallsec", "REAL"),
            ("nodes", "INTEGER"),
            ("submitted", "TIMESTAMP"),
        ],
    )
    rng = random.Random(_stable_seed("sqlagent", *(h.spec.name for h in hosts)))
    job_counter = [0]

    def refresh() -> None:
        t = network.clock.now()
        db.execute("DELETE FROM hosts")
        for h in hosts:
            snap = h.snapshot(t)
            db.insert_rows(
                "hosts",
                [
                    {
                        "name": h.spec.name,
                        "site": h.spec.site,
                        "cpus": h.spec.cpu_count,
                        "mhz": h.spec.clock_mhz,
                        "ram_mb": h.spec.ram_mb,
                        "os": h.spec.os_name,
                        "load1": snap["cpu"]["load_1"],
                        "updated": t,
                    }
                ],
            )
        # A couple of new accounting records per refresh.
        for _ in range(rng.randint(0, 2)):
            job_counter[0] += 1
            h = rng.choice(hosts)
            db.insert_rows(
                "jobs",
                [
                    {
                        "jobid": f"db{job_counter[0]:06d}",
                        "owner": rng.choice(["grid", "mbaker", "gsmith", "ops"]),
                        "node": h.spec.name,
                        "queue": rng.choice(["batch", "express", "gridq"]),
                        "state": rng.choice(["done", "done", "running", "failed"]),
                        "cpusec": rng.uniform(1, 4000),
                        "wallsec": rng.uniform(10, 8000),
                        "nodes": rng.choice([1, 1, 2, 4]),
                        "submitted": t,
                    }
                ],
            )

    refresh()
    network.clock.call_every(refresh_period, refresh)
    return db
