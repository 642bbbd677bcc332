"""A1 (ablation) — native query pushdown.

DESIGN.md calls out pushdown as a driver design choice: the SQL driver
rewrites mappable WHERE clauses into native SQL and the NetLogger driver
maps equality/time constraints onto MATCH/SINCE requests.  This ablation
quantifies what turning that off would cost.

Workload: selective queries against a 2000-record accounting database
and a busy NetLogger stream, with pushdown engaged (normal) vs disabled
(fetch-all + filter locally).  Metrics: bytes on the wire and rows
shipped.  Expected shape: savings proportional to selectivity; results
identical either way.
"""

import pytest

from repro.agents.netlogger import NetLoggerAgent
from repro.agents.sqlagent import SqlAgent
from repro.drivers.netlogger_driver import NetLoggerDriver
from repro.drivers.sql_driver import SqlDriver
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.database import Database
from conftest import fmt_table


class NoPushdownSqlDriver(SqlDriver):
    """Ablated SQL driver: never ships the WHERE clause."""

    display_name = "JDBC-SQL-nopush"

    def exchange(self, url, group, select):
        import dataclasses

        return super().exchange(url, group, dataclasses.replace(select, where=None))


class NoPushdownNetLoggerDriver(NetLoggerDriver):
    """Ablated NetLogger driver: always TAILs the whole window."""

    display_name = "JDBC-NetLogger-nopush"

    def exchange(self, url, group, select):
        import dataclasses

        # TAIL the agent's whole retention window, filter locally.
        neutered = dataclasses.replace(select, where=None, limit=10**6)
        return super().exchange(url, group, neutered)


def sql_rig():
    clock = VirtualClock()
    network = Network(clock, seed=13)
    network.add_host("db", site="a1")
    network.add_host("gateway", site="a1")
    db = Database()
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
    db.create_table("hosts", [("name", "TEXT"), ("site", "TEXT")])
    import random

    rng = random.Random(13)
    db.insert_rows(
        "jobs",
        (
            {
                "jobid": f"j{i:05d}",
                "owner": rng.choice(["grid", "mbaker", "gsmith", "ops", "guest"]),
                "node": f"n{rng.randrange(16):02d}",
                "queue": rng.choice(["batch", "express"]),
                "state": rng.choice(["done"] * 8 + ["failed", "running"]),
                "cpusec": rng.uniform(1, 4000),
                "wallsec": rng.uniform(10, 8000),
                "nodes": 1,
                "submitted": float(i),
            }
            for i in range(2000)
        ),
    )
    SqlAgent(db, network, "db")
    return network


SELECTIVE_SQL = "SELECT JobId, CPUSeconds FROM Job WHERE Owner = 'mbaker' AND State = 'failed'"


@pytest.mark.benchmark(group="A1-pushdown")
def test_a1_sql_where_pushdown(benchmark, report):
    rows = []
    results = {}
    for label, cls in (("pushdown", SqlDriver), ("fetch-all", NoPushdownSqlDriver)):
        network = sql_rig()
        driver = cls(network, gateway_host="gateway")
        conn = driver.connect("jdbc:sql://db/acct")
        network.stats.reset()
        rs = conn.create_statement().execute_query(SELECTIVE_SQL)
        results[label] = sorted(r["JobId"] for r in rs.to_dicts())
        rows.append([label, network.stats.bytes_sent, len(rs)])
    report(
        "A1: SQL WHERE pushdown on a 2000-job accounting DB "
        "(selective owner+state query)",
        *fmt_table(["variant", "wire bytes", "rows"], rows),
        f"wire saving: {rows[1][1] / rows[0][1]:.0f}x",
    )
    # Correctness identical; pushdown moves far fewer bytes.
    assert results["pushdown"] == results["fetch-all"]
    assert rows[0][1] * 10 < rows[1][1]

    network = sql_rig()
    driver = SqlDriver(network, gateway_host="gateway")
    conn = driver.connect("jdbc:sql://db/acct")
    benchmark(lambda: conn.create_statement().execute_query(SELECTIVE_SQL))


@pytest.mark.benchmark(group="A1-pushdown")
def test_a1_netlogger_match_pushdown(benchmark, report):
    rows = []
    results = {}
    for label, cls in (
        ("MATCH pushdown", NetLoggerDriver),
        ("tail-everything", NoPushdownNetLoggerDriver),
    ):
        clock = VirtualClock()
        network = Network(clock, seed=14)
        network.add_host("n0", site="a1")
        network.add_host("gateway", site="a1")
        from repro.agents.host_model import HostSpec, SimulatedHost

        host = SimulatedHost(HostSpec.generate("n0", "a1", 5), clock)
        NetLoggerAgent(host, network, capacity=100_000)
        clock.advance(3600.0)  # an hour of instrumentation records
        driver = cls(network, gateway_host="gateway")
        conn = driver.connect("jdbc:netlogger://n0/ulm")
        network.stats.reset()
        rs = conn.create_statement().execute_query(
            "SELECT EventTime, Message FROM LogEvent WHERE EventName = 'disk.full'"
        )
        results[label] = len(rs)
        rows.append([label, network.stats.bytes_sent, len(rs)])
    report(
        "A1b: NetLogger MATCH pushdown over an hour of records",
        *fmt_table(["variant", "wire bytes", "rows"], rows),
    )
    assert results["MATCH pushdown"] == results["tail-everything"]
    assert rows[0][1] * 3 < rows[1][1]

    benchmark(lambda: sql_rig())
