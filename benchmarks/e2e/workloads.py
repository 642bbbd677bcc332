"""The five workloads: seeded request generators plus their oracles.

Every workload is a closed loop of one thread: think (virtual, seeded,
exponential), issue one step through a public entry point, check the
replies, repeat.  A step is a burst of ACIL requests sent with
``query_many``, one servlet ``GET`` from the portal host, or (on
``stream_events``) one publish round.

Request kinds are drawn from a fixed multiset that the seed only
shuffles, so the proportions documented in README.md hold exactly for
every seed and the seed-to-seed spread of the metrics stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence
from urllib.parse import quote

from repro.core.acil import ClientRequest
from repro.dbapi.url import JdbcUrl
from repro.gma.streams import Republisher, StreamConsumer
from repro.gma.subscription import EventSubscriber

from testbed import PORTAL, VIEWERS, Grid3


# ----------------------------------------------------------------------
# Steps and expectations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expect:
    """Closed-form facts a reply must satisfy (None = not constrained)."""

    #: Exact set of ``HostName`` values.
    hosts: "frozenset[str] | None" = None
    #: Exact set of ``SiteName`` values.
    sites: "frozenset[str] | None" = None
    #: Exact number of rows.
    rows: "int | None" = None
    #: Every row's first cell equals this (``COUNT(*)`` templates).
    first_cell: Any = None
    #: Exact number of per-source statuses.
    sources: "int | None" = None


@dataclass
class Step:
    think: float
    #: ``acil`` | ``get`` | ``publish``
    kind: str
    requests: list[ClientRequest] = field(default_factory=list)
    expects: list[Expect] = field(default_factory=list)
    #: Servlet target for ``get`` steps.
    target: str = ""
    #: Request kind of each operation, for the op-count provenance.
    labels: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Operations this step counts for."""
        return max(1, len(self.requests))

    @property
    def remote_only(self) -> bool:
        return bool(self.labels) and all(label == "remote" for label in self.labels)


def stratified(rng: random.Random, n: int, weights: dict[str, int]) -> list[str]:
    """``n`` labels in exactly the proportions of ``weights`` (largest
    remainder), in seeded order."""
    total = sum(weights.values())
    quotas = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    by_remainder = sorted(weights, key=lambda k: (counts[k] - quotas[k], k))
    for k in by_remainder[: n - sum(counts.values())]:
        counts[k] += 1
    labels = [k for k in weights for _ in range(counts[k])]
    rng.shuffle(labels)
    return labels


def sources_supporting(tb: Grid3, group: str) -> list[str]:
    """site-a's sources whose driver mapping serves ``group``."""
    by_protocol = {d.protocol: d for d in tb.gateway.registry.drivers()}
    return [
        url
        for url in tb.site_a.source_urls
        if by_protocol[JdbcUrl.parse(url).protocol].default_mapping().supports(group)
    ]


def _site_hosts(tb: Grid3) -> frozenset[str]:
    return frozenset(tb.site_a.host_names())


def request(urls: Sequence[str], sql: str, mode: str) -> ClientRequest:
    return ClientRequest(urls=list(urls), sql=sql, mode=mode)


def _get_query(url: str, sql: str, mode: str) -> str:
    return f"/query?url={quote(url, safe='')}&sql={quote(sql, safe='')}&mode={mode}"


# ----------------------------------------------------------------------
# Request templates shared by several workloads
# ----------------------------------------------------------------------
#: One row per host from every source that serves the group.
HOST_GROUPS = ("Processor", "MainMemory", "OperatingSystem", "Host")

DASHBOARD_SQL = (
    "SELECT HostName, LoadAverage1Min, LoadAverage5Min, LoadAverage15Min FROM Processor",
    "SELECT HostName, CPUUtilization, CPUIdle FROM Processor ORDER BY CPUUtilization DESC",
    "SELECT HostName, CPUCount, ClockSpeedMHz FROM Processor",
    "SELECT * FROM Processor",
    "SELECT HostName, RAMSizeMB, RAMAvailableMB FROM MainMemory",
    "SELECT HostName, VirtualSizeMB, VirtualAvailableMB FROM MainMemory WHERE RAMSizeMB > 0",
    "SELECT * FROM MainMemory",
    "SELECT HostName, Name, Release, UptimeSeconds FROM OperatingSystem",
    "SELECT HostName, ProcessCount, UserCount FROM OperatingSystem",
    "SELECT HostName, Reachable, AgentName FROM Host",
    "SELECT * FROM Host",
    "SELECT HostName, LoadAverage1Min FROM Processor WHERE LoadAverage1Min >= 0 ORDER BY HostName",
)

#: (driver kind, a group that kind serves), the single-source rotation.
SINGLE_SOURCE = (
    ("snmp", "Processor"),
    ("ganglia", "MainMemory"),
    ("scms", "Job"),
    ("nws", "NetworkForecast"),
    ("netlogger", "LogEvent"),
    ("sql", "Processor"),
)

JOIN_SQL = (
    "SELECT Processor.HostName, LoadAverage1Min, RAMAvailableMB "
    "FROM Processor, MainMemory WHERE RAMSizeMB > 0",
    "SELECT Processor.HostName, CPUCount, RAMSizeMB FROM Processor, MainMemory",
    "SELECT Processor.HostName, Name, LoadAverage5Min FROM Processor, OperatingSystem",
)


class Templates:
    """Request builders over one testbed; each returns (request, expect)."""

    def __init__(self, tb: Grid3, rng: random.Random) -> None:
        self.tb = tb
        self.rng = rng
        self.hosts = _site_hosts(tb)
        self.snmp = tb.urls("snmp")
        self.dashboard = self.snmp + tb.urls("ganglia")
        self.serving = {group: sources_supporting(tb, group) for group in HOST_GROUPS}
        self._single = 0

    def tree_read(self) -> tuple[ClientRequest, Expect]:
        sql = self.rng.choice(DASHBOARD_SQL)
        # Every dashboard source answers one row per host.
        return (
            request(self.dashboard, sql, "cached_ok"),
            Expect(hosts=self.hosts, rows=2 * len(self.hosts), sources=9),
        )

    def snmp_select(self) -> tuple[ClientRequest, Expect]:
        group = self.rng.choice(HOST_GROUPS)
        return (
            request(self.snmp, f"SELECT * FROM {group}", "realtime"),
            Expect(hosts=self.hosts, rows=len(self.hosts), sources=len(self.snmp)),
        )

    def all_sources(self) -> tuple[ClientRequest, Expect]:
        group = self.rng.choice(HOST_GROUPS)
        urls = self.serving[group]
        return (
            request(urls, f"SELECT * FROM {group}", "realtime"),
            Expect(sources=len(urls)),
        )

    def single_source(self) -> tuple[ClientRequest, Expect]:
        kind, group = SINGLE_SOURCE[self._single % len(SINGLE_SOURCE)]
        self._single += 1
        url = self.rng.choice(self.tb.urls(kind))
        return request([url], f"SELECT * FROM {group}", "realtime"), Expect(sources=1)

    def join(self) -> tuple[ClientRequest, Expect]:
        sql = self.rng.choice(JOIN_SQL)
        # One decomposed sub-query per group, each over every SNMP source.
        return (
            request(self.snmp, sql, "realtime"),
            Expect(hosts=self.hosts, rows=len(self.hosts), sources=2 * len(self.snmp)),
        )

    def history_recent(self) -> tuple[ClientRequest, Expect]:
        group = self.rng.choice(("Processor", "MainMemory"))
        url = self.rng.choice(self.snmp)
        sql = f"SELECT HostName, COUNT(*) FROM {group} GROUP BY HostName"
        return request([url], sql, "history"), Expect(sources=1)

    def remote(self) -> tuple[ClientRequest, Expect]:
        site = self.rng.choice((self.tb.site_b, self.tb.site_c))
        group = self.rng.choice(HOST_GROUPS)
        urls = [u for u in site.source_urls if u.startswith("jdbc:snmp:")]
        return (
            request(urls, f"SELECT * FROM {group}", "realtime"),
            Expect(
                hosts=frozenset(site.host_names()),
                sites=frozenset({site.name}),
                rows=len(urls),
            ),
        )

    def servlet_target(self, *, tree_share: float) -> str:
        if self.rng.random() < tree_share:
            return "/tree"
        url = self.rng.choice(self.dashboard)
        return _get_query(url, self.rng.choice(DASHBOARD_SQL), "cached_ok")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    #: Operations per repetition at the reference ``--seconds``.
    ops = 0
    #: Mean of the exponential virtual think time before each step (s).
    think = 0.0
    #: Whether site-a's SNMP agents send load traps.
    traps = False

    @classmethod
    def quick(cls) -> None:
        """Shrink fixed set-up work for the smoke run."""

    def prepare(self, tb: Grid3, rng: random.Random) -> None:
        """Workload-specific set-up (part of ``setup_s``)."""

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        raise NotImplementedError

    def begin_timed(self) -> None:
        """Called between warm-up and the timed phase."""

    def verify(self, tb: Grid3, steps: Sequence[Step]) -> list[str]:
        """End-of-repetition checks; returns error strings."""
        return []

    def extra_counters(self) -> dict[str, float]:
        """Counters of consumer-side objects the workload owns."""
        return {}

    def virtual_latencies(self) -> "list[float] | None":
        """Request-to-reply virtual latencies when replies do not carry
        them (stream deliveries); None = use the replies' ``elapsed``."""
        return None

    def _think(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.think) if self.think else 0.0


def _subscribe(consumer: StreamConsumer, tb: Grid3, sqls: Sequence[str]) -> None:
    for sql in sqls:
        consumer.register(tb.gateway.streams.address, sql)


class Mix(Workload):
    name = "mix"
    why = (
        "every layer on the path in deployment proportions; the only workload "
        "with the Global layer and with concurrent bursts"
    )
    ops = 600
    think = 2.0

    KINDS = {
        "tree": 40,
        "single": 15,
        "multi": 15,
        "history": 10,
        "join": 5,
        "remote": 10,
        "servlet": 5,
    }
    BURSTS = (1, 1, 1, 2, 4)
    SUBSCRIPTIONS = (
        "SELECT HostName, LoadAverage1Min FROM Processor",
        "SELECT HostName, CPUUtilization FROM Processor WHERE CPUCount >= 1",
        "SELECT HostName, RAMAvailableMB FROM MainMemory",
        "SELECT HostName, UptimeSeconds FROM OperatingSystem",
    )

    def prepare(self, tb: Grid3, rng: random.Random) -> None:
        self.viewer = StreamConsumer(tb.network, VIEWERS[0])
        _subscribe(self.viewer, tb, self.SUBSCRIPTIONS)

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        t = Templates(tb, rng)
        build = {
            "tree": t.tree_read,
            "single": t.single_source,
            "multi": lambda: t.snmp_select() if rng.random() < 0.5 else t.all_sources(),
            "history": t.history_recent,
            "join": t.join,
            "remote": t.remote,
        }
        steps: list[Step] = []
        burst: list[tuple[str, ClientRequest, Expect]] = []
        want = rng.choice(self.BURSTS)
        for kind in stratified(rng, n_ops, self.KINDS):
            if kind == "servlet":
                target = t.servlet_target(tree_share=0.5)
                steps.append(Step(self._think(rng), "get", target=target, labels=[kind]))
                continue
            burst.append((kind, *build[kind]()))
            if len(burst) == want:
                steps.append(_burst(self._think(rng), burst))
                burst, want = [], rng.choice(self.BURSTS)
        if burst:
            steps.append(_burst(self._think(rng), burst))
        return steps


def _burst(think: float, members: list[tuple[str, ClientRequest, Expect]]) -> Step:
    return Step(
        think,
        "acil",
        requests=[m[1] for m in members],
        expects=[m[2] for m in members],
        labels=[m[0] for m in members],
    )


class TreeCached(Workload):
    name = "tree_cached"
    why = (
        "repeated dashboard reads inside the cache TTL: per-query overhead "
        "(ACIL, authorise, admission, tracer, cache lookups, console) is "
        "nearly all of the cost; drivers, agents and history do almost nothing"
    )
    ops = 3000
    think = 0.05

    KINDS = {"read": 85, "tree": 10, "query": 5}

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        t = Templates(tb, rng)
        steps = []
        for kind in stratified(rng, n_ops, self.KINDS):
            think = self._think(rng)
            if kind == "read":
                steps.append(_burst(think, [(kind, *t.tree_read())]))
            else:
                target = t.servlet_target(tree_share=1.0 if kind == "tree" else 0.0)
                steps.append(Step(think, "get", target=target, labels=[kind]))
        return steps


class RealtimeFanout(Workload):
    name = "realtime_fanout"
    why = (
        "REALTIME only, think beyond the driver cache TTL: dispatch, pool, "
        "drivers, native decode, GLUE translate and plan execute do the work, "
        "and every fetch is recorded, WAL-framed and checkpointed"
    )
    ops = 200
    think = 20.0

    KINDS = {"snmp": 40, "all": 20, "single": 30, "join": 10}

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        t = Templates(tb, rng)
        build = {
            "snmp": t.snmp_select,
            "all": t.all_sources,
            "single": t.single_source,
            "join": t.join,
        }
        return [
            _burst(self._think(rng), [(kind, *build[kind]())])
            for kind in stratified(rng, n_ops, self.KINDS)
        ]


class HistoryScan(Workload):
    name = "history_scan"
    why = (
        "HISTORY-mode reads over preloaded tables with more distinct texts "
        "than the plan cache holds: parser, plan compile, plan execute and "
        "history scans do the work; drivers, network and agents do none"
    )
    ops = 2400
    think = 0.01

    ROUNDS = 256
    #: Virtual seconds between preload rounds.
    SPACING = 1.0
    LITERALS = 64

    @classmethod
    def quick(cls) -> None:
        cls.ROUNDS = 32

    def prepare(self, tb: Grid3, rng: random.Random) -> None:
        """Record ``ROUNDS`` acquisitions of two groups over the 8 SNMP
        sources through the real REALTIME path (durable history on)."""
        acil = tb.gateway.acil
        snmp = tb.urls("snmp")
        #: Clock reading before each round: RecordedAt of round k lies in
        #: [marks[k], marks[k + 1]).
        self.marks: list[float] = []
        for _ in range(self.ROUNDS):
            self.marks.append(tb.clock.now())
            for group in ("Processor", "MainMemory"):
                reply = acil.query(request(snmp, f"SELECT * FROM {group}", "realtime"))
                if len(reply.rows) != len(snmp):
                    raise RuntimeError(f"preload round lost rows: {reply.statuses}")
            tb.clock.advance(self.SPACING)
        self.marks.append(tb.clock.now())

    def _texts(self, tb: Grid3) -> list[list[tuple[str, str, Expect]]]:
        """64 literals x 8 templates -> (url, sql, expectation)."""
        snmp = tb.urls("snmp")
        rounds = self.ROUNDS
        out = []
        for lit in range(self.LITERALS):
            url = snmp[lit % len(snmp)]
            host = frozenset({JdbcUrl.parse(url).host})
            lo = lit * rounds // (2 * self.LITERALS)
            hi = rounds - lo
            t_lo, t_hi = self.marks[lo], self.marks[hi]
            out.append([
                (
                    url,
                    "SELECT HostName, LoadAverage1Min, RecordedAt FROM Processor "
                    f"WHERE LoadAverage1Min > {lit * 0.05:.2f}",
                    Expect(),
                ),
                (
                    url,
                    "SELECT HostName, RAMAvailableMB, RecordedAt FROM MainMemory "
                    f"ORDER BY RAMAvailableMB DESC LIMIT {lit + 1}",
                    Expect(hosts=host, rows=min(lit + 1, rounds)),
                ),
                (
                    url,
                    "SELECT HostName, AVG(LoadAverage1Min), MAX(LoadAverage5Min) "
                    f"FROM Processor WHERE RecordedAt >= {t_lo!r} GROUP BY HostName",
                    Expect(hosts=host, rows=1),
                ),
                (
                    url,
                    f"SELECT COUNT(*) FROM Processor WHERE CPUCount >= {-lit}",
                    Expect(rows=1, first_cell=rounds),
                ),
                (
                    url,
                    "SELECT HostName, LoadAverage1Min FROM Processor "
                    f"WHERE RecordedAt >= {t_lo!r} AND RecordedAt < {t_hi!r}",
                    Expect(hosts=host, rows=hi - lo),
                ),
                (
                    url,
                    "SELECT MIN(RAMAvailableMB), MAX(RAMAvailableMB), AVG(CachedMB) "
                    f"FROM MainMemory WHERE RecordedAt >= {t_lo!r}",
                    Expect(rows=1),
                ),
                (
                    url,
                    "SELECT HostName, CPUUtilization FROM Processor WHERE "
                    f"CPUUtilization BETWEEN {lit} AND {lit + 40} "
                    "ORDER BY CPUUtilization LIMIT 16",
                    Expect(),
                ),
                (
                    url,
                    f"SELECT COUNT(*) FROM MainMemory WHERE RecordedAt < {t_hi!r}",
                    Expect(rows=1, first_cell=hi),
                ),
            ])
        return out

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        # Seeded popularity ranking, stratified: literals are shuffled and
        # the 8 templates shuffled inside each, so every band of 8 ranks
        # holds each template once and the head of the Zipf curve costs
        # about the same whatever the seed.
        blocks = self._texts(tb)
        rng.shuffle(blocks)
        for block in blocks:
            rng.shuffle(block)
        texts = [text for block in blocks for text in block]
        # Zipf(1.0): rank r is drawn with probability proportional to 1/r.
        cumulative, total = [], 0.0
        for rank in range(1, len(texts) + 1):
            total += 1.0 / rank
            cumulative.append(total)
        steps = []
        for _ in range(n_ops):
            url, sql, expect = texts[_bisect(cumulative, rng.random() * total)]
            scan = request([url], sql, "history")
            steps.append(_burst(self._think(rng), [("history", scan, expect)]))
        return steps


def _bisect(cumulative: list[float], x: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


class StreamEvents(Workload):
    name = "stream_events"
    why = (
        "64 continuous subscriptions, an event subscriber and an archiving "
        "republisher follow one gateway: the stream hub, event manager, "
        "publisher and archiver do most of the work per publish round"
    )
    ops = 180
    think = 10.0
    traps = True

    #: Virtual seconds each publish round drains deliveries for.
    DRAIN = 0.05
    VARIANTS = 8

    def _shapes(self, tb: Grid3) -> list[tuple[str, int]]:
        """8 shapes x 8 literal variants -> (sql, deliveries per round).

        Every predicate is decided by construction, so the expected
        deliveries need no knowledge of the sampled values: a round
        publishes once per SNMP source (8 publishes of one row each).
        """
        hosts = tb.site_a.host_names()
        n = len(hosts)
        out = []
        for k in range(self.VARIANTS):
            one, other = hosts[k % n], hosts[(k + 3) % n]
            out += [
                ("SELECT HostName, LoadAverage1Min FROM Processor "
                 f"WHERE LoadAverage1Min >= {-k}", n),
                ("SELECT HostName, CPUUtilization, CPUIdle FROM Processor "
                 f"WHERE CPUCount >= {1 - k}", n),
                (f"SELECT * FROM Processor WHERE HostName = '{one}'", 1),
                ("SELECT HostName, LoadAverage5Min FROM Processor "
                 f"WHERE HostName LIKE 'site-a-n0{k % n}%'", 1),
                ("SELECT HostName, SiteName, LoadAverage15Min FROM Processor "
                 f"WHERE SiteName = 'site-a' AND HostName IN ('{one}', '{other}')", 2),
                ("SELECT HostName, CPUUtilization FROM Processor "
                 f"WHERE HostName = '{other}' AND CPUUtilization >= {-k} "
                 "ORDER BY HostName", 1),
                (f"SELECT HostName, Vendor, Model FROM Processor WHERE CPUCount < {-k}", 0),
                ("SELECT HostName, CPUUser + CPUSystem FROM Processor "
                 f"WHERE HostName <> '{one}' AND CPUIdle < {-k} LIMIT 4", 0),
            ]
        return out

    def prepare(self, tb: Grid3, rng: random.Random) -> None:
        shapes = self._shapes(tb)
        self.per_round = sum(expected for _, expected in shapes)
        half = len(shapes) // 2
        self.viewers = [StreamConsumer(tb.network, host) for host in VIEWERS]
        for viewer, part in zip(self.viewers, (shapes[:half], shapes[half:])):
            _subscribe(viewer, tb, [sql for sql, _ in part])
        self.subscriber = EventSubscriber(tb.network, VIEWERS[0])
        # A bare subscriber does not renew: lease it for the whole run.
        self.subscriber.subscribe(tb.publisher.address, lease=1e6)
        # The archiver is R-GMA's republisher: it archives the event feed
        # and re-publishes a windowed per-host load average, which the
        # portal consumes as a derived stream.
        self.archiver = Republisher(
            tb.network, VIEWERS[1], consumer_port=8511, policy=tb.gateway.policy
        )
        self.archiver.follow(tb.publisher)
        self.archiver.derive(
            tb.gateway.streams.address,
            "SELECT HostName, LoadAverage1Min FROM Processor",
            key_column="HostName",
            value_column="LoadAverage1Min",
            window=60.0,
            group="HostLoadWindow",
        )
        self.portal = StreamConsumer(tb.network, PORTAL)
        self.portal.register(
            self.archiver.hub.address, "SELECT HostName, AvgValue, Samples FROM HostLoadWindow"
        )
        self._timed_from = [0, 0]

    def steps(self, tb: Grid3, rng: random.Random, n_ops: int) -> list[Step]:
        snmp = tb.urls("snmp")
        hosts = _site_hosts(tb)
        expect = Expect(hosts=hosts, rows=len(snmp), sources=len(snmp))
        return [
            Step(
                self._think(rng),
                "publish",
                requests=[request(snmp, "SELECT * FROM Processor", "realtime")],
                expects=[expect],
                labels=["publish"],
            )
            for _ in range(n_ops)
        ]

    def begin_timed(self) -> None:
        self._timed_from = [len(v.batches) for v in self.viewers]

    def _timed_batches(self) -> list[dict[str, Any]]:
        return [
            batch
            for viewer, start in zip(self.viewers, self._timed_from)
            for batch in viewer.batches[start:]
        ]

    def verify(self, tb: Grid3, steps: Sequence[Step]) -> list[str]:
        errors = []
        got = len(self._timed_batches())
        want = self.per_round * len(steps)
        if got != want:
            errors.append(f"stream deliveries: {got}, expected {want}")
        if self.archiver.stats["archived"] != self.subscriber.received:
            errors.append(
                f"archiver saw {self.archiver.stats['archived']} events, "
                f"subscriber {self.subscriber.received}"
            )
        if tb.gateway.events.stats["dropped"]:
            errors.append(f"events dropped: {tb.gateway.events.stats['dropped']}")
        return errors

    def virtual_latencies(self) -> list[float]:
        return [b["received_at"] - b["published_at"] for b in self._timed_batches()]

    def extra_counters(self) -> dict[str, float]:
        return {f"archiver.{k}": float(v) for k, v in self.archiver.stats.items()}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Mix, TreeCached, RealtimeFanout, HistoryScan, StreamEvents)
}
