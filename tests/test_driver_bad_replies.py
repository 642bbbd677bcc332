"""A bad reply costs one source, never the query.

Three views of the DDK's one trust boundary (``GridRmDriver._typed``),
all driven by what ``repro.drivers`` registers rather than by a list of
driver names:

* the ROADMAP item-2 reproduction — a gmond dump cut in half next to
  three honest SNMP sources;
* a 22-case matrix of replies mutated at ``Network.request`` (truncate /
  wrong type / non-numeric / ``None``): every case is an ``ok=False``
  status naming driver and source, the source's breaker counts one
  failure, and the next honest query answers in full;
* one Hypothesis target that feeds every registered driver's
  ``exchange`` generated replies with no ``Network`` at all.
"""

import functools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agents import snmp as wire
from repro.core.gateway import BatchQuery
from repro.core.health import FAILURE_THRESHOLD, BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.dbapi.exceptions import SQLException
from repro.dbapi.url import JdbcUrl
from repro.drivers import default_driver_set
from repro.glue.schema import STANDARD_SCHEMA
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.parser import parse_select
from repro.testbed import build_site
from tests.conftest import paper_policy

#: protocol -> the query the matrix and the recorder run against it.
#: ``LIMIT 1`` keeps NetLogger's honest row count independent of how
#: long the agent has been logging.
QUERIES = {
    "snmp": "SELECT * FROM Processor",
    "ganglia": "SELECT * FROM Processor",
    "nws": "SELECT * FROM NetworkForecast",
    "netlogger": "SELECT * FROM LogEvent LIMIT 1",
    "scms": "SELECT * FROM Processor",
    "sql": "SELECT * FROM Processor",
}
#: Every registered driver, built with no Network at all: enough to read
#: its protocol, port and mapping, and to run its conversations.
DRIVERS = {driver.protocol: driver for driver in default_driver_set(None)}
REGISTERED = list(DRIVERS)


def _site(protocol):
    network = Network(VirtualClock(), seed=7)
    policy = GatewayPolicy(query_cache_ttl=0.0)
    site = build_site(network, name="s", n_hosts=3, agents=(protocol,), policy=policy)
    # Every use of this site ends well inside the pool's idle TTL
    # (``connection_manager.IDLE_TTL``, 120 s), so a pooled connection
    # is reused without a revalidation probe through the intercept.
    return network, site


def _intercept(network, port, mutate):
    """Pass every reply from ``port`` through ``mutate`` until the
    returned switch is cleared."""
    honest = network.request
    armed = [True]

    def request(src, dst, payload, **kwargs):
        reply = honest(src, dst, payload, **kwargs)
        return mutate(reply) if armed[0] and dst.port == port else reply

    network.request = request
    return armed


# ----------------------------------------------------------------------
# The ROADMAP item-2 reproduction
# ----------------------------------------------------------------------
#: Both reproductions run in both configurations.  ``default`` is the
#: planes-off paper gateway (the id dates from when that was the default
#: policy); ``all-planes`` is the deployed ``GatewayPolicy()`` with
#: CGSL/FGSL on as well.
configurations = pytest.mark.parametrize(
    "policy",
    [paper_policy, functools.partial(GatewayPolicy, security_enabled=True)],
    ids=["default", "all-planes"],
)


@configurations
def test_half_a_gmond_dump_costs_the_ganglia_source_only(policy):
    network = Network(VirtualClock(), seed=7)
    site = build_site(
        network, name="s", n_hosts=3, agents=("snmp", "ganglia"),
        policy=policy(),
    )
    gateway, agent = site.gateway, site.agents["ganglia"][0]
    ganglia_url = site.source_urls[-1]
    honest = agent.render_xml
    agent.render_xml = lambda: honest()[: len(honest()) // 2]

    result = gateway.query(site.source_urls, "SELECT HostName FROM Processor")

    assert sorted(r[0] for r in result.rows) == ["s-n00", "s-n01", "s-n02"]
    (bad,) = [s for s in result.statuses if not s.ok]
    assert bad.url == ganglia_url and bad.cause is Cause.ERROR
    assert "JDBC-Ganglia" in bad.error and ganglia_url in bad.error
    assert gateway.health.health(ganglia_url).total_failures == 1
    assert gateway.driver_manager.driver_by_name("JDBC-Ganglia").cache.misses == 1

    agent.render_xml = honest
    network.clock.advance(20.0)  # past the query cache and the dump cache
    again = gateway.query(site.source_urls, "SELECT HostName FROM Processor")
    assert all(s.ok for s in again.statuses) and len(again.rows) == 6


@configurations
def test_half_a_gmond_dump_repeated_trips_the_ganglia_breaker(policy):
    """Each query connects to gmond fine and then reads half a dump.  A
    connect is no health observation, so each query counts the one
    fetch failure: ``health.FAILURE_THRESHOLD`` such queries open the
    source's breaker, and the next one is refused without asking it."""
    network = Network(VirtualClock(), seed=7)
    site = build_site(
        network, name="s", n_hosts=3, agents=("snmp", "ganglia"),
        policy=policy(),
    )
    gateway, agent = site.gateway, site.agents["ganglia"][0]
    ganglia_url = site.source_urls[-1]
    honest = agent.render_xml
    agent.render_xml = lambda: honest()[: len(honest()) // 2]

    for _ in range(FAILURE_THRESHOLD):
        result = gateway.query(site.source_urls, "SELECT HostName FROM Processor")
        assert [s.url for s in result.statuses if not s.ok] == [ganglia_url]
        network.clock.advance(1.0)
    assert gateway.health.state(ganglia_url) is BreakerState.OPEN

    served = agent.requests_served
    result = gateway.query(site.source_urls, "SELECT HostName FROM Processor")
    (refused,) = [s for s in result.statuses if not s.ok]
    assert refused.url == ganglia_url and refused.cause is Cause.BREAKER
    assert agent.requests_served == served
    assert sorted(r[0] for r in result.rows) == ["s-n00", "s-n01", "s-n02"]


@pytest.mark.parametrize("batched", [False, True], ids=["query", "query_batch"])
def test_half_a_gmond_dump_then_a_whole_one_on_retry_keeps_the_breaker_closed(
    batched,
):
    """Each query reads half a dump, retries and reads a whole one.  The
    failed attempt counts, but the answer resets the streak, also when a
    batch's pin holds every outcome until the batch joins:
    ``health.FAILURE_THRESHOLD`` such queries leave the breaker CLOSED
    and count one success each, exactly as ``Gateway.query`` does."""
    network = Network(VirtualClock(), seed=7)
    site = build_site(
        network, name="s", n_hosts=1, agents=("ganglia",),
        policy=GatewayPolicy(retry_attempts=2),
    )
    gateway, agent = site.gateway, site.agents["ganglia"][0]
    (url,) = site.source_urls
    sql = "SELECT HostName FROM Processor"
    gateway.query(url, sql, mode=QueryMode.REALTIME)  # pool a connection
    honest = agent.render_xml
    cut = []

    def cut_once():
        whole = honest()
        return whole[: len(whole) // 2] if cut and cut.pop() else whole

    agent.render_xml = cut_once
    threshold = FAILURE_THRESHOLD
    for _ in range(threshold):
        network.clock.advance(20.0)  # past the dump cache
        cut.append(True)
        served = agent.requests_served
        if batched:
            (result,) = gateway.query_batch(
                [BatchQuery([url], sql, mode=QueryMode.REALTIME)]
            )
        else:
            result = gateway.query(url, sql, mode=QueryMode.REALTIME)
        assert [s.cause for s in result.statuses] == [Cause.FRESH]
        # The pooled connection's fetch is cut, the retry reconnects and
        # fetches a whole dump.
        assert agent.requests_served - served == 3

    entry = gateway.health.health(url)
    assert entry.state is BreakerState.CLOSED
    assert entry.consecutive_failures == 0
    assert entry.total_failures == threshold
    assert entry.total_successes == 1 + threshold  # the pooling query's one


# ----------------------------------------------------------------------
# The mutation matrix
# ----------------------------------------------------------------------
def _truncate(reply):
    return reply[:2] if isinstance(reply, tuple) else reply[: len(reply) // 2]


def _wrong_type(reply):
    if isinstance(reply, str):
        return reply.encode()
    return reply.decode("latin-1") if isinstance(reply, bytes) else repr(reply)


def _sub(pattern, replacement):
    return lambda reply: re.sub(pattern, replacement, reply, count=1)


#: A number the decoder itself reads, replaced by a word.  Only where
#: there is one: BER carries its types on the wire (a wrong one is the
#: wrong-type case), and SCMS / SQL cells are opaque to their decoders —
#: the GLUE mapping types them, where a non-number is §3.2.3's NULL.
NON_NUMERIC = {
    "ganglia": {
        "uint32-inf": _sub(r'VAL="\d+" TYPE="uint32"', 'VAL="inf" TYPE="uint32"'),
        "reported": _sub(r'REPORTED="\d+"', 'REPORTED="soon"'),
    },
    "nws": {"measured": _sub(r"MEASURED=\S+", "MEASURED=lots")},
    "netlogger": {"date": _sub(r"DATE=\S+", "DATE=yesterday")},
}

CASES = [
    pytest.param(protocol, mutate, id=f"{protocol}-{name}")
    for protocol in REGISTERED
    for name, mutate in {
        "truncate": _truncate,
        "wrong-type": _wrong_type,
        "none": lambda reply: None,
        **NON_NUMERIC.get(protocol, {}),
    }.items()
]


def test_the_matrix_covers_every_registered_driver():
    assert sorted(REGISTERED) == sorted(QUERIES)
    assert len(CASES) == 22


@pytest.mark.parametrize("protocol, mutate", CASES)
def test_mutated_reply_is_a_typed_status_and_the_source_recovers(protocol, mutate):
    network, site = _site(protocol)
    gateway, url, sql = site.gateway, site.source_urls[0], QUERIES[protocol]
    driver = next(d for d in gateway.registry.drivers() if d.protocol == protocol)
    honest = gateway.query(url, sql)
    assert honest.statuses[0].ok and honest.rows
    network.clock.advance(20.0)  # past the driver cache

    armed = _intercept(network, driver.default_port, mutate)
    result = gateway.query(url, sql)  # a raw exception fails the test here
    (status,) = result.statuses
    assert not status.ok and not result.rows
    assert driver.name() in status.error and url in status.error
    assert gateway.health.health(url).consecutive_failures == 1

    armed[0] = False
    network.clock.advance(20.0)
    again = gateway.query(url, sql)
    assert again.statuses[0].ok and len(again.rows) == len(honest.rows)
    assert gateway.health.health(url).consecutive_failures == 0


# ----------------------------------------------------------------------
# The fuzz target: every registered exchange, no Network
# ----------------------------------------------------------------------
TARGETS = [
    (protocol, group)
    for protocol, driver in DRIVERS.items()
    for group in driver.default_mapping().groups()
]
MAX_STEPS = 64


@functools.cache
def _honest_replies():
    """protocol -> replies its agent gave while every mapped group was
    queried once (the raw material of structure-aware mutation)."""
    recorded = {}
    for protocol, driver in DRIVERS.items():
        network, site = _site(protocol)
        seen = recorded[protocol] = []
        _intercept(network, driver.default_port, lambda r, seen=seen: seen.append(r) or r)
        network.clock.advance(30.0)
        for group in driver.default_mapping().groups():
            result = site.gateway.query(site.source_urls[0], f"SELECT * FROM {group}")
            assert result.statuses[0].ok
    return recorded


_JUNK = st.one_of(
    st.none(),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.integers(),
    st.tuples(st.text(max_size=5), st.lists(st.text(max_size=5), max_size=3)),
)


@st.composite
def _mutated(draw, replies):
    """One honest reply: whole, re-typed, cut, or with junk spliced in
    or written over part of it."""
    reply = draw(st.sampled_from(replies))
    how = draw(st.sampled_from(["whole", "retype", "cut", "splice", "overwrite"]))
    if how == "whole":
        return reply
    if how == "retype":
        return _wrong_type(reply)
    if isinstance(reply, tuple):
        if how == "cut":
            return reply[: draw(st.integers(0, len(reply)))]
        at = draw(st.integers(0, len(reply) - 1))
        return reply[:at] + (draw(_JUNK),) + reply[at + 1 :]
    at = draw(st.integers(0, len(reply)))
    if how == "cut":
        return reply[:at]
    junk = draw(st.binary(max_size=8) if isinstance(reply, bytes) else st.text(max_size=8))
    return reply[:at] + junk + reply[at + (len(junk) if how == "overwrite" else 0) :]


@st.composite
def _cases(draw):
    protocol, group = draw(st.sampled_from(TARGETS))
    reply = st.one_of(_JUNK, _mutated(_honest_replies()[protocol]))
    return protocol, group, draw(st.lists(reply, min_size=1, max_size=6))


class _Replies:
    """Stands in for a connection: hands out the generated replies in
    order (the last one for ever after), and counts."""

    def __init__(self, replies):
        self.replies, self.steps, self.session = replies, 0, {}

    def request(self, payload, *, timeout=None):
        self.steps += 1
        assert self.steps <= MAX_STEPS, f"still asking after {MAX_STEPS} replies"
        return self.replies[min(self.steps, len(self.replies)) - 1]


#: A GETNEXT reply naming the same hrStorage row every time it is asked.
STUCK_WALK = wire.SnmpMessage(
    0, "public", wire.TAG_RESPONSE, 1, 0, 0,
    (wire.VarBind(wire.HR_STORAGE_DESCR + (1,), "/"),),
).encode()

settings.register_profile(
    "driver-fuzz", max_examples=400, derandomize=True, deadline=None, database=None
)


@settings(settings.get_profile("driver-fuzz"))
@given(case=_cases())
@example(case=("snmp", "FileSystem", [STUCK_WALK]))
def test_every_exchange_answers_records_or_a_typed_error(case):
    protocol, group, replies = case
    driver = DRIVERS[protocol]
    assert driver.network is None
    url = JdbcUrl.parse(f"jdbc:{protocol}://fuzz-host/x")
    select = parse_select(f"SELECT * FROM {group}")
    try:
        records = driver.converse(url, driver.exchange(url, group, select), _Replies(replies))
        rows = driver._typed(
            url, driver.default_mapping().translate_rows, group, records, STANDARD_SCHEMA
        )
    except SQLException:
        return  # typed; anything else (or MAX_STEPS) fails the test
    width = len(STANDARD_SCHEMA.group(group).fields)
    assert all(len(row) == width for row in rows)
