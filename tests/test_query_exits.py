"""Every way a source's answer can leave ``Gateway.query``, driven end to end.

The behavioural twin of
``tests/test_gma_bad_wires.py::test_each_cause_is_constructed_at_one_call_site``:
that test reads the source and finds each :class:`Cause` built at one
call site; this one runs the deployed gateway, CGSL/FGSL on, into each
of the nine causes and checks what a client and an operator see of it:

* the status's cause;
* the one span that carries it — for a cause that is not ok, failed
  with the cause's value as its status;
* the counters it bumps: its Cause row's ``requests.*`` counters (or
  ``admission.brownout_served`` for BROWNOUT), and no other.

SHED is the one row a local source cannot give.  A gateway that sheds
its own work raises ``OverloadError`` before any source is asked, so a
SHED *status* only reaches a client from a remote site.  A remote site's
share of a query is a source of its own (``gma://<site>``), so its
dispatch stage builds the status and sends it through
``RequestManager.answer``, the exit every local answer takes: the
``remote`` span it sits under fails as ``shed`` and the SHED row's
``requests.*`` counters move.

The side-by-side tests at the end query a local source and a remote
site's source under the same fault and require the same outcome.
"""

import pytest

from repro.core.deadline import Deadline
from repro.core.health import FAILURE_THRESHOLD, BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import Cause, QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site

#: LoadAverage1Min needs a fetch; a host name alone is answered from the
#: SNMP session.
SQL = "SELECT HostName, LoadAverage1Min FROM Processor"
#: Virtual seconds past the query cache and the drivers' response caches.
STALE_AFTER = 20.0
#: Every counter some cause bumps, plus the brownout serve count.
COUNTERS = sorted({name for cause in Cause for name in cause.counters})


def _site(network, name="site-a", seed=1):
    return build_site(
        network, name=name, n_hosts=2, agents=("snmp",), seed=seed,
        policy=GatewayPolicy(security_enabled=True),
    )


def _two_sites(**policy):
    """Sites ``site-a`` and ``site-b`` joined through one directory; the
    queries go to ``site-a``'s gateway."""
    network = Network(VirtualClock(), seed=29)
    network.clock.advance(20.0)
    policy = GatewayPolicy(security_enabled=True, **policy)
    a, b = (
        build_site(network, name=name, n_hosts=2, agents=("snmp",), seed=seed, policy=policy)
        for name, seed in (("site-a", 1), ("site-b", 2))
    )
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    return network, a, b


def _counters(gw):
    out = {f"requests.{name}": gw.request_manager.stats[name] for name in COUNTERS}
    out["admission.brownout_served"] = gw.overload.snapshot()["brownout_served"]
    return out


def _trip(site, url):
    """Take ``url``'s host down and query it until its breaker opens."""
    gw = site.gateway
    site.fail_host(site.host_names()[0])
    site.network.clock.advance(STALE_AFTER)
    for _ in range(FAILURE_THRESHOLD):
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        if gw.health.state(url) is BreakerState.OPEN:
            return
    raise AssertionError(f"{url}: breaker did not open")


# Each case sets a fresh testbed up and returns the gateway, the URL and
# the query whose answer the row is about.
def _fresh(network):
    site = _site(network)
    url = site.source_urls[0]
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.REALTIME)


def _history(network):
    site = _site(network)
    url = site.source_urls[0]
    site.gateway.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.HISTORY)


def _cache(network):
    site = _site(network)
    url = site.source_urls[0]
    site.gateway.query(url, SQL, mode=QueryMode.CACHED_OK)
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.CACHED_OK)


def _stale(network):
    site = _site(network)
    url = site.source_urls[0]
    site.gateway.query(url, SQL, mode=QueryMode.REALTIME)
    _trip(site, url)
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.REALTIME)


def _brownout(network):
    site = _site(network)
    url = site.source_urls[0]
    gw = site.gateway
    gw.query(url, SQL, mode=QueryMode.REALTIME)
    gw.overload.monitor.observe(2, 0)  # no headroom, work queued: BROWNOUT
    return gw, url, lambda: gw.query(url, SQL, mode=QueryMode.REALTIME)


def _breaker(network):
    site = _site(network)
    url = site.source_urls[0]
    _trip(site, url)
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.REALTIME)


def _shed(network):
    a, b = _site(network), _site(network, name="site-b", seed=2)
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    b.gateway.overload.monitor.observe(100, 0)  # site-b sheds batch work
    url = b.source_urls[0]
    return a.gateway, url, lambda: a.gateway.query(
        url, SQL, mode=QueryMode.REALTIME, query_class="batch"
    )


def _deadline_exceeded(network):
    # An upstream hop (a remote producer re-anchoring a wire budget, say)
    # hands down a budget that is already spent.
    site = _site(network)
    url = site.source_urls[0]
    return site.gateway, url, lambda: site.gateway.query(
        url, SQL, mode=QueryMode.REALTIME,
        deadline=Deadline(network.clock, network.clock.now()),
    )


def _error(network):
    site = _site(network)
    url = site.source_urls[0]
    site.fail_host(site.host_names()[0])
    return site.gateway, url, lambda: site.gateway.query(url, SQL, mode=QueryMode.REALTIME)


#: cause -> (testbed, span carrying the status, that span's status,
#: counters bumped by one).
EXITS = {
    Cause.FRESH: (_fresh, "source", "ok", ()),
    Cause.HISTORY: (_history, "history", "ok", ("requests.history_served",)),
    Cause.CACHE: (_cache, "source", "ok", ("requests.cache_served",)),
    Cause.STALE: (_stale, "source", "ok", ("requests.stale_served",)),
    Cause.BROWNOUT: (_brownout, "brownout_serve", "ok", ("admission.brownout_served",)),
    Cause.BREAKER: (_breaker, "source", "breaker", ()),
    Cause.SHED: (_shed, "remote", "shed", ("requests.sheds", "requests.source_failures")),
    Cause.DEADLINE_EXCEEDED: (
        _deadline_exceeded, "source", "deadline_exceeded",
        ("requests.deadline_exceeded", "requests.source_failures"),
    ),
    Cause.ERROR: (_error, "source", "error", ("requests.source_failures",)),
}


def test_the_table_is_the_cause_table():
    """Every row says what its Cause row says: a cause that is not ok
    fails its span with its own value, and the counters are the row's
    ``requests.*`` counters (BROWNOUT's is the admission count)."""
    assert list(EXITS) == list(Cause)
    for cause, (_, _, span_status, bumped) in EXITS.items():
        assert span_status == ("ok" if cause.ok else cause.value), cause
        counters = tuple(f"requests.{name}" for name in cause.counters)
        if cause is Cause.BROWNOUT:
            counters = ("admission.brownout_served",)
        assert bumped == counters, cause


@pytest.mark.parametrize("cause", list(EXITS), ids=[c.value for c in EXITS])
def test_each_cause_leaves_gateway_query_through_its_exit(cause):
    testbed, span_name, span_status, bumped = EXITS[cause]
    network = Network(VirtualClock(), seed=29)
    network.clock.advance(20.0)
    gw, url, final = testbed(network)
    network.clock.advance(1.0)
    before = _counters(gw)

    result = final()

    (status,) = result.statuses
    assert status.url == url and status.cause is cause
    carriers = [
        span for span in gw.tracer.get(result.trace_id).spans
        if span.name == span_name and span.attrs.get("url", url) == url
    ]
    assert [span.status for span in carriers] == [span_status]
    after = _counters(gw)
    assert {name: after[name] - before[name] for name in after if after[name] != before[name]} == {
        name: 1 for name in bumped
    }


def test_a_tripping_remote_failure_is_an_error_like_a_local_one():
    """A dead source and a dead remote gateway, queried side by side,
    leave the same way every round: ``error`` (counted in
    ``source_failures``) while the round trip is paid — the round that
    trips the breaker included — and ``breaker`` (not counted) once the
    open breaker short-circuits the query.  The remote exit used to read
    the breaker *after* the failed round trip had tripped it."""
    network = Network(VirtualClock(), seed=29)
    network.clock.advance(20.0)
    # A backoff longer than the four rounds, so round 3 is short-circuited.
    policy = GatewayPolicy(security_enabled=True, breaker_base_backoff=60.0)
    a, b = (
        build_site(network, name=name, n_hosts=2, agents=("snmp",), seed=seed, policy=policy)
        for name, seed in (("site-a", 1), ("site-b", 2))
    )
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    gw, local, remote = a.gateway, a.source_urls[0], b.source_urls[0]
    a.fail_host(a.host_names()[0])
    network.set_host_up(b.gateway.host, False)

    rounds = {local: [], remote: []}
    for _ in range(FAILURE_THRESHOLD + 1):
        network.clock.advance(1.0)
        for url in (local, remote):
            before = _counters(gw)
            (status,) = gw.query(url, SQL, mode=QueryMode.REALTIME).statuses
            after = _counters(gw)
            moved = {k: after[k] - before[k] for k in after if after[k] != before[k]}
            rounds[url].append((status.cause, moved))

    assert rounds[remote] == rounds[local]
    failed = (Cause.ERROR, {"requests.source_failures": 1})
    assert rounds[local] == [failed] * FAILURE_THRESHOLD + [(Cause.BREAKER, {})]
    assert gw.health.state(local) is BreakerState.OPEN
    assert gw.health.state("gma://site-b") is BreakerState.OPEN


def test_a_remote_cache_or_stale_answer_moves_the_counters_a_local_one_does():
    """A local source and a remote site's source, read side by side: a
    CACHED_OK re-read answers both CACHE and moves ``cache_served`` by
    one, and once both breakers are OPEN a REALTIME read answers both
    STALE and moves ``stale_served`` by one.  The Global layer used to
    build its own CACHE and STALE answers without the request manager's
    exit, so the remote reads moved no ``requests.*`` counter."""
    network = Network(VirtualClock(), seed=29)
    network.clock.advance(20.0)
    policy = GatewayPolicy(security_enabled=True, breaker_base_backoff=60.0)
    a, b = (
        build_site(network, name=name, n_hosts=2, agents=("snmp",), seed=seed, policy=policy)
        for name, seed in (("site-a", 1), ("site-b", 2))
    )
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    gw, local, remote = a.gateway, a.source_urls[0], b.source_urls[0]

    def read(url, mode):
        before = _counters(gw)
        (status,) = gw.query(url, SQL, mode=mode).statuses
        after = _counters(gw)
        return status.cause, {k: after[k] - before[k] for k in after if after[k] != before[k]}

    for url in (local, remote):
        assert read(url, QueryMode.CACHED_OK) == (Cause.FRESH, {})
    network.clock.advance(1.0)
    for url in (local, remote):
        assert read(url, QueryMode.CACHED_OK) == (Cause.CACHE, {"requests.cache_served": 1})

    a.fail_host(a.host_names()[0])
    network.set_host_up(b.gateway.host, False)
    network.clock.advance(policy.query_cache_ttl + STALE_AFTER)
    for _ in range(FAILURE_THRESHOLD):
        for url in (local, remote):
            assert gw.query(url, SQL, mode=QueryMode.REALTIME).statuses[0].cause is Cause.ERROR
    assert gw.health.state(local) is BreakerState.OPEN
    assert gw.health.state("gma://site-b") is BreakerState.OPEN
    for url in (local, remote):
        assert read(url, QueryMode.REALTIME) == (Cause.STALE, {"requests.stale_served": 1})


def test_a_history_read_never_takes_a_remote_realtime_answer_from_the_cache():
    """The same text in REALTIME, then in HISTORY half a second later: the
    local and the remote HISTORY answers both come from history, and
    agree.  The remote-answer cache was keyed without the mode, so the
    remote HISTORY read answered ``cache`` with the realtime relation."""
    network, a, b = _two_sites()
    gw, urls = a.gateway, (a.source_urls[0], b.source_urls[0])
    for _ in range(3):
        for url in urls:
            gw.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        network.clock.advance(gw.policy.query_cache_ttl + 1)
    sql = "SELECT HostName, COUNT(*) FROM Processor GROUP BY HostName"
    for url in urls:
        assert gw.query(url, sql, mode=QueryMode.REALTIME).rows[0][1] == 1
    network.clock.advance(0.5)
    local, remote = (gw.query(url, sql, mode=QueryMode.HISTORY) for url in urls)
    assert local.statuses[0].cause is Cause.HISTORY
    # HISTORY crosses the wire spelled as ``fresh``; it is never ``cache``.
    assert remote.statuses[0].cause is Cause.FRESH
    assert [row[1] for row in local.rows] == [row[1] for row in remote.rows] == [3]


def test_a_partly_failed_remote_answer_is_not_cached():
    """A pair of sources whose second host is down, at each site: the
    CACHED_OK re-read a second later says ``error`` for the dead host at
    both.  A partly failed remote answer used to be cached whole, so the
    remote re-read reported the dead host as a ``cache`` hit."""
    network, a, b = _two_sites()
    gw = a.gateway
    a.fail_host(a.host_names()[1])
    b.fail_host(b.host_names()[1])
    causes = lambda site: [
        s.cause for s in gw.query(site.source_urls, SQL, mode=QueryMode.CACHED_OK).statuses
    ]
    assert causes(a) == causes(b) == [Cause.FRESH, Cause.ERROR]
    network.clock.advance(1.0)
    assert causes(a) == causes(b) == [Cause.CACHE, Cause.ERROR]


def test_a_joiner_of_a_remote_shed_is_an_error_like_a_local_joiner():
    """Two concurrent batch queries to a shedding site share one round
    trip: the owner answers ``shed``, the joiner ``error`` with
    ``coalesced`` (DESIGN §9), so ``requests.sheds`` counts the one
    refusal once.  The joiner used to answer ``shed`` uncoalesced."""
    network, a, b = _two_sites()
    gw = a.gateway
    b.gateway.overload.monitor.observe(100, 0)  # site-b sheds batch work
    before = _counters(gw)
    ask = lambda: gw.query(b.source_urls[0], SQL, mode=QueryMode.REALTIME, query_class="batch")
    owner, joiner = (o.value.statuses for o in gw.dispatcher.run([ask, ask]))
    assert [(s.cause, s.coalesced) for s in owner + joiner] == [
        (Cause.SHED, False), (Cause.ERROR, True)
    ]
    after = _counters(gw)
    assert after["requests.sheds"] - before["requests.sheds"] == 1
    assert after["requests.source_failures"] - before["requests.source_failures"] == 2


def test_no_hedge_fires_under_pressure_for_a_remote_source_as_for_a_local_one():
    """A slowed local source and a slowed remote site, both with enough
    latency samples to arm a hedge, queried under BROWNOUT: neither
    fires one (hedges are suppressed outside NORMAL).  The remote flight
    used to be hedged whatever the pressure."""
    network, a, b = _two_sites()
    gw, local, remote = a.gateway, a.source_urls[0], b.source_urls[0]
    for _ in range(10):
        for url in (local, remote):
            gw.query(url, SQL, mode=QueryMode.REALTIME)
        network.clock.advance(gw.policy.query_cache_ttl + 1)
    assert gw.dispatcher.hedge_delay(local) is not None
    assert gw.dispatcher.hedge_delay(f"gma://site-b/{remote}") is not None
    network.set_service_time(a.host_names()[0], 1.0)
    network.set_service_time(b.gateway.host, 1.0)
    gw.overload.monitor.observe(2, 0)  # no headroom, work queued: BROWNOUT
    for url in (local, remote):
        fired = gw.dispatcher.stats["hedges_fired"]
        result = gw.query(url, SQL, mode=QueryMode.REALTIME, query_class="critical")
        assert [s.cause for s in result.statuses] == [Cause.FRESH]
        assert gw.dispatcher.stats["hedges_fired"] == fired, url


def test_remote_short_circuits_and_joins_move_the_local_counters():
    """Two concurrent reads of a local source and of a remote site's
    source each join one flight, and once both breakers are OPEN a read
    of each is short-circuited: ``requests.singleflight_joins`` and
    ``requests.breaker_short_circuits`` move alike.  The remote ones used
    to move only the Global layer's own twins of these counters."""
    network, a, b = _two_sites(breaker_base_backoff=60.0)
    gw, local, remote = a.gateway, a.source_urls[0], b.source_urls[0]
    stats = gw.request_manager.stats
    for url in (local, remote):
        joins = stats["singleflight_joins"]
        ask = lambda: gw.query(url, SQL, mode=QueryMode.REALTIME)
        gw.dispatcher.run([ask, ask])
        assert stats["singleflight_joins"] - joins == 1, url
    a.fail_host(a.host_names()[0])
    network.set_host_up(b.gateway.host, False)
    network.clock.advance(gw.policy.query_cache_ttl + STALE_AFTER)
    for _ in range(FAILURE_THRESHOLD):
        for url in (local, remote):
            gw.query(url, SQL, mode=QueryMode.REALTIME)
    for url in (local, remote):
        short_circuits = stats["breaker_short_circuits"]
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert stats["breaker_short_circuits"] - short_circuits == 1, url


def test_a_history_and_a_realtime_share_of_one_text_fly_apart():
    """Sent at once to one remote URL, a REALTIME and a HISTORY share of
    one text are two questions to the owner: the HISTORY one answers
    the owner's recorded rows (three ``SELECT *`` fetches there) and
    joins no flight.  The remote flight key used to lack the mode, so
    the HISTORY share joined the REALTIME flight and answered its one
    live row as ``fresh`` + ``coalesced``."""
    network = Network(VirtualClock(), seed=29)
    network.clock.advance(20.0)
    policy = GatewayPolicy(security_enabled=True)
    a, b = (
        build_site(network, name=name, n_hosts=2, agents=("snmp",), seed=seed, policy=policy)
        for name, seed in (("site-a", 1), ("site-b", 2))
    )
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    url = b.source_urls[0]
    for _ in range(3):
        network.clock.advance(1.0)
        b.gateway.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
    network.clock.advance(1.0)
    sql = "SELECT HostName, COUNT(*) FROM Processor GROUP BY HostName"
    realtime, history = (
        outcome.value
        for outcome in a.gateway.dispatcher.run([
            lambda: a.gateway.query(url, sql, mode=QueryMode.REALTIME),
            lambda: a.gateway.query(url, sql, mode=QueryMode.HISTORY),
        ])
    )
    assert realtime.rows == [["site-b-n00", 1]]
    assert history.rows == [["site-b-n00", 3]]
    assert [(s.cause, s.coalesced) for s in history.statuses] == [(Cause.FRESH, False)]
