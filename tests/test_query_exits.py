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

SHED is the one row that does not start at the request manager.
A gateway that sheds its own work raises ``OverloadError`` before any
source is asked, so a SHED *status* only reaches a client from a remote
site.  The gateway's remote exit builds it and sends it through
``RequestManager.answer``, the exit every local answer takes: the
``remote`` span it sits under fails as ``shed`` and the SHED row's
``requests.*`` counters move.
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
