"""A bad message on a gateway-to-gateway wire costs one request (at a
listener) or one remote site (at a client), never a raw traceback.

Four views of the one envelope in :mod:`repro.gma.records`:

* the 19-case matrix of hostile-but-plausible messages — ten requests
  at the hub's and the producer's listeners, nine replies at their
  clients — under the paper's policy and under ``production()``;
* one Hypothesis target that feeds every op registered in the
  producer's, the hub's and the directory's tables generated payloads
  with no ``Network.request`` in between;
* ``SourceStatus``'s wire form round-trips every cause's flags, refuses
  ragged or wrong-typed rows and flags no cause spells, and each cause is
  constructed at one call site under ``src/repro``;
* honest traffic is byte-identical: ``python -m tests.test_gma_bad_wires``
  (repo root, ``PYTHONPATH`` on the reference commit's ``src``) prints
  the golden ``tests/golden_gma_wires.json`` is compared against.  One
  reply was re-recorded since: the hub's ``stats`` after a resume now
  counts the flushed batches in ``pushes`` / ``tuples`` (2, not 0).
"""

import ast
import itertools
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acil import ClientResponse
from repro.core.deadline import Deadline
from repro.core.errors import OverloadError
from repro.core.plans import PlanCache
from repro.core.policy import GatewayPolicy, production
import repro
from repro.core.request_manager import Cause, QueryMode, SourceStatus
from repro.core.security import Principal
from repro.glue.schema import STANDARD_SCHEMA
from repro.gma.directory import DIRECTORY_PORT, DirectoryClient, GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.gma.producer import PRODUCER_PORT
from repro.gma.records import ProducerRecord
from repro.gma.streams import STREAM_PORT, StreamConsumer, StreamHub
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import NetworkError
from repro.simnet.network import Address, Network
from repro.testbed import build_site

SQL = "SELECT HostName FROM Host"
CQ = "SELECT HostName FROM Processor"
POLICIES = {
    # Streaming on in both: without it a gateway has no hub to be hostile to.
    "default": lambda **kw: GatewayPolicy(streaming_enabled=True, **kw),
    "all-planes": production,
}
policies = pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES)


def _grid(policy, seed=41):
    """Two GMA-joined sites and a bare consumer host; ``a`` asks, ``b`` owns."""
    network = Network(VirtualClock(), seed=seed)
    a = build_site(network, name="site-a", n_hosts=2, agents=("snmp",), seed=1, policy=policy())
    b = build_site(network, name="site-b", n_hosts=2, agents=("snmp",), seed=2, policy=policy())
    network.clock.advance(20.0)
    directory = GMADirectory(network)
    GlobalLayer(a.gateway, directory)
    GlobalLayer(b.gateway, directory)
    network.add_host("viewer", site="elsewhere")
    return network, directory, a, b


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


def _refusal(reply):
    return (
        type(reply) is dict
        and reply.get("ok") is False
        and type(reply.get("error")) is str
        and "shed" not in reply
    )


# ----------------------------------------------------------------------
# The matrix, listener half: ten hostile requests
# ----------------------------------------------------------------------
REGISTER = {"op": "register", "sql": CQ, "host": "viewer", "port": 8501}
HUB_CASES = {
    "renew-cq-text": {"op": "renew", "cq": "abc"},
    "pause-cq-none": {"op": "pause", "cq": None},
    "register-port-text": {**REGISTER, "port": "http"},
    "register-lease-text": {**REGISTER, "lease": "long"},
    "register-max_buffer-text": {**REGISTER, "max_buffer": "big"},
    "register-budget-text": {**REGISTER, "deadline_budget": "plenty"},
}
QUERY = {"op": "query", "sql": SQL, "mode": "realtime", "from_site": "site-a"}
PRODUCER_CASES = {
    "query-no-sql": {"op": "query", "mode": "realtime"},
    "query-mode-nope": {**QUERY, "mode": "nope"},
    "query-budget-text": {**QUERY, "deadline_budget": "plenty"},
    "query-urls-int": {**QUERY, "urls": 5},
}


@policies
@pytest.mark.parametrize("request_", HUB_CASES.values(), ids=HUB_CASES)
def test_hostile_control_request_is_refused_and_allocates_nothing(policy, request_):
    network, _, _, b = _grid(policy)
    hub = b.gateway.streams
    traces = len(b.gateway.tracer.traces())
    reply = network.request("viewer", hub.address, request_)  # a raw exception fails here
    assert _refusal(reply), reply
    # Parse-before-allocate: no id drawn, nothing counted, no trace left.
    assert hub.snapshot()["registered"] == 0 and hub.subscription_count() == 0
    assert len(b.gateway.tracer.traces()) == traces
    consumer = StreamConsumer(network, "viewer")
    assert consumer.register(hub.address, CQ) == 1
    assert hub.snapshot()["registered"] == 1
    assert [t.name for t in b.gateway.tracer.traces()[traces:]] == ["subscribe"]


@policies
@pytest.mark.parametrize("request_", PRODUCER_CASES.values(), ids=PRODUCER_CASES)
def test_hostile_query_request_is_refused_and_the_next_one_answers(policy, request_):
    network, _, a, b = _grid(policy)
    producer = Address(b.gateway.host, PRODUCER_PORT)
    reply = network.request(a.gateway.host, producer, request_)
    assert _refusal(reply), reply
    honest = network.request(a.gateway.host, producer, QUERY)
    assert honest["ok"] and sorted(r[0] for r in honest["rows"]) == b.host_names()


# ----------------------------------------------------------------------
# The matrix, client half: nine hostile replies
# ----------------------------------------------------------------------
def _edit(**changes):
    return lambda reply: {**reply, **changes}


def _bad_status_rows(reply):
    first, *rest = reply["status_rows"]
    return {**reply, "status_rows": [[first[0], first[1], "many", *first[3:]], *rest]}


def _unspelled_status_flags(reply):
    """Well-typed, but ``ok`` and ``shed`` at once: no cause spells that."""
    first, *rest = reply["status_rows"]
    return {**reply, "status_rows": [[*first[:5], True, first[6]], *rest]}


HOSTILE_SHED = {
    "ok": False, "shed": True, "retry_after": "soon", "query_class": "batch",
    "error": "busy",
}
#: name -> (port whose replies are mutated, mutation or None = host down,
#: whether the remote URL's status is a shed).
QUERY_CLIENT_CASES = {
    "directory-down": (DIRECTORY_PORT, None, False),
    "directory-record-unknown-key": (
        DIRECTORY_PORT,
        lambda reply: (reply[0], *([{**r, "owner": "eve"} for r in rs] for rs in reply[1:])),
        False,
    ),
    "reply-status_rows-int": (PRODUCER_PORT, _edit(status_rows=[5]), False),
    "reply-rows-int": (PRODUCER_PORT, _edit(rows=7), False),
    "reply-status-rows-text": (PRODUCER_PORT, _bad_status_rows, False),
    "reply-status-flags-unspelled": (PRODUCER_PORT, _unspelled_status_flags, False),
    "reply-shed-retry_after-text": (PRODUCER_PORT, lambda reply: HOSTILE_SHED, True),
}


@policies
@pytest.mark.parametrize(
    "port, mutate, shed", QUERY_CLIENT_CASES.values(), ids=QUERY_CLIENT_CASES
)
def test_hostile_reply_costs_the_remote_site_and_keeps_the_local_rows(
    policy, port, mutate, shed
):
    network, directory, a, b = _grid(policy)
    local, remote = a.source_urls[0], b.source_urls[0]
    if mutate is None:
        network.set_host_up(directory.address.host, False)
    else:
        armed = _intercept(network, port, mutate)

    result = a.gateway.query([local, remote], SQL, mode=QueryMode.REALTIME)

    assert [r[0] for r in result.rows] == a.host_names()[:1]
    by_url = {s.url: s for s in result.statuses}
    assert by_url[local].ok and not by_url[remote].ok and by_url[remote].error
    assert by_url[remote].shed == shed
    assert by_url[remote].cause is (Cause.SHED if shed else Cause.ERROR)
    # A shed is the peer protecting itself; everything else is its failure.
    assert a.gateway.health.health("gma://site-b").total_failures == (0 if shed else 1)

    if mutate is None:
        network.set_host_up(directory.address.host, True)
    else:
        armed[0] = False
    network.clock.advance(60.0)  # past the caches and the gma://site-b backoff
    again = a.gateway.query([local, remote], SQL, mode=QueryMode.REALTIME)
    assert all(s.ok for s in again.statuses) and len(again.rows) == 2


REGISTER_CLIENT_CASES = {
    "register-reply-no-cq": (lambda reply: {"ok": True}, NetworkError),
    "register-reply-cq-text": (_edit(cq="x"), NetworkError),
    "register-reply-shed-retry_after-text": (lambda reply: HOSTILE_SHED, OverloadError),
}


@policies
@pytest.mark.parametrize("mutate, error", REGISTER_CLIENT_CASES.values(), ids=REGISTER_CLIENT_CASES)
def test_hostile_register_reply_is_the_documented_error(policy, mutate, error):
    network, _, _, b = _grid(policy)
    hub = b.gateway.streams
    consumer = StreamConsumer(network, "viewer")
    armed = _intercept(network, STREAM_PORT, mutate)
    with pytest.raises(error) as raised:
        consumer.register(hub.address, CQ)
    if error is OverloadError:
        assert raised.value.retry_after == 0.0 and consumer.stats["shed"] == 1
    assert not consumer._regs and consumer._renew_timer is None
    armed[0] = False
    assert consumer.register(hub.address, CQ) > 0


def test_the_matrix_has_nineteen_cases():
    """The id is from when it had nineteen; the unspelled-status-flags
    reply was added since."""
    assert len(HUB_CASES) + len(PRODUCER_CASES) == 10
    assert len(QUERY_CLIENT_CASES) + len(REGISTER_CLIENT_CASES) == 10


def test_hostile_reregistration_reply_is_a_renewal_failure_not_a_timer_crash():
    """A lapsed lease is recovered from a clock timer: a hub that answers
    the re-registration out of shape has nobody to raise to."""
    network, _, _, b = _grid(POLICIES["default"])
    hub = b.gateway.streams
    consumer = StreamConsumer(network, "viewer")
    cq = consumer.register(hub.address, CQ, lease=10.0)
    hub._subs.clear()  # the hub forgot: the next renewal is answered "missing"
    armed = _intercept(
        network, STREAM_PORT,
        lambda reply: {**reply, "cq": "x"} if reply.get("ok") else reply,
    )
    network.clock.advance(6.0)  # one renew period; a raise would surface here
    assert consumer.stats["renewal_failures"] == 1 and consumer.stats["reregisters"] == 0
    armed[0] = False
    network.clock.advance(5.0)
    assert consumer.stats["reregisters"] == 1 and consumer._regs[0].cq_id != cq


def test_a_secured_gateway_asks_the_http_channel_for_a_session_too():
    from urllib.parse import quote

    from repro.web.servlet import GatewayServlet, http_get

    network = Network(VirtualClock(), seed=7)
    site = build_site(network, name="s", n_hosts=1, agents=("snmp",), policy=production())
    servlet = GatewayServlet(site.gateway)
    target = f"/query?url={quote(site.source_urls[0])}&sql={quote(SQL)}"
    code, body = http_get(network, site.gateway.host, servlet.address, target)
    assert code != 200 and "SessionError" in body and "session token" in body
    token = site.gateway.login(Principal("alice")).token
    code, body = http_get(
        network, site.gateway.host, servlet.address, f"{target}&session={token}"
    )
    assert code == 200 and body.splitlines()[:2] == ["HostName", "s-n00"]


# ----------------------------------------------------------------------
# SourceStatus: the one spelling of an outcome
# ----------------------------------------------------------------------
STATUS = SourceStatus("jdbc:snmp://h/x", Cause.CACHE, rows=3, coalesced=True)
ROW = ["jdbc:snmp://h/x", True, 3, True, False, False, ""]
#: cause -> (ok, from_cache, degraded, shed, the cause the wire reads back).
CAUSES = {
    "fresh": (True, False, False, False, "fresh"),
    "history": (True, False, False, False, "fresh"),
    "cache": (True, True, False, False, "cache"),
    "stale": (True, True, True, False, "stale"),
    "brownout": (True, True, True, False, "stale"),
    "breaker": (False, False, True, False, "breaker"),
    "shed": (False, False, False, True, "shed"),
    "deadline_exceeded": (False, False, False, False, "error"),
    "error": (False, False, False, False, "error"),
}
#: (ok, from_cache, degraded, shed) combinations no cause spells.
UNSPELLED = sorted(
    set(itertools.product((True, False), repeat=4)) - {row[:4] for row in CAUSES.values()}
)


def test_status_wire_form_round_trips_all_but_the_hop_local_flag():
    names = [f.name for f in fields(SourceStatus)]
    assert names == ["url", "cause", "rows", "coalesced", "error"]
    assert STATUS.to_wire() == ROW
    back = SourceStatus.from_wire(*STATUS.to_wire())
    assert back == SourceStatus("jdbc:snmp://h/x", Cause.CACHE, rows=3)
    assert back.to_wire() == STATUS.to_wire()
    # ... and the client channel's dict is the eight keys clients have
    # always read, in their order, then the cause.
    (as_dict,) = ClientResponse.from_result(
        type("R", (), {"columns": [], "dicts": lambda self: [], "statuses": [STATUS],
                       "elapsed": 0.0, "mode": QueryMode.REALTIME})()
    ).statuses
    assert as_dict == {
        "url": "jdbc:snmp://h/x", "ok": True, "rows": 3, "from_cache": True,
        "degraded": False, "coalesced": True, "shed": False, "error": "", "cause": "cache",
    }
    assert list(as_dict) == [
        "url", "ok", "rows", "from_cache", "degraded", "coalesced", "shed", "error", "cause",
    ]


@pytest.mark.parametrize("coalesced", [False, True])
@pytest.mark.parametrize("cause", CAUSES)
def test_each_cause_derives_its_flags_and_crosses_the_wire(cause, coalesced):
    ok, from_cache, degraded, shed, on_wire = CAUSES[cause]
    status = SourceStatus("u", Cause(cause), rows=2, coalesced=coalesced, error="e")
    flags = (ok, from_cache, degraded, shed)
    assert (status.ok, status.from_cache, status.degraded, status.shed) == flags
    with pytest.raises(AttributeError):
        status.ok = not ok  # derived, never set
    assert status.to_wire() == ["u", ok, 2, from_cache, degraded, shed, "e"]
    back = SourceStatus.from_wire(*status.to_wire())
    assert (back.ok, back.from_cache, back.degraded, back.shed) == flags
    assert back.cause.value == on_wire and back.coalesced is False
    assert (back.url, back.rows, back.error) == ("u", 2, "e")


@pytest.mark.parametrize(
    "row",
    [
        ROW[:-1],
        ROW + [None],
        ["u", 1, 0, False, False, False, ""],
        ["u", True, "many", False, False, False, ""],
        ["u", True, True, False, False, False, ""],
        ["u", True, 0, False, False, False, None],
        [5, True, 0, False, False, False, ""],
        ["u", True, 0, False, "no", False, ""],
        *(["u", ok, 0, cache, degraded, shed, ""] for ok, cache, degraded, shed in UNSPELLED),
    ],
)
def test_ragged_and_wrong_typed_status_rows_are_refused(row):
    with pytest.raises(ValueError):
        SourceStatus.from_wire(*row)


class _Constructions(ast.NodeVisitor):
    """Every ``SourceStatus(...)`` call in a module (and ``cls(...)``
    inside the class), with the scope it sits in and its cause argument."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "SourceStatus" or (name == "cls" and self.scope[:1] == ["SourceStatus"]):
            cause = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "cause"), None
            )
            self.found.append((".".join(self.scope), cause))
        self.generic_visit(node)


def test_each_cause_is_constructed_at_one_call_site():
    """Every status built under ``src/repro`` names its cause literally,
    each cause at exactly one call site; the one construction from a
    computed cause is ``from_wire`` rebuilding what a peer sent."""
    root = Path(repro.__file__).parent
    named, computed = {}, []
    for path in sorted(root.rglob("*.py")):
        visitor = _Constructions()
        visitor.visit(ast.parse(path.read_text()))
        for scope, cause in visitor.found:
            site = f"{path.relative_to(root)}:{scope}"
            if isinstance(cause, ast.Attribute) and getattr(cause.value, "id", "") == "Cause":
                named.setdefault(cause.attr, []).append(site)
            else:
                computed.append(site)
    assert {c.name: 1 for c in Cause} == {name: len(sites) for name, sites in named.items()}
    assert computed == ["core/request_manager.py:SourceStatus.from_wire"]


# ----------------------------------------------------------------------
# The fuzz target: every registered op, no Network.request
# ----------------------------------------------------------------------
#: wire -> op -> an honest request (the raw material of mutation).  Kept
#: equal to the listeners' own tables by the first assertion of the test.
HONEST = {
    "hub": {
        "register": {**REGISTER, "flavour": "latest", "lease": 30.0, "watermark": 0.0,
                     "max_buffer": 4, "overflow": "pause", "query_class": "batch",
                     "deadline_budget": 3.0, "trace_ctx": {"trace": "q1", "span": 2}},
        "renew": {"op": "renew", "cq": 1, "lease": 30.0},
        "deregister": {"op": "deregister", "cq": 1},
        "pause": {"op": "pause", "cq": 1},
        "resume": {"op": "resume", "cq": 1},
        "stats": {"op": "stats"},
    },
    "producer": {
        "query": {**QUERY, "mode": "cached_ok", "urls": None, "max_age": 5.0,
                  "query_class": "batch", "deadline_budget": 3.0,
                  "trace_ctx": {"trace": "q1", "span": 2}},
        "groups": {"op": "groups"},
        "sources": {"op": "sources"},
    },
    "directory": {
        "register_producer": ("register_producer", {
            "site": "site-z", "gateway_host": "z-gw", "port": 8300,
            "groups": ("Host",), "registered_at": 1.0}),
        "unregister_producer": ("unregister_producer", "site-z@z-gw:8300"),
        "lookup_site": ("lookup_site", "site-b"),
        "list_producers": ("list_producers",),
    },
}

_JUNK = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
        st.binary(max_size=4), st.just(10**400),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def _hostile(draw, honest):
    """One honest request: whole, a field re-typed / dropped / invented,
    or nothing like it at all."""
    how = draw(st.sampled_from(["whole", "retype", "drop", "invent", "junk"]))
    if how == "junk":
        return draw(_JUNK)
    if how == "whole":
        return honest
    if isinstance(honest, tuple):
        at = draw(st.integers(0, len(honest) - 1))
        if how == "drop":
            return honest[:at] + honest[at + 1 :]
        if how == "invent":
            return honest + (draw(_JUNK),)
        arg = honest[at]
        if isinstance(arg, dict) and draw(st.booleans()):
            arg = {**arg, draw(st.sampled_from(sorted(arg))): draw(_JUNK)}
        else:
            arg = draw(_JUNK)
        return honest[:at] + (arg,) + honest[at + 1 :]
    key = draw(st.sampled_from(sorted(honest)))
    if how == "drop":
        return {k: v for k, v in honest.items() if k != key}
    if how == "invent":
        return {**honest, draw(st.text(max_size=6)): draw(_JUNK)}
    return {**honest, key: draw(_JUNK)}


@st.composite
def _cases(draw):
    wire = draw(st.sampled_from(sorted(HONEST)))
    op = draw(st.sampled_from(sorted(HONEST[wire])))
    return wire, draw(st.lists(_hostile(HONEST[wire][op]), min_size=1, max_size=4))


SRC = Address("viewer", 0)
_PRODUCER = []


def _producer():
    """The one listener that needs a gateway behind it, built once: it
    keeps no state of its own between requests."""
    if not _PRODUCER:
        _, _, _, b = _grid(POLICIES["all-planes"])
        _PRODUCER.append(b.gateway.global_layer.producer)
    return _PRODUCER[0]


def _producer_probe(producer):
    answered = producer._handle(HONEST["producer"]["query"], SRC)
    return (
        answered["ok"], answered["columns"], answered["status_keys"],
        producer._handle({"op": "sources"}, SRC), producer._handle({"op": "groups"}, SRC),
    )


settings.register_profile(
    "wire-fuzz", max_examples=400, derandomize=True, deadline=None, database=None
)


@settings(settings.get_profile("wire-fuzz"))
@given(case=_cases())
def test_every_registered_op_answers_in_shape_and_keeps_serving(case):
    wire, payloads = case
    network = Network(VirtualClock(), seed=0)
    network.add_host("viewer", site="elsewhere")
    network.add_host("hub-host", site="t")
    if wire == "hub":
        hub = StreamHub(
            network, "hub-host", plans=PlanCache(STANDARD_SCHEMA), schema=STANDARD_SCHEMA,
            policy=production(), tracer=Tracer(network.clock),
        )
        handle, ops = hub._handle_control, hub._ops
        state = lambda: (hub.subscription_count(), hub.stats["registered"])
    elif wire == "directory":
        directory = GMADirectory(network)
        handle, ops, state = directory._handle, directory._ops, directory.producers
    else:
        producer = _producer()
        handle, ops, state = producer._handle, producer._ops, lambda: None
        network, fresh = producer.gateway.network, _producer_probe(producer)
    assert sorted(ops) == sorted(HONEST[wire])  # by registration, not by list

    accepted = 0
    for payload in payloads:
        before, started = state(), network.clock.now()
        reply = handle(payload, SRC)  # a raw exception fails the test here
        assert network.clock.now() - started <= 30.0  # never past one hop's budget
        if wire == "directory":
            assert type(reply) is tuple and reply[0] in ("ok", "missing", "error")
            refused = reply[0] != "ok"
        else:
            assert type(reply) is dict and type(reply["ok"]) is bool
            assert reply["ok"] or type(reply["error"]) is str
            refused = not reply["ok"]
            accepted += "cq" in reply
        if refused:
            assert state() == before  # a refusal changes nothing

    # The next honest request is answered as by a fresh listener.
    if wire == "hub":
        assert handle(HONEST["hub"]["register"], SRC) == {
            "ok": True, "cq": accepted + 1, "group": "Processor", "replayed": 0,
        }
        assert hub.stats["registered"] == accepted + 1
    elif wire == "directory":
        assert all(ProducerRecord.from_wire(r) for r in handle(("list_producers",), SRC)[1])
        record = HONEST["directory"]["register_producer"][1]
        assert handle(("register_producer", record), SRC) == ("ok",)
        assert handle(("lookup_site", "site-z"), SRC) == ("ok", [record])
    else:
        assert _producer_probe(producer) == fresh


# ----------------------------------------------------------------------
# Honest traffic is byte-identical
# ----------------------------------------------------------------------
GOLDEN = Path(__file__).with_name("golden_gma_wires.json")
PORTS = {DIRECTORY_PORT: "directory", PRODUCER_PORT: "gma", STREAM_PORT: "hub"}


def honest_conversation():
    """``repr`` of every request and reply of a scripted honest session
    on the three wires, each op (and the shed and refusal forms) once."""
    network, directory, a, b = _grid(
        lambda: production(stream_max_subscriptions=1, security_enabled=False)
    )
    seen = []
    honest = network.request

    def request(src, dst, payload, **kwargs):
        reply = honest(src, dst, payload, **kwargs)
        if dst.port in PORTS:
            seen.append([PORTS[dst.port], repr(payload), repr(reply)])
        return reply

    network.request = request
    gla, hub = a.gateway.global_layer, b.gateway.streams
    gla.register()
    gla.known_sites()
    a.gateway.query(
        [a.source_urls[0], b.source_urls[0]], SQL, mode=QueryMode.REALTIME,
        timeout=30.0, query_class="batch",
    )
    producer = Address(b.gateway.host, PRODUCER_PORT)
    for op in ("groups", "sources", "warp"):
        network.request(a.gateway.host, producer, {"op": op})
    consumer = StreamConsumer(network, "viewer", tracer=a.gateway.tracer)
    with a.gateway.tracer.start_trace("viewer"):
        cq = consumer.register(
            hub.address, CQ, flavour="latest", lease=40.0, max_buffer=8,
            overflow="pause", query_class="batch",
            deadline=Deadline.after(network.clock, 10.0),
        )
    with pytest.raises(OverloadError):
        consumer.register(hub.address, CQ)  # table full: the shed form
    consumer.pause(hub.address, cq)
    b.gateway.query(b.source_urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
    consumer.resume(hub.address, cq)
    consumer.renew(hub.address, cq, 40.0)
    network.request("viewer", hub.address, {"op": "stats"})
    consumer.deregister(hub.address, cq)
    consumer.deregister(hub.address, cq)  # "missing": the refusal form
    with pytest.raises(NetworkError):
        consumer.register(hub.address, CQ, flavour="pull")
    client = DirectoryClient(network, "viewer", directory.address)
    client.lookup_site("site-b")
    gla.unregister()
    gla.unregister()
    return seen


def test_honest_traffic_is_byte_identical_to_the_recorded_session():
    recorded = json.loads(GOLDEN.read_text())
    session = honest_conversation()
    assert {wire for wire, _, _ in session} == set(PORTS.values())
    assert session == recorded


if __name__ == "__main__":
    print(json.dumps(honest_conversation(), indent=1))
