"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.agents import snmp as wire
from repro.agents.host_model import HostSpec, SimulatedHost
from repro.agents.nws import ForecasterBank
from repro.dbapi.url import JdbcUrl
from repro.glue.mapping import _UNIT_FACTORS, unit_factor
from repro.simnet.clock import VirtualClock
from repro.sql.parser import parse_select
from repro.sql.render import render_expr
from tests.reference_sql import execute_select
from tests.test_agent_snmp import _clear_memos
from tests.history_rows import record_rows

# ----------------------------------------------------------------------
# SNMP codec
# ----------------------------------------------------------------------
oids = st.tuples(
    st.integers(0, 2),
    st.integers(0, 39),
).flatmap(
    lambda head: st.lists(st.integers(0, 2**28), min_size=0, max_size=12).map(
        lambda tail: head + tuple(tail)
    )
)

snmp_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.text(max_size=64),
)


@given(value=st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1))
def test_snmp_integer_round_trip(value):
    data = wire.encode_integer(value)
    tag, payload, end = wire._read_tlv(data, 0)
    assert wire.decode_value(tag, payload) == value
    assert end == len(data)


@given(oid=oids)
def test_snmp_oid_round_trip(oid):
    data = wire.encode_oid(oid)
    tag, payload, _ = wire._read_tlv(data, 0)
    assert wire.decode_value(tag, payload) == oid


@given(
    community=st.text(max_size=32),
    request_id=st.integers(0, 2**31 - 1),
    pdu=st.sampled_from([wire.TAG_GET, wire.TAG_GETNEXT, wire.TAG_RESPONSE, wire.TAG_SET, wire.TAG_TRAP]),
    varbinds=st.lists(st.tuples(oids, snmp_values), max_size=6),
)
def test_snmp_message_round_trip(community, request_id, pdu, varbinds):
    msg = wire.SnmpMessage(
        version=0,
        community=community,
        pdu_type=pdu,
        request_id=request_id,
        error_status=0,
        error_index=0,
        varbinds=tuple(wire.VarBind(o, v) for o, v in varbinds),
    )
    assert wire.SnmpMessage.decode(msg.encode()) == msg


@given(data=st.binary(max_size=128))
def test_snmp_decoder_never_crashes_on_garbage(data):
    try:
        wire.SnmpMessage.decode(data)
    except wire.SnmpCodecError:
        pass  # rejecting is fine; crashing is not


# ----------------------------------------------------------------------
# SNMP codec vs an X.690 reference that shares only the tag numbers
# ----------------------------------------------------------------------
def ref_tlv(tag: int, body: bytes) -> bytes:
    n = len(body)
    if n < 0x80:
        return bytes([tag, n]) + body
    size = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(size)]) + size + body


def ref_subidentifier(n: int) -> bytes:
    groups = [n & 0x7F]
    while n > 0x7F:
        n >>= 7
        groups.append(0x80 | (n & 0x7F))
    return bytes(reversed(groups))


def ref_oid(oid: tuple) -> bytes:
    subids = (40 * oid[0] + oid[1],) + tuple(oid[2:])
    return ref_tlv(wire.TAG_OID, b"".join(ref_subidentifier(n) for n in subids))


def ref_integer(v: int) -> bytes:
    size = 1
    while not -(1 << (8 * size - 1)) <= v < 1 << (8 * size - 1):
        size += 1
    return ref_tlv(wire.TAG_INTEGER, v.to_bytes(size, "big", signed=True))


def ref_value(v) -> bytes:
    if v is None:
        return ref_tlv(wire.TAG_NULL, b"")
    if isinstance(v, int):
        return ref_integer(v)
    return ref_tlv(wire.TAG_OCTET_STRING, v.encode())


def ref_message(version, community, pdu, request_id, status, index, varbinds) -> bytes:
    vbs = b"".join(ref_tlv(wire.TAG_SEQUENCE, ref_oid(o) + ref_value(v)) for o, v in varbinds)
    body = ref_integer(request_id) + ref_integer(status) + ref_integer(index)
    head = ref_integer(version) + ref_value(community)
    return ref_tlv(wire.TAG_SEQUENCE, head + ref_tlv(pdu, body + ref_tlv(wire.TAG_SEQUENCE, vbs)))


settings.register_profile(
    "ber-codec", max_examples=300, derandomize=True, deadline=None, database=None
)

ber_oids = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 39)),
    st.tuples(st.just(2), st.integers(0, 2**32)),
).flatmap(
    lambda head: st.lists(st.integers(0, 2**32), max_size=12).map(
        lambda tail: head + tuple(tail)
    )
)

ber_messages = st.tuples(
    st.integers(0, 1),
    st.text(max_size=32),
    st.sampled_from(sorted(wire._PDU_TYPES)),
    st.integers(0, 2**31 - 1),
    st.integers(0, 5),
    st.integers(0, 2**31 - 1),
    st.lists(
        st.tuples(
            ber_oids,
            st.one_of(st.none(), st.integers(-(2**63), 2**63), st.text(max_size=64)),
        ),
        max_size=8,
    ),
)


@settings(settings.get_profile("ber-codec"))
@given(oid=ber_oids)
def test_ber_codec_oids_equal_the_reference_cold_and_warm(oid):
    expected = ref_oid(oid)
    _clear_memos()
    for _ in ("cold", "warm"):
        assert wire.encode_oid(oid) == expected
        tag, body, _end = wire._read_tlv(expected, 0)
        assert wire.decode_value(tag, body) == oid


@settings(settings.get_profile("ber-codec"))
@given(fields=ber_messages)
def test_ber_codec_messages_equal_the_reference_cold_and_warm(fields):
    *head, varbinds = fields
    msg = wire.SnmpMessage(*head, tuple(wire.VarBind(o, v) for o, v in varbinds))
    expected = ref_message(*head, varbinds)
    _clear_memos()
    for _ in ("cold", "warm"):
        assert msg.encode() == expected
        assert wire.SnmpMessage.decode(expected) == msg
    _clear_memos()
    assert wire.SnmpMessage.decode(expected) == msg  # decoded before encoded
    assert msg.encode() == expected


def test_ber_codec_memos_stay_bounded_and_equal_the_reference():
    """More distinct OIDs than a memo holds: each memo stays at its bound,
    and every entry it keeps still equals the reference."""
    bound = wire.OID_MEMO_SIZE
    _clear_memos()
    for i in range(bound + 300):
        oid = (1, 3, 6, 1, 4, 1, 42000, i)
        raw = wire.SnmpMessage(0, "public", wire.TAG_GET, i, 0, 0, (wire.VarBind(oid),)).encode()
        assert wire.SnmpMessage.decode(raw).varbinds[0].oid == oid
    for memo in (wire._OID_TLVS, wire._NULL_VARBINDS, wire._OID_BODIES):
        assert len(memo) == bound
    null = ref_tlv(wire.TAG_NULL, b"")
    assert all(tlv == ref_oid(oid) for oid, tlv in wire._OID_TLVS.items())
    assert all(
        vb == ref_tlv(wire.TAG_SEQUENCE, ref_oid(oid) + null)
        for oid, vb in wire._NULL_VARBINDS.items()
    )
    assert all(
        ref_oid(oid) == ref_tlv(wire.TAG_OID, body) for body, oid in wire._OID_BODIES.items()
    )
    # The oldest were forgotten first; the newest are still there.
    assert (1, 3, 6, 1, 4, 1, 42000, 0) not in wire._OID_TLVS
    assert (1, 3, 6, 1, 4, 1, 42000, bound + 299) in wire._OID_TLVS


# ----------------------------------------------------------------------
# SQL engine
# ----------------------------------------------------------------------
rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.one_of(st.none(), st.integers(-100, 100)),
            "b": st.text(alphabet="xyz", max_size=3),
            "c": st.floats(allow_nan=False, allow_infinity=False, width=32),
        }
    ),
    max_size=20,
)


@given(rows=rows_strategy, threshold=st.integers(-100, 100))
def test_sql_where_partition(rows, threshold):
    """WHERE p and WHERE NOT p partition the non-NULL rows."""
    cols = ["a", "b", "c"]
    pos = execute_select(parse_select(f"SELECT * FROM t WHERE a > {threshold}"), cols, rows)
    neg = execute_select(
        parse_select(f"SELECT * FROM t WHERE NOT (a > {threshold})"), cols, rows
    )
    nulls = sum(1 for r in rows if r["a"] is None)
    assert len(pos) + len(neg) + nulls == len(rows)


@given(rows=rows_strategy)
def test_sql_count_star_matches_len(rows):
    result = execute_select(parse_select("SELECT COUNT(*) FROM t"), ["a", "b", "c"], rows)
    assert result.rows == [[len(rows)]]


@given(rows=rows_strategy, limit=st.integers(0, 30))
def test_sql_limit_bounds_output(rows, limit):
    result = execute_select(
        parse_select(f"SELECT * FROM t LIMIT {limit}"), ["a", "b", "c"], rows
    )
    assert len(result) == min(limit, len(rows))


@given(rows=rows_strategy)
def test_sql_order_by_sorted(rows):
    result = execute_select(
        parse_select("SELECT a FROM t WHERE a IS NOT NULL ORDER BY a"),
        ["a", "b", "c"],
        rows,
    )
    values = [r[0] for r in result.rows]
    assert values == sorted(values)


@given(rows=rows_strategy)
def test_sql_distinct_no_duplicates(rows):
    result = execute_select(
        parse_select("SELECT DISTINCT b FROM t"), ["a", "b", "c"], rows
    )
    values = [r[0] for r in result.rows]
    assert len(values) == len(set(values))
    assert set(values) == {r["b"] for r in rows}


@given(
    rows=rows_strategy,
    where=st.sampled_from(
        [
            "",
            "WHERE a > 0",
            "WHERE a IS NULL",
            "WHERE b LIKE 'x%'",
            "WHERE a BETWEEN -10 AND 10",
            "WHERE a IN (1, 2, 3) OR b = 'y'",
        ]
    ),
)
def test_sql_render_parse_fixpoint(rows, where):
    """A WHERE rendered by ``render_expr`` (the push-down's renderer)
    executes identically to the text it was parsed from."""
    sql = f"SELECT a, b FROM t {where}"
    stmt = parse_select(sql)
    rendered = "" if stmt.where is None else f" WHERE {render_expr(stmt.where)}"
    stmt2 = parse_select("SELECT a, b FROM t" + rendered)
    cols = ["a", "b", "c"]
    assert execute_select(stmt, cols, rows).rows == execute_select(stmt2, cols, rows).rows


@given(rows=rows_strategy)
def test_sql_group_by_partitions_rows(rows):
    """GROUP BY counts sum to the input size (groups partition rows)."""
    result = execute_select(
        parse_select("SELECT b, COUNT(*) AS n FROM t GROUP BY b"),
        ["a", "b", "c"],
        rows,
    )
    assert sum(r[1] for r in result.rows) == len(rows)
    assert len(result.rows) == len({r["b"] for r in rows})


# ----------------------------------------------------------------------
# Grammar-level parse/render fixpoint
# ----------------------------------------------------------------------
from repro.sql import ast_nodes as A

_literals = st.one_of(
    st.integers(0, 10_000).map(A.Literal),
    st.floats(0.0, 1e6, allow_nan=False).map(A.Literal),
    st.text(alphabet="abc x'%_", max_size=6).map(A.Literal),
    st.sampled_from([A.Literal(None), A.Literal(True), A.Literal(False)]),
)
from repro.sql.lexer import KEYWORDS as _KW

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda n: n.upper() not in _KW
)
_columns = _names.map(lambda n: A.Column(name=n))
_atoms = st.one_of(_literals, _columns)


def _exprs(depth: int):
    if depth <= 0:
        return _atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "AND", "OR", "LIKE"]), sub, sub).map(
            lambda t: A.BinOp(op=t[0], left=t[1], right=t[2])
        ),
        sub.map(lambda e: A.UnaryOp(op="NOT", operand=e)),
        st.tuples(sub, st.lists(_atoms, min_size=1, max_size=3), st.booleans()).map(
            lambda t: A.InList(expr=t[0], items=tuple(t[1]), negated=t[2])
        ),
        st.tuples(sub, _atoms, _atoms, st.booleans()).map(
            lambda t: A.Between(expr=t[0], low=t[1], high=t[2], negated=t[3])
        ),
        st.tuples(sub, st.booleans()).map(
            lambda t: A.IsNull(expr=t[0], negated=t[1])
        ),
    )


_selects = st.builds(
    A.Select,
    items=st.lists(
        st.builds(
            A.SelectItem,
            expr=_exprs(2),
            alias=st.one_of(st.none(), st.just("a1")),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    table=_names,
    where=st.one_of(st.none(), _exprs(2)),
    order_by=st.lists(
        st.builds(A.OrderItem, expr=_columns, descending=st.booleans()),
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(0, 100)),
    distinct=st.booleans(),
)


@settings(max_examples=150)
@given(stmt=_selects)
def test_parse_render_ast_fixpoint(stmt):
    """parse(render(expr)) == expr for every expression of canonically
    constructed SELECT ASTs (``render_select`` is gone; ``render_expr``
    is what the push-down sends)."""
    for expr in stmt.expressions():
        text = render_expr(expr)
        assert parse_select(f"SELECT {text} FROM t").items[0].expr == expr, text


# ----------------------------------------------------------------------
# GLUE renderings
# ----------------------------------------------------------------------
_proc_group = __import__(
    "repro.glue.schema", fromlist=["STANDARD_SCHEMA"]
).STANDARD_SCHEMA.group("Processor")

glue_rows = st.lists(
    st.fixed_dictionaries(
        {
            "HostName": st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True),
            "SiteName": st.one_of(st.none(), st.just("site-x")),
            "Timestamp": st.floats(0, 1e6, allow_nan=False),
            "CPUCount": st.one_of(st.none(), st.integers(1, 1024)),
            "LoadAverage1Min": st.one_of(
                st.none(), st.floats(0, 1e3, allow_nan=False, width=32)
            ),
            "Vendor": st.one_of(st.none(), st.text(alphabet="ab<&>'\" ", max_size=8)),
        }
    ).map(
        lambda partial: {
            **{f.name: None for f in _proc_group.fields},
            **partial,
        }
    ),
    max_size=6,
)


@given(rows=glue_rows)
def test_glue_xml_round_trip(rows):
    from repro.glue.render import rows_to_xml, xml_to_rows

    back = xml_to_rows(_proc_group, rows_to_xml(_proc_group, rows))
    assert len(back) == len(rows)
    for original, parsed in zip(rows, back):
        assert parsed["HostName"] == original["HostName"]
        assert parsed["CPUCount"] == original["CPUCount"]
        if original["LoadAverage1Min"] is not None:
            assert parsed["LoadAverage1Min"] == pytest.approx(
                original["LoadAverage1Min"], rel=1e-6
            )


@given(rows=glue_rows)
def test_glue_ldif_round_trip_structure(rows):
    from repro.glue.render import ldif_to_rows, rows_to_ldif

    # LDIF is line-oriented: values with newlines are out of scope, and
    # text round-trips only for single-line values — which GLUE's are.
    assume(all("\n" not in (r["Vendor"] or "") for r in rows))
    back = ldif_to_rows(_proc_group, rows_to_ldif(_proc_group, rows))
    assert len(back) == len(rows)
    for original, parsed in zip(rows, back):
        assert parsed["CPUCount"] == original["CPUCount"]


# ----------------------------------------------------------------------
# Cache key normalisation
# ----------------------------------------------------------------------
@given(sql=st.text(alphabet=" \t\nSELECTfromwhere*xy=1;", max_size=60))
def test_normalise_sql_idempotent(sql):
    from repro.core.cache import normalise_sql

    once = normalise_sql(sql)
    assert normalise_sql(once) == once


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
@given(
    value=st.floats(min_value=1e-6, max_value=1e12, allow_nan=False),
    pair=st.sampled_from(sorted({(a, b) for (a, b) in _UNIT_FACTORS if (b, a) in _UNIT_FACTORS})),
)
def test_unit_conversion_round_trip(value, pair):
    a, b = pair
    there = value * unit_factor(a, b)
    assert there * unit_factor(b, a) == pytest.approx(value, rel=1e-9)


# ----------------------------------------------------------------------
# JDBC URLs
# ----------------------------------------------------------------------
hostnames = st.from_regex(r"[a-z][a-z0-9-]{0,20}(\.[a-z]{2,5})?", fullmatch=True)
protocols = st.one_of(st.just(""), st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True))


@given(
    protocol=protocols,
    host=hostnames,
    port=st.one_of(st.none(), st.integers(1, 65535)),
    path=st.from_regex(r"[a-zA-Z0-9/_-]{0,16}", fullmatch=True),
)
def test_jdbc_url_round_trip(protocol, host, port, path):
    url = JdbcUrl(protocol=protocol, host=host, port=port, path=path.lstrip("/"))
    assert JdbcUrl.parse(str(url)) == url


# ----------------------------------------------------------------------
# Forecaster bank
# ----------------------------------------------------------------------
@given(series=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=3, max_size=120))
def test_bank_selected_mae_is_minimum(series):
    bank = ForecasterBank()
    for v in series:
        bank.observe(v)
    fc = bank.forecast()
    maes = [bank.mae(i) for i in range(len(bank.forecasters))]
    real = [m for m in maes if m is not None]
    if real and fc.mae is not None:
        assert fc.mae == pytest.approx(min(real))


@given(series=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60))
def test_bank_forecast_within_observed_range(series):
    """Every predictor interpolates history, so the forecast cannot leave
    the observed envelope."""
    bank = ForecasterBank()
    for v in series:
        bank.observe(v)
    fc = bank.forecast()
    if fc.value is not None:
        assert min(series) - 1e-9 <= fc.value <= max(series) + 1e-9


# ----------------------------------------------------------------------
# Host model
# ----------------------------------------------------------------------
@settings(max_examples=25)
@given(
    name=st.from_regex(r"[a-z]{1,8}", fullmatch=True),
    seed=st.integers(0, 2**31),
    t=st.floats(0.0, 1e6, allow_nan=False),
)
def test_host_model_invariants_hold_everywhere(name, seed, t):
    host = SimulatedHost(HostSpec.generate(name, "s", seed), VirtualClock())
    snap = host.snapshot(t)
    assert 0.0 <= snap["cpu"]["utilization"] <= 100.0
    assert snap["cpu"]["load_1"] >= 0.0
    assert 0.0 <= snap["memory"]["ram_free_mb"] <= snap["memory"]["ram_total_mb"]
    for fs in snap["filesystems"]:
        assert 0.0 <= fs["avail_mb"] <= fs["size_mb"]


@settings(max_examples=25)
@given(seed=st.integers(0, 2**31), t1=st.floats(0, 1e5), t2=st.floats(0, 1e5))
def test_host_network_counters_monotone(seed, t1, t2):
    assume(t1 <= t2)
    host = SimulatedHost(HostSpec.generate("m", "s", seed), VirtualClock())
    n1, n2 = host.snapshot(t1)["network"], host.snapshot(t2)["network"]
    assert n1["bytes_rx"] <= n2["bytes_rx"]
    assert n1["bytes_tx"] <= n2["bytes_tx"]


# ----------------------------------------------------------------------
# Virtual clock
# ----------------------------------------------------------------------
@given(deltas=st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=30))
def test_clock_monotone_under_any_advances(deltas):
    clock = VirtualClock()
    last = clock.now()
    for d in deltas:
        clock.advance(d)
        assert clock.now() >= last
        last = clock.now()


@given(
    delays=st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=20)
)
def test_scheduled_callbacks_fire_in_order(delays):
    clock = VirtualClock()
    fired = []
    for d in delays:
        clock.call_later(d, lambda d=d: fired.append(d))
    clock.advance(101.0)
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# Metrics registry (obs)
# ----------------------------------------------------------------------
from repro.obs.metrics import Counter, Histogram  # noqa: E402

hist_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def _hist(samples):
    h = Histogram("h")
    for v in samples:
        h.record(v)
    return h


@given(samples=hist_samples)
@example(samples=[0.0, 2.0])  # 2.0 sits on a bucket edge: bound rounds below it
def test_histogram_quantiles_bounded_and_ordered(samples):
    """min <= p50 <= p95 <= p99 <= max, and quantile(100) is exact."""
    h = _hist(samples)
    assert min(samples) <= h.p50 <= h.p95 <= h.p99 <= max(samples)
    assert h.quantile(100) == max(samples)
    assert h.count == len(samples)
    assert math.isclose(h.mean, sum(samples) / len(samples), rel_tol=1e-9)


@given(samples=hist_samples)
def test_histogram_quantile_relative_error_bound(samples):
    """A reported quantile sits within one bucket (growth factor) of a
    true sample value, so the overestimate is bounded by the geometry."""
    h = _hist(samples)
    true_sorted = sorted(samples)
    for q in (50, 95, 99):
        rank = max(1, math.ceil(len(samples) * q / 100))
        true = true_sorted[rank - 1]
        estimate = h.quantile(q)
        if true > 0:
            assert estimate <= true * (2.0 ** 0.25) + 1e-9
        assert estimate >= 0.0


@given(a=hist_samples, b=hist_samples, c=hist_samples)
def test_histogram_merge_associative(a, b, c):
    """A histogram does not depend on the order its samples came in
    (``Histogram.merge`` is gone: nothing combined two histograms)."""
    left = _hist(a + b + c)
    right = _hist(c + a + b)
    assert left.count == right.count
    assert math.isclose(left.total, right.total, rel_tol=1e-9)
    assert left.min == right.min
    assert left.max == right.max
    for q in (1, 25, 50, 75, 90, 95, 99, 100):
        assert left.quantile(q) == right.quantile(q)


@given(a=hist_samples, b=hist_samples)
def test_histogram_merge_matches_union(a, b):
    """Quantiles of a concatenated stream are ordered and bounded by its
    extremes (``Histogram.merge`` is gone; its union is the stream)."""
    union = _hist(a + b)
    assert union.count == len(a) + len(b)
    if union.count:
        assert union.min <= union.p50 <= union.p95 <= union.p99 <= union.max
        assert union.quantile(100) == union.max


@given(deltas=st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=50))
def test_counter_monotone_under_any_adds(deltas):
    c = Counter("c")
    last = c.value
    for d in deltas:
        c.add(d)
        assert c.value >= last
        last = c.value
    assert math.isclose(c.value, sum(deltas) or 0.0, rel_tol=1e-9, abs_tol=1e-12)


@given(delta=st.floats(max_value=-1e-9, min_value=-1e6, allow_nan=False))
def test_counter_refuses_negative_deltas(delta):
    c = Counter("c")
    c.inc()
    with pytest.raises(ValueError):
        c.add(delta)
    assert c.value == 1


# ----------------------------------------------------------------------
# Durable history: the acked-prefix equality under arbitrary workloads
# ----------------------------------------------------------------------
_ops = st.lists(
    st.one_of(
        # (record, load value, recorded_at)
        st.tuples(
            st.just("record"),
            st.floats(0.0, 100.0, allow_nan=False),
            st.floats(0.0, 1000.0, allow_nan=False),
        ),
        st.tuples(st.just("sync"), st.just(0.0), st.just(0.0)),
        st.tuples(st.just("checkpoint"), st.just(0.0), st.just(0.0)),
        # (late record, load value, recorded_at no later than the newest)
        st.tuples(st.just("trim"), st.just(0.0), st.floats(0.0, 1000.0, allow_nan=False)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, sync_interval=st.integers(1, 7), torn_seed=st.integers(0, 2**16))
def test_durable_history_recovers_acked_prefix(ops, sync_interval, torn_seed):
    """record/sync/checkpoint in any order, then crash: the recovered
    store serves exactly what a fresh store with the same ring serves
    after recording each acknowledged row once, in log order.

    Re-aimed: the ``trim`` op used to log a time trim, which is gone; it
    now records a *late* row (an instant before the newest), the case a
    ring that dropped rows by arrival got wrong.  The ring is small
    enough that checkpoints drop segments.  Re-aimed again: the acked
    rows are tuples laid out as the store's layout."""
    import random as _random

    from repro.core.history import HistoryStore
    from repro.glue.schema import standard_schema
    from repro.storage.engine import HistoryEngine
    from repro.storage.simdisk import SimDisk

    ring = 5

    def store_on(disk):
        engine = HistoryEngine(disk, sync_interval=sync_interval, max_rows_per_group=ring)
        return HistoryStore(standard_schema(), max_rows_per_group=ring, engine=engine)

    disk = SimDisk()
    store = store_on(disk)
    at = 0.0
    for op, load, stamp in ops:
        if op in ("record", "trim"):
            # A record moves the newest instant forward; a late one lands
            # at or before it.
            at = max(at, stamp) if op == "record" else at
            record_rows(
                store, "Processor",
                [{"HostName": "n0", "LoadAverage1Min": load}],
                source_url="u",
                recorded_at=at if op == "record" else min(stamp, at),
            )
        elif op == "sync":
            store.sync()
        elif op == "checkpoint":
            store.checkpoint()
    reference = HistoryStore(standard_schema(), max_rows_per_group=ring)
    # Re-aimed: acked rows are tuples in the layout the store names.
    layout = store.layout("Processor")
    for row in store.engine.acked_rows("Processor", layout):
        record_rows(
            reference, "Processor", [dict(zip(layout, row))], source_url="u",
            recorded_at=row[-1],
        )
    expected = list(reference.since("Processor", None))

    disk.crash(_random.Random(torn_seed))
    assert store_on(disk).since("Processor", None) == expected
    # Recovery is idempotent: a second boot serves the same rows.
    assert store_on(disk).since("Processor", None) == expected


# ----------------------------------------------------------------------
# Stream frames: the consumer's datagram decoder is an untrusted boundary
# ----------------------------------------------------------------------
import dataclasses  # noqa: E402

from repro.gma import streams  # noqa: E402
from repro.gma.streams import (  # noqa: E402
    decode_frame,
    encode_batch,
    encode_frame,
)

from .test_gma_streams import _fabric  # noqa: E402
from .test_stream_frames import publish  # noqa: E402

_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
#: A member as the hub encodes it; ids may repeat (a hostile sender's).
_valid_members = st.builds(
    encode_batch,
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.lists(st.text(max_size=6), max_size=4),
    st.lists(st.lists(_cells, max_size=4), max_size=5),
)
_valid_parts = st.tuples(
    st.tuples(st.text(max_size=20), st.floats(0.0, 1e9), st.booleans()),
    st.lists(_valid_members, max_size=4),
)
#: Anything a peer could put in a datagram (NaN, infinities, ints too
#: large for a float, bytes and nesting included).
_json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.just(10**400),
        st.floats(),
        st.text(max_size=8),
        st.binary(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def _nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def _expanded(parts):
    """The per-subscription batches a frame of ``parts`` stands for, built
    without the decoder: part by part, member by member, each distinct
    id once."""
    return [
        {
            "kind": "gridrm-tuples", "cq": cq, "columns": member["columns"],
            "rows": member["rows"], "published_at": at, "source_url": url,
            "replay": replay,
        }
        for (url, at, replay), members in parts
        for member in members
        for cq in dict.fromkeys(member["cqs"])
    ]


@st.composite
def _mutated_frames(draw):
    """A valid frame with one structure-aware defect."""
    parts = draw(st.lists(_valid_parts, min_size=1, max_size=4))
    frame = encode_frame(parts)
    wire = frame["parts"]
    defect = draw(st.sampled_from((
        "junk_part", "junk_member", "dict", "str", "nested", "kind",
        "missing_key", "bad_field", "non_finite",
    )))
    at = draw(st.integers(0, len(wire) - 1))
    part = wire[at]
    members = part["members"]
    which = draw(st.integers(0, len(members) - 1)) if members else None
    if defect == "junk_part":
        wire[at] = draw(_json_like)
    elif defect == "junk_member" and which is not None:
        members[which] = draw(_json_like)
    elif defect == "dict":
        frame["parts"] = {str(i): p for i, p in enumerate(wire)}
    elif defect == "str":
        frame["parts"] = repr(wire)
    elif defect == "nested":
        frame["parts"] = _nest(wire, draw(st.integers(1, 60)))
    elif defect == "kind":
        frame["kind"] = draw(st.sampled_from(("gridrm-tuples", "gridrm-event", "", None, 7)))
    elif defect == "non_finite":
        part["published_at"] = draw(st.sampled_from((math.inf, -math.inf, math.nan, "nan")))
    else:
        target = draw(st.sampled_from([part] if which is None else [part, members[which]]))
        key = draw(st.sampled_from(sorted(target)))
        if defect == "missing_key":
            del target[key]
        else:
            target[key] = draw(_json_like)
    return frame


def _well_formed(batch):
    return (
        isinstance(batch, dict)
        and batch["kind"] == "gridrm-tuples"
        and type(batch["cq"]) is int
        and isinstance(batch["columns"], list)
        and all(isinstance(c, str) for c in batch["columns"])
        and isinstance(batch["rows"], list)
        and all(isinstance(r, list) for r in batch["rows"])
        and isinstance(batch["published_at"], float)
        and math.isfinite(batch["published_at"])
        and isinstance(batch["source_url"], str)
        and isinstance(batch["replay"], bool)
    )


@given(parts=st.lists(_valid_parts, max_size=6), data=st.data())
def test_stream_frame_round_trip(parts, data):
    """A frame states each source part's stamps once and each member
    names every subscription its result is owed to; the consumer must
    get back exactly the per-subscription batches the hub owed — each
    id once per member, rows of their own — and a hostile defect costs
    only what it spoils: a part whose instant is not finite, or one
    malformed member, while every sibling is still delivered."""
    frame = encode_frame(parts)
    decoded = decode_frame(frame)
    assert decoded == _expanded(parts)
    assert all(_well_formed(b) for b in decoded)
    # Rows are copied at the boundary, never aliased: not with the
    # frame's, and not between two subscriptions of one member.
    sent = [r for p in frame["parts"] for m in p["members"] for r in m["rows"]]
    got = [r for b in decoded for r in b["rows"]]
    assert not any(a is b for a in got for b in sent)
    assert not any(a is b for i, a in enumerate(got) for b in got[i + 1:])
    if not parts:
        return
    i = data.draw(st.integers(0, len(parts) - 1))
    (url, _, replay), members = parts[i]
    instant = data.draw(st.sampled_from((math.inf, -math.inf, math.nan)))
    spoiled = [*parts[:i], ((url, instant, replay), members), *parts[i + 1:]]
    assert decode_frame(encode_frame(spoiled)) == _expanded(parts[:i] + parts[i + 1:])
    if members:
        j = data.draw(st.integers(0, len(members) - 1))
        junk = data.draw(st.sampled_from(({"cqs": "7"}, {"cqs": [math.inf]}, [], None)))
        spoiled = [*parts[:i], (parts[i][0], [*members[:j], junk, *members[j + 1:]]), *parts[i + 1:]]
        kept = [*parts[:i], (parts[i][0], members[:j] + members[j + 1:]), *parts[i + 1:]]
        assert decode_frame(encode_frame(spoiled)) == _expanded(kept)


def _part(member, published_at=1.0):
    return {"source_url": "u", "published_at": published_at, "replay": False, "members": [member]}


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(_json_like, _mutated_frames()))
@example(payload={"kind": "gridrm-frame", "parts": [
    _part({"cqs": [float("inf")], "columns": [], "rows": []}),
]})
@example(payload={"kind": "gridrm-frame", "parts": [
    _part({"cqs": [1], "columns": [], "rows": []}, published_at=10**400),
]})
@example(payload={"kind": "gridrm-frame"})
@example(payload={"kind": "gridrm-frame", "parts": [
    # 10 000 ids over 10 000 rows: 10^8 row copies if it were expanded.
    _part({"cqs": list(range(10_000)), "columns": ["a"], "rows": [[i] for i in range(10_000)]}),
    _part({"cqs": [1], "columns": ["a"], "rows": [[1]]}),
]})
@example(payload={"kind": "gridrm-frame", "parts": [
    _part({"cqs": [1], "columns": [], "rows": []}, published_at=float("inf")),
]})
def test_hostile_datagram_never_raises_and_leaks_no_state(payload):
    """The stream consumer port takes one-way datagrams from anyone:
    whatever arrives, decoding never raises and yields only well-formed
    batches, and the consumer's registration, renew timer, watermark and
    earlier deliveries come through untouched.  A member that would
    expand far past its own size (many ids over many rows) is skipped,
    not copied once per id."""
    batches = decode_frame(payload)
    assert isinstance(batches, list) and all(_well_formed(b) for b in batches)

    _, network, hub, client, _ = _fabric()
    cq = client.register(hub.address, "SELECT Slot FROM Probe")
    publish(network, hub, 1)
    regs = [dataclasses.replace(r) for r in client._regs]
    timer = client._renew_timer
    earlier = [dict(b) for b in client.batches]
    assert len(earlier) == 1

    client._on_datagram(payload, hub.address)

    assert client._renew_timer is timer and not timer.cancelled
    assert client.batches[:1] == earlier
    assert len(client.batches) == 1 + len(batches)
    assert client.received == len(client.batches)
    (before,), (after,) = regs, client._regs
    # The registration is untouched; its watermark stays finite, only
    # ever moves forward, and only to what a well-formed member for it
    # said.
    assert math.isfinite(after.last_published)
    assert dataclasses.replace(after, last_published=0.0) == dataclasses.replace(
        before, last_published=0.0
    )
    claimed = [b["published_at"] for b in batches if b["cq"] == cq]
    assert after.last_published in [before.last_published, *claimed]
    assert after.last_published >= before.last_published
    # And the next honest publish still lands.
    publish(network, hub, 2)
    assert client.rows(hub.address, cq)[-1] == [2]


def test_ten_thousand_member_frame_is_decoded_in_one_pass(monkeypatch):
    """A sender picks how many members and ids a frame names, so decoding
    must stay one pass over them: each member is decoded once (10 000
    of them, half junk that is skipped), and a member naming 10 000 ids,
    each twice, delivers each id once, in first-named order."""
    good = encode_batch([1], ["a"], [[1]])
    members = [good if i % 2 else {"cqs": "junk", "i": i} for i in range(10_000)]
    wide = encode_batch([i % 5_000 for i in range(10_000)], ["a"], [[1]])
    frame = encode_frame([(("u", 1.0, False), members), (("v", 2.0, False), [wide])])
    calls = []
    real = streams.decode_batch

    def counted(member, *stamps):
        calls.append(1)
        return real(member, *stamps)

    monkeypatch.setattr(streams, "decode_batch", counted)
    decoded = decode_frame(frame)
    assert len(calls) == 10_001
    assert len(decoded) == 10_000 and all(_well_formed(b) for b in decoded)
    assert [b["cq"] for b in decoded[5_000:]] == list(range(5_000))
