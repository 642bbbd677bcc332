"""Unit tests for the SNMP substrate: codec, MIB tree, agent."""

import pytest

from repro.agents import snmp as S
from repro.agents.host_model import HostSpec, SimulatedHost
from repro.simnet.network import Address


class TestOidText:
    def test_parse(self):
        assert S.oid_parse("1.3.6.1.2.1.1.3.0") == (1, 3, 6, 1, 2, 1, 1, 3, 0)

    def test_parse_leading_dot(self):
        assert S.oid_parse(".1.3") == (1, 3)

    def test_parse_bad(self):
        with pytest.raises(ValueError):
            S.oid_parse("1.x.3")
        with pytest.raises(ValueError):
            S.oid_parse("")

    def test_str_round_trip(self):
        assert S.oid_str(S.oid_parse("1.3.6.1")) == "1.3.6.1"


class TestCodec:
    def test_integer_round_trip(self):
        for v in (0, 1, 127, 128, 255, 256, 65535, -1, -128, -129, 2**31 - 1):
            data = S.encode_integer(v)
            tag, payload, _ = S._read_tlv(data, 0)
            assert S.decode_value(tag, payload) == v, v

    def test_string_round_trip(self):
        data = S.encode_string("hello λ world")
        tag, payload, _ = S._read_tlv(data, 0)
        assert S.decode_value(tag, payload) == "hello λ world"

    def test_null(self):
        tag, payload, _ = S._read_tlv(S.encode_null(), 0)
        assert S.decode_value(tag, payload) is None

    def test_oid_round_trip_base128(self):
        # Arc > 127 exercises multi-byte base-128 packing.
        oid = (1, 3, 6, 1, 4, 1, 42000, 1, 1)
        data = S.encode_oid(oid)
        tag, payload, _ = S._read_tlv(data, 0)
        assert S.decode_value(tag, payload) == oid

    def test_oid_too_short_rejected(self):
        with pytest.raises(S.SnmpCodecError):
            S.encode_oid((1,))

    def test_long_length_encoding(self):
        big = S.encode_string("x" * 300)
        tag, payload, _ = S._read_tlv(big, 0)
        assert len(payload) == 300

    def test_truncated_input_rejected(self):
        data = S.encode_string("hello")
        with pytest.raises(S.SnmpCodecError):
            S._read_tlv(data[:-2], 0)

    def test_message_round_trip(self):
        msg = S.SnmpMessage(
            version=0,
            community="public",
            pdu_type=S.TAG_GET,
            request_id=99,
            error_status=0,
            error_index=0,
            varbinds=(S.VarBind(S.LA_LOAD_1), S.VarBind(S.SYS_NAME, "n0")),
        )
        back = S.SnmpMessage.decode(msg.encode())
        assert back == msg

    def test_garbage_rejected(self):
        with pytest.raises(S.SnmpCodecError):
            S.SnmpMessage.decode(b"\x99\x01\x00")


#: OID bodies no X.690 encoder produces; each must raise, on a cold memo
#: and on a warm one alike.
HOSTILE_OID_BODIES = [
    pytest.param(b"", id="empty"),
    pytest.param(b"\x80", id="first-subidentifier-truncated"),
    pytest.param(b"\x2b\x06\x81", id="last-arc-truncated"),
    # The last arc's bits so far are all zero.
    pytest.param(b"\x2b\x06\x80", id="last-arc-truncated-at-zero"),
    pytest.param(b"\x2b\xff\xff", id="last-arc-truncated-long"),
]

#: Varbind names whose TLV header is hostile, each the whole varbind body.
HOSTILE_VARBIND_NAMES = [
    pytest.param(b"\x06", id="no-length"),
    pytest.param(b"\x04\x01\x2b\x05\x00", id="name-not-oid"),
    pytest.param(b"\x06\x80\x05\x00", id="length-of-length-zero"),
    pytest.param(b"\x06\x85\x00\x00\x00\x00\x01\x2b\x05\x00", id="length-of-length-five"),
    pytest.param(b"\x06\x82\x00", id="long-length-truncated"),
    pytest.param(b"\x06\x05\x2b\x06\x05\x00", id="name-overruns-varbind"),
    pytest.param(b"\x06\x81\x09\x2b\x06\x05\x00", id="long-name-overruns-varbind"),
    pytest.param(b"\x06\x02\x2b\x06", id="no-value"),
]


def _message_with_varbind(varbind_body: bytes) -> bytes:
    """A GET whose one varbind body is ``varbind_body``, all else honest."""
    vb = bytes([S.TAG_SEQUENCE, len(varbind_body)]) + varbind_body
    pdu = S.encode_sequence(
        S.encode_integer(7), S.encode_integer(0), S.encode_integer(0),
        S.encode_sequence(vb), tag=S.TAG_GET,
    )
    return S.encode_sequence(S.encode_integer(0), S.encode_string("public"), pdu)


def _valid_prefix(body: bytes) -> bytes:
    """The longest prefix of ``body`` that ends on a whole arc."""
    ends = [i for i, byte in enumerate(body) if not byte & 0x80]
    return body[: ends[-1] + 1] if ends else b""


def _clear_memos() -> None:
    for memo in (S._OID_TLVS, S._NULL_VARBINDS, S._OID_BODIES):
        memo.clear()


class TestBerCodecHostileOids:
    @pytest.mark.parametrize("body", HOSTILE_OID_BODIES)
    def test_hostile_body_raises_cold_and_warm_and_is_never_remembered(self, body):
        _clear_memos()
        with pytest.raises(S.SnmpCodecError):
            S._decode_oid_body(body)
        prefix = _valid_prefix(body)
        if prefix:
            S._decode_oid_body(prefix)
            assert prefix in S._OID_BODIES
        with pytest.raises(S.SnmpCodecError):
            S._decode_oid_body(body)
        assert body not in S._OID_BODIES
        with pytest.raises(S.SnmpCodecError):
            S.SnmpMessage.decode(_message_with_varbind(
                bytes([S.TAG_OID, len(body)]) + body + S.encode_null()
            ))
        assert body not in S._OID_BODIES

    @pytest.mark.parametrize("varbind", HOSTILE_VARBIND_NAMES)
    def test_hostile_varbind_name_raises(self, varbind):
        with pytest.raises(S.SnmpCodecError):
            S.SnmpMessage.decode(_message_with_varbind(varbind))

    def test_honest_varbind_decodes_inside_the_hostile_frame(self):
        """The frame the tables above are embedded in is itself sound."""
        msg = S.SnmpMessage.decode(_message_with_varbind(b"\x06\x02\x2b\x06\x05\x00"))
        assert msg.varbinds == (S.VarBind((1, 3, 6)),)

    def test_long_form_name_length_decodes_like_short_form(self):
        short = _message_with_varbind(b"\x06\x03\x2b\x06\x01\x05\x00")
        long_ = _message_with_varbind(b"\x06\x81\x03\x2b\x06\x01\x05\x00")
        assert S.SnmpMessage.decode(long_) == S.SnmpMessage.decode(short)
        assert S.SnmpMessage.decode(short).varbinds[0].oid == (1, 3, 6, 1)

    @pytest.mark.parametrize(
        "body, oid",
        [
            (b"\x27", (0, 39)),
            (b"\x28", (1, 0)),
            (b"\x4f", (1, 39)),
            (b"\x50", (2, 0)),
            # X.690 8.19.4: a first subidentifier of 80 or more is arc 2.
            (b"\x78", (2, 40)),
            (b"\x81\x00\x05", (2, 48, 5)),
        ],
    )
    def test_first_subidentifier_splits_as_x690_says(self, body, oid):
        _clear_memos()
        assert S._decode_oid_body(body) == oid
        assert S.encode_oid(oid) == bytes([S.TAG_OID, len(body)]) + body
        assert S._decode_oid_body(body) == oid  # warm

    @pytest.mark.parametrize("oid", [(3, 1), (1, 40), (0, 40), (1, -1), (-1, 3), (1, 3, -6)])
    def test_bad_oids_are_refused_and_never_remembered(self, oid):
        with pytest.raises(S.SnmpCodecError):
            S.encode_oid(oid)
        assert oid not in S._OID_TLVS
        with pytest.raises(S.SnmpCodecError):
            S.SnmpMessage(0, "public", S.TAG_GET, 1, 0, 0, (S.VarBind(oid),)).encode()
        assert oid not in S._NULL_VARBINDS


class TestMibTree:
    def test_get_constant_and_callable(self):
        mib = S.MibTree()
        mib.put((1, 3, 1), 42)
        mib.put((1, 3, 2), lambda: 43)
        assert mib.get((1, 3, 1)) == 42
        assert mib.get((1, 3, 2)) == 43

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            S.MibTree().get((1, 3))

    def test_next_after_lexicographic(self):
        mib = S.MibTree()
        for oid in [(1, 3, 2), (1, 3, 1, 5), (1, 3, 1)]:
            mib.put(oid, 0)
        assert mib.next_after((1, 3)) == (1, 3, 1)
        assert mib.next_after((1, 3, 1)) == (1, 3, 1, 5)
        assert mib.next_after((1, 3, 2)) is None

    def test_set_requires_writable(self):
        mib = S.MibTree()
        mib.put((1, 1), "ro")
        mib.put((1, 2), "rw", writable=True)
        with pytest.raises(PermissionError):
            mib.set((1, 1), "x")
        mib.set((1, 2), "x")
        assert mib.get((1, 2)) == "x"


@pytest.fixture
def agent(network, host):
    return S.SnmpAgent(host, network)


def get(network, agent, *oids, community="public", pdu=S.TAG_GET):
    msg = S.SnmpMessage(0, community, pdu, 1, 0, 0, tuple(S.VarBind(o) for o in oids))
    raw = network.request("gateway", agent.address, msg.encode())
    return S.SnmpMessage.decode(raw)


class TestAgent:
    def test_get_sysname(self, network, agent):
        resp = get(network, agent, S.SYS_NAME)
        assert resp.error_status == S.ERR_NONE
        assert resp.varbinds[0].value == "n0"

    def test_get_multiple_varbinds(self, network, agent):
        resp = get(network, agent, S.LA_LOAD_1, S.MEM_TOTAL_REAL)
        assert len(resp.varbinds) == 2
        assert all(isinstance(vb.value, int) for vb in resp.varbinds)

    def test_load_scaled_by_100(self, network, agent, host):
        resp = get(network, agent, S.LA_LOAD_1)
        t = network.clock.now()
        expected = int(host.snapshot(t)["cpu"]["load_1"] * 100)
        assert resp.varbinds[0].value == expected

    def test_memory_in_kilobytes(self, network, agent, host):
        resp = get(network, agent, S.MEM_TOTAL_REAL)
        assert resp.varbinds[0].value == int(host.spec.ram_mb * 1024)

    def test_missing_oid_no_such_name(self, network, agent):
        resp = get(network, agent, (1, 3, 9, 9, 9))
        assert resp.error_status == S.ERR_NO_SUCH_NAME
        assert resp.error_index == 1

    def test_bad_community_generr(self, network, agent):
        resp = get(network, agent, S.SYS_NAME, community="wrong")
        assert resp.error_status == S.ERR_GEN_ERR

    def test_getnext_walk_visits_whole_mib(self, network, agent):
        seen = []
        cur = (1, 3)
        while True:
            resp = get(network, agent, cur, pdu=S.TAG_GETNEXT)
            if resp.error_status != S.ERR_NONE:
                break
            cur = resp.varbinds[0].oid
            seen.append(cur)
        assert len(seen) == len(agent.mib)

    def test_set_sysname(self, network, agent):
        msg = S.SnmpMessage(
            0, "public", S.TAG_SET, 2, 0, 0, (S.VarBind(S.SYS_NAME, "renamed"),)
        )
        resp = S.SnmpMessage.decode(
            network.request("gateway", agent.address, msg.encode())
        )
        assert resp.error_status == S.ERR_NONE
        assert get(network, agent, S.SYS_NAME).varbinds[0].value == "renamed"

    def test_set_readonly_rejected(self, network, agent):
        msg = S.SnmpMessage(
            0, "public", S.TAG_SET, 2, 0, 0, (S.VarBind(S.LA_LOAD_1, 0),)
        )
        resp = S.SnmpMessage.decode(
            network.request("gateway", agent.address, msg.encode())
        )
        assert resp.error_status == S.ERR_READ_ONLY

    def test_garbage_request_answers_generr(self, network, agent):
        raw = network.request("gateway", agent.address, b"\xff\xff")
        assert S.SnmpMessage.decode(raw).error_status == S.ERR_GEN_ERR

    def test_uptime_in_timeticks(self, network, agent, host):
        network.clock.advance(10.0)
        resp = get(network, agent, S.SYS_UPTIME)
        expected = int(host.snapshot()["os"]["uptime_s"] * 100)
        assert resp.varbinds[0].value == expected


class TestTraps:
    def test_threshold_trap_sent(self, network, host):
        agent = S.SnmpAgent(
            host, network, port=1161, load_trap_threshold=0.0, trap_check_period=5.0
        )
        got = []
        network.listen(
            Address("gateway", 1162),
            lambda p, s: None,
            datagram_handler=lambda p, s: got.append(S.SnmpMessage.decode(p)),
        )
        agent.add_trap_sink(Address("gateway", 1162))
        network.clock.advance(20.0)
        assert got
        trap = got[0]
        assert trap.pdu_type == S.TAG_TRAP
        assert trap.varbinds[0].oid == S.TRAP_LOAD_HIGH

    def test_no_trap_below_threshold(self, network, host):
        agent = S.SnmpAgent(
            host, network, port=1161, load_trap_threshold=1e9, trap_check_period=5.0
        )
        agent.add_trap_sink(Address("gateway", 1162))
        network.clock.advance(20.0)
        assert agent.traps_sent == 0

    def test_explicit_trap_counts(self, network, host):
        agent = S.SnmpAgent(host, network, port=1161)
        agent.add_trap_sink(Address("gateway", 1162))
        agent.send_trap(S.TRAP_LOAD_HIGH)
        assert agent.traps_sent == 1
