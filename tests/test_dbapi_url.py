"""Unit tests for JDBC URL parsing."""

import pytest

from repro.dbapi import url as url_module
from repro.dbapi.exceptions import SQLException
from repro.dbapi.url import JdbcUrl

#: Ports the parser used to let through: a digit run past Python's
#: int-conversion limit (a raw ValueError), a number no port can be, and
#: non-ASCII digits (parsed as port 12, aliasing another text's source).
HOSTILE_PORTS = [
    pytest.param("jdbc:snmp://h:" + "9" * 5000 + "/x", id="port-of-5000-digits"),
    pytest.param("jdbc:snmp://h:70000/x", id="port-70000"),
    pytest.param("jdbc:snmp://h:\u0661\u0662/x", id="port-in-arabic-indic-digits"),
]


class TestParsing:
    def test_paper_nws_example(self):
        url = JdbcUrl.parse("jdbc:nws://snowboard.workgroup/perfdata")
        assert url.protocol == "nws"
        assert url.host == "snowboard.workgroup"
        assert url.path == "perfdata"

    def test_paper_wildcard_example(self):
        url = JdbcUrl.parse("jdbc:://snowboard.workgroup/perfdata")
        assert url.is_wildcard

    def test_wildcard_without_colon(self):
        assert JdbcUrl.parse("jdbc://host/x").is_wildcard

    def test_port(self):
        assert JdbcUrl.parse("jdbc:snmp://h:1161/x").port == 1161

    def test_no_port_is_none(self):
        assert JdbcUrl.parse("jdbc:snmp://h/x").port is None

    def test_query_params(self):
        url = JdbcUrl.parse("jdbc:snmp://h/x?community=secret&retries=3")
        assert url.params == {"community": "secret", "retries": "3"}

    def test_empty_path(self):
        assert JdbcUrl.parse("jdbc:snmp://h").path == ""

    def test_protocol_lowercased(self):
        assert JdbcUrl.parse("jdbc:SNMP://h/x").protocol == "snmp"

    @pytest.mark.parametrize(
        "bad",
        ["", "http://h/x", "jdbc:", "jdbc:snmp:/h", "jdbc:snmp://", "snmp://h"]
        + HOSTILE_PORTS,
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(SQLException, match="malformed JDBC URL"):
            JdbcUrl.parse(bad)

    def test_port_bounds(self):
        assert JdbcUrl.parse("jdbc:snmp://h:0/x").port == 0
        assert JdbcUrl.parse("jdbc:snmp://h:65535/x").port == 65535
        with pytest.raises(SQLException):
            JdbcUrl.parse("jdbc:snmp://h:65536/x")

    def test_whitespace_stripped(self):
        assert JdbcUrl.parse("  jdbc:snmp://h/x  ").host == "h"


class TestRendering:
    def test_round_trip(self):
        text = "jdbc:snmp://h:1161/x?community=public"
        assert str(JdbcUrl.parse(text)) == text

    def test_wildcard_round_trip(self):
        url = JdbcUrl.parse("jdbc://h/x")
        assert JdbcUrl.parse(str(url)) == url

    def test_with_protocol(self):
        url = JdbcUrl.parse("jdbc://h/x").with_protocol("NWS")
        assert url.protocol == "nws"
        assert not url.is_wildcard

    def test_params_sorted_in_string(self):
        url = JdbcUrl.parse("jdbc:snmp://h/x?b=2&a=1")
        assert str(url).endswith("?a=1&b=2")

    def test_equality_and_hash(self):
        a = JdbcUrl.parse("jdbc:snmp://h/x")
        b = JdbcUrl.parse("jdbc:snmp://h/x")
        assert a == b


class TestSharedInstances:
    """``parse`` hands one instance per text to every caller, so an
    instance must be immutable all the way down and the memo bounded."""

    def test_equal_texts_share_one_instance(self):
        text = "jdbc:snmp://shared-host:1161/x?community=public"
        assert JdbcUrl.parse(text) is JdbcUrl.parse(text)

    def test_params_are_read_only(self):
        url = JdbcUrl.parse("jdbc:snmp://h/x?community=secret")
        with pytest.raises(TypeError):
            url.params["community"] = "public"
        with pytest.raises(TypeError):
            del url.params["community"]
        assert url.params.get("community") == "secret"

    def test_constructor_copies_the_mapping_it_is_given(self):
        given = {"a": "1"}
        url = JdbcUrl(protocol="snmp", host="h", params=given)
        given["a"] = "2"
        assert url.params == {"a": "1"} and str(url).endswith("?a=1")
        pinned = url.with_protocol("nws")
        assert pinned.params == url.params and pinned.params is not url.params

    def test_fields_are_frozen(self):
        url = JdbcUrl.parse("jdbc:snmp://h/x")
        with pytest.raises(AttributeError):
            url.host = "other"

    def test_errors_are_not_memoised(self, monkeypatch):
        matches = []

        class Spy:
            def match(self, text, _pattern=url_module._URL_RE):
                matches.append(text)
                return _pattern.match(text)

        monkeypatch.setattr(url_module, "_URL_RE", Spy())
        for _ in range(3):
            with pytest.raises(SQLException):
                JdbcUrl.parse("jdbc:snmp://h:70000/never-memoised")
        assert len(matches) == 3
        good = "jdbc:snmp://h:7000/memoised-once"
        for _ in range(3):
            JdbcUrl.parse(good)
        assert matches.count(good) == 1

    def test_memo_is_bounded(self):
        for i in range(5000):
            JdbcUrl.parse(f"jdbc:snmp://bounded-{i}/x")
        info = JdbcUrl.parse.cache_info()
        assert info.currsize <= info.maxsize == url_module.PARSE_MEMO_SIZE

    def test_text_is_rendered_once_per_instance(self, monkeypatch):
        renders = []
        render = JdbcUrl._render

        def spy(self):
            renders.append(self.host)
            return render(self)

        monkeypatch.setattr(JdbcUrl, "_render", spy)
        url = JdbcUrl.parse("jdbc:snmp://rendered-once:1161/x?b=2&a=1")
        for _ in range(5):
            assert str(url) == "jdbc:snmp://rendered-once:1161/x?a=1&b=2"
        assert renders == ["rendered-once"]
        assert JdbcUrl.parse(str(url)) == url
