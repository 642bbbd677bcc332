"""The gmond scanner against its reference (``tests/reference_gmond.py``).

``parse_ganglia_xml`` is one compiled element pattern whose first
alternative reads a METRIC in gmond's attribute order straight from the
match; the reference is the tag-plus-attribute-dict parser it replaced
(with the same two declared fixes: entities decoded, integer text read
exactly).  For every input both must return the same records, or raise
the same exception type with the same message.  Inputs are real dumps
from :class:`~repro.agents.ganglia.GangliaAgent`, mutated under the
fixed derandomized Hypothesis profile ``gmond-scanner``: attributes
permuted, ``NAME`` / ``VAL`` / ``TYPE`` repeated, tab and newline
separators, attributes dropped, unknown and unclosed tags, entities and
odd values; plus truncation at every element boundary.

Run: ``PYTHONPATH=src python -m pytest tests/test_gmond_scanner.py -q``.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.ganglia import GangliaAgent, _xml_escape
from repro.agents.host_model import HostSpec, SimulatedHost
from repro.drivers.ganglia_driver import parse_ganglia_xml
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from tests import reference_gmond as ref

settings.register_profile(
    "gmond-scanner", max_examples=600, derandomize=True, deadline=None, database=None
)


def outcome(parse, xml: str):
    """What a parser makes of ``xml``: the records (as ``repr``, so a NaN
    equals itself), or the exception's type name and message.  Both raise
    only ``ValueError`` (``GangliaXmlError`` included) and ``OverflowError``."""
    try:
        return "ok", repr(parse(xml))
    except (ValueError, OverflowError) as exc:
        return "error", type(exc).__name__, str(exc)


def assert_same(xml: str) -> None:
    assert outcome(parse_ganglia_xml, xml) == outcome(ref.parse_ganglia_xml, xml)


def _dump(cluster: str = "cluster-x", names=("g0", "g1")) -> str:
    clock = VirtualClock()
    network = Network(clock, seed=5)
    hosts = []
    for i, name in enumerate(names):
        network.add_host(name, site="s")
        hosts.append(SimulatedHost(HostSpec.generate(name, "s", 40 + i), clock))
    network.add_host("gmond", site="s")
    agent = GangliaAgent(cluster, hosts, network, bind_host="gmond")
    clock.advance(30)
    return agent.render_xml()


#: One element per line, as the agent renders it.
BASE_LINES = _dump().split("\n")
_ELEMENT = re.compile(r'<(/?)(\w+)((?:\s+\w+="[^"]*")*)\s*(/?)>')
_ATTR = re.compile(r'(\w+)="([^"]*)"')

VALUES = [
    "18446744073709551615", "-9007199254740993", "nan", "inf", "-inf", "1e3", "1.5",
    " 7 ", "1_000", "٣", "", "abc", "0x10", "&lt;&amp;&gt;", "&quot;q&apos;", "&#38;",
    "a&b", "&amp;lt;",
]
TYPES = ["uint64", "uint32", "int8", "float", "double", "string", "", "&quot;", "timestamp"]
SEPARATORS = [" ", "\t", "\n", "  ", " \t\n"]
FOREIGN = [
    '<FOO A="1">', "</FOO>", "<BAR/>", '<METRIC NAME="x"', "<HOST", '<HOST NAME="h"',
    "</HOST>", "<HOST>", "<METRIC/>", '<METRIC VAL="1"/>', "<", ">", "&", '"',
    '<CLUSTER NAME="c&amp;d">', '<METRICS NAME="a" VAL="1" TYPE="float"/>',
    '</METRIC NAME="a">',
]


def _element(line: str):
    m = _ELEMENT.fullmatch(line)
    if m is None:
        return None
    closing, tag, attr_text, slash = m.groups()
    return closing, tag, _ATTR.findall(attr_text), slash


def _render(closing, tag, attrs, slash, separators, tail="") -> str:
    out = f"<{closing}{tag}"
    for i, (k, v) in enumerate(attrs):
        out += separators[i % len(separators)] + f'{k}="{v}"'
    return out + f"{tail}{slash}>"


@st.composite
def mutated_line(draw, line: str) -> list[str]:
    """One line of a dump after one mutation."""
    op = draw(st.sampled_from(
        ["permute", "repeat", "separate", "drop", "name", "value", "type", "insert", "cut"]
    ))
    if op == "insert":
        return [draw(st.sampled_from(FOREIGN)), line]
    if op == "cut":
        return [line[: draw(st.integers(0, len(line)))]]
    parts = _element(line)
    if parts is None:
        return [line]
    closing, tag, attrs, slash = parts
    attrs = list(attrs)
    separators, tail = [" "], ""
    if op == "permute":
        attrs = draw(st.permutations(attrs))
    elif op == "repeat":
        key = draw(st.sampled_from(["NAME", "VAL", "TYPE"]))
        attrs.insert(draw(st.integers(0, len(attrs))), (key, draw(st.sampled_from(VALUES))))
    elif op == "separate":
        separators = draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3))
        tail = draw(st.sampled_from(["", *SEPARATORS]))
    elif op == "drop" and attrs:
        del attrs[draw(st.integers(0, len(attrs) - 1))]
    elif op in ("name", "value", "type"):
        key = {"name": "NAME", "value": "VAL", "type": "TYPE"}[op]
        pool = TYPES if op == "type" else VALUES
        attrs = [(k, draw(st.sampled_from(pool)) if k == key else v) for k, v in attrs]
    return [_render(closing, tag, attrs, slash, separators, tail)]


@settings(settings.get_profile("gmond-scanner"))
@given(data=st.data())
def test_mutated_dumps_parse_like_the_reference(data):
    lines = list(BASE_LINES)
    for _ in range(data.draw(st.integers(1, 8), label="mutations")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i : i + 1] = data.draw(mutated_line(lines[i]), label="mutated")
    assert_same(data.draw(st.sampled_from(["\n", "", " "]), label="joiner").join(lines))


def test_the_agent_dump_parses_like_the_reference():
    assert_same("\n".join(BASE_LINES))
    assert outcome(parse_ganglia_xml, "\n".join(BASE_LINES))[0] == "ok"


def test_truncation_at_every_element_boundary():
    xml = "\n".join(BASE_LINES)
    cuts = {0, len(xml)}
    for m in re.finditer(r"[<>]", xml):
        cuts.update((m.start(), m.end()))
    for cut in sorted(cuts):
        assert_same(xml[:cut])


@pytest.mark.parametrize("text", [
    "plain", "a&b", "<smp>", '"quoted"', "2.4 <smp> & \"x\"", "&amp;", "&lt;&gt;",
    "'apos'", "&#38;", "tab\there",
])
def test_escaped_text_round_trips(text):
    """Bugfix: the agent escapes ``& < > "`` in every name and string
    value; the parser used to hand the escaped text back as the value."""
    xml = _dump(cluster=text, names=("h0",)).replace('VAL="Linux"', f'VAL="{_xml_escape(text)}"')
    xml = xml.replace('NAME="h0"', f'NAME="{_xml_escape(text)}"')
    (record,) = parse_ganglia_xml(xml)
    assert record["_cluster"] == text
    assert record["_host"] == text
    assert record["os_name"] == text
    assert_same(xml)


def test_the_five_predefined_entities_and_no_others_are_decoded():
    xml = (
        '<HOST NAME="h" IP="" REPORTED="0">'
        '<METRIC NAME="m" VAL="&lt;&gt;&amp;&quot;&apos;&#38;&nbsp;" TYPE="string"/></HOST>'
    )
    (record,) = parse_ganglia_xml(xml)
    assert record["m"] == "<>&\"'&#38;&nbsp;"


@pytest.mark.parametrize("raw, expected", [
    ("18446744073709551615", 18446744073709551615),
    ("9007199254740993", 9007199254740993),
    ("-42", -42),
    ("1.9", 1),
    ("1e3", 1000),
])
def test_integer_metrics_keep_their_precision(raw, expected):
    """Bugfix: ``int(float(raw))`` rounded integers past 2**53."""
    xml = f'<HOST NAME="h" IP="" REPORTED="0"><METRIC NAME="m" VAL="{raw}" TYPE="uint64"/></HOST>'
    (record,) = parse_ganglia_xml(xml)
    assert record["m"] == expected
    assert type(record["m"]) is int


@pytest.mark.parametrize("raw, exc, message", [
    ("nan", ValueError, "cannot convert float NaN to integer"),
    ("inf", OverflowError, "cannot convert float infinity to integer"),
    ("abc", ValueError, "could not convert string to float: 'abc'"),
])
def test_integer_metrics_still_raise_what_they_raised(raw, exc, message):
    xml = f'<HOST NAME="h" IP="" REPORTED="0"><METRIC NAME="m" VAL="{raw}" TYPE="int32"/></HOST>'
    with pytest.raises(exc) as info:
        parse_ganglia_xml(xml)
    assert str(info.value) == message
