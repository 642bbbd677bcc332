"""The reference gmond parser: the oracle the driver's scanner answers to.

This is ``parse_ganglia_xml`` as it was before it became one compiled
element pattern with a fast METRIC alternative: one tag pattern read
with ``finditer`` and one ``dict(_ATTR_RE.findall(...))`` per element,
kept verbatim except for two declared fixes:

* every attribute value read is XML-unescaped (the five predefined
  entities, exactly what ``GangliaAgent._xml_escape`` writes and more);
* an integer-typed ``VAL`` that is integer text is read with ``int``,
  so ``uint64`` values past 2**53 keep their precision; any other text
  takes the old ``int(float(raw))``, which raises what it always raised.

``tests/test_gmond_scanner.py`` holds the driver to it: equal records,
or equal exception types and messages, for every input.  It imports
nothing from ``repro``.
"""

from __future__ import annotations

import re
from typing import Any
from xml.sax.saxutils import unescape

_TAG_RE = re.compile(r"<(/?)(\w+)((?:\s+\w+=\"[^\"]*\")*)\s*(/?)>")
_ATTR_RE = re.compile(r"(\w+)=\"([^\"]*)\"")
_ENTITIES = {"&quot;": '"', "&apos;": "'"}


class GangliaXmlError(ValueError):
    """The agent response was not well-formed gmond XML."""


def _unescaped(attr_text: str) -> dict[str, str]:
    return {k: unescape(v, _ENTITIES) for k, v in _ATTR_RE.findall(attr_text)}


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        return int(float(raw))


def parse_ganglia_xml(xml: str) -> list[dict[str, Any]]:
    """Parse a gmond dump into one flat record per HOST element.

    Each record maps metric NAME -> typed VAL, plus ``_host``/``_ip``/
    ``_cluster``/``_reported`` pseudo-metrics from the element attributes.
    """
    records: list[dict[str, Any]] = []
    cluster = ""
    current: dict[str, Any] | None = None
    for m in _TAG_RE.finditer(xml):
        closing, tag, attr_text, selfclosing = m.groups()
        if closing:
            if tag == "HOST":
                if current is None:
                    raise GangliaXmlError("</HOST> without <HOST>")
                records.append(current)
                current = None
            continue
        attrs = _unescaped(attr_text)
        if tag == "CLUSTER":
            cluster = attrs.get("NAME", "")
        elif tag == "HOST":
            if current is not None:
                raise GangliaXmlError("nested <HOST>")
            current = {
                "_host": attrs.get("NAME", ""),
                "_ip": attrs.get("IP", ""),
                "_cluster": cluster,
                "_reported": float(attrs.get("REPORTED", "0")),
            }
        elif tag == "METRIC":
            if current is None:
                raise GangliaXmlError("<METRIC> outside <HOST>")
            name = attrs.get("NAME")
            if name is None:
                raise GangliaXmlError("<METRIC> without NAME")
            raw = attrs.get("VAL", "")
            mtype = attrs.get("TYPE", "string")
            value: Any
            if mtype == "string":
                value = raw
            elif mtype.startswith(("uint", "int")):
                value = _integer(raw)
            else:
                value = float(raw)
            current[name] = value
    if current is not None:
        raise GangliaXmlError("unterminated <HOST>")
    return records
