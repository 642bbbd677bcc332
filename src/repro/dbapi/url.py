"""JDBC-style URL parsing.

GridRM clients address data sources with JDBC URLs.  The paper gives two
forms (§3.2.2):

* ``jdbc:nws://snowboard.workgroup/perfdata`` — protocol pinned: only the
  NWS driver may serve the request;
* ``jdbc:://snowboard.workgroup/perfdata`` — protocol empty: "use the
  first available driver" (the registry scans ``accepts_url``).

We additionally accept ``jdbc://host/path`` as the protocol-less form and
``?key=value&...`` query parameters (community strings, ports, cache
hints), which real JDBC URLs carry the same way.

A dashboard resends the same few URL texts with every read, so
:meth:`JdbcUrl.parse` keeps one instance per distinct text in a bounded
memo and an instance renders its canonical text once, at construction:
a warm read matches no regex and formats no string.  Sharing is safe
because an instance is immutable all the way down (``params`` is a
read-only mapping); URL texts come from clients, so the memo is bounded
and a malformed text is rejected afresh on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.dbapi.exceptions import SQLException

#: Distinct URL texts :meth:`JdbcUrl.parse` remembers (LRU beyond it).
PARSE_MEMO_SIZE = 1024
#: Largest port a URL may name.
MAX_PORT = 65535

_URL_RE = re.compile(
    r"""
    ^jdbc:
    (?:(?P<protocol>[A-Za-z][A-Za-z0-9+._-]*)?:)?   # optional ":<subprotocol>:"
    //
    (?P<host>[^:/?\#\s]+)
    (?::(?P<port>[0-9]{1,5}))?                      # ASCII digits only
    (?P<path>/[^?\#\s]*)?
    (?:\?(?P<query>[^\#\s]*))?
    $
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class JdbcUrl:
    """A parsed ``jdbc:`` URL.

    Attributes:
        protocol: subprotocol selecting a driver family ("snmp", "ganglia",
            ...); empty string means "any compatible driver".
        host: data source host name.
        port: explicit port, or None for the protocol default.
        path: path component without leading slash ("perfdata").
        params: parsed query parameters, read-only (the constructor
            copies the mapping it is given).
    """

    protocol: str
    host: str
    port: int | None = None
    path: str = ""
    params: Mapping[str, str] = field(default_factory=dict)
    #: Canonical text, rendered once; ``str(url)`` returns it.
    _text: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.host:
            raise SQLException("JDBC URL requires a host")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "_text", self._render())

    @classmethod
    @lru_cache(maxsize=PARSE_MEMO_SIZE)
    def parse(cls, text: str) -> "JdbcUrl":
        """The URL ``text`` spells; raises :class:`SQLException` on
        malformed input.  Equal texts share one instance."""
        # ``lru_cache`` keeps results only: a text that raises is
        # parsed, and rejected, again on every call.
        m = _URL_RE.match(text.strip())
        port = int(m.group("port")) if m is not None and m.group("port") else None
        if m is None or (port is not None and port > MAX_PORT):
            raise SQLException(f"malformed JDBC URL: {text!r}")
        params: dict[str, str] = {}
        query = m.group("query")
        if query:
            for pair in query.split("&"):
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                params[key] = value
        return cls(
            protocol=(m.group("protocol") or "").lower(),
            host=m.group("host"),
            port=port,
            path=(m.group("path") or "").lstrip("/"),
            params=params,
        )

    @property
    def is_wildcard(self) -> bool:
        """True when no subprotocol was given (dynamic driver selection)."""
        return self.protocol == ""

    def with_protocol(self, protocol: str) -> "JdbcUrl":
        """A copy of this URL pinned to ``protocol``."""
        return JdbcUrl(
            protocol=protocol.lower(),
            host=self.host,
            port=self.port,
            path=self.path,
            params=self.params,
        )

    def __str__(self) -> str:
        return self._text

    def _render(self) -> str:
        port = f":{self.port}" if self.port is not None else ""
        path = f"/{self.path}" if self.path else ""
        query = (
            "?" + "&".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            if self.params
            else ""
        )
        return f"jdbc:{self.protocol}://{self.host}{port}{path}{query}"

