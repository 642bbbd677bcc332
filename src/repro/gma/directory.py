"""GMA directory service.

The directory is itself a networked service (Figure 1 shows gateways
registering with a "GMA Directory"): it runs on its own host and answers
register / unregister / lookup requests.  :class:`DirectoryClient` is the
stub gateways and consumers use.

Wire protocol (tuples over the simulated network):

* ``("register_producer", record_fields)`` -> ``("ok",)``
* ``("unregister_producer", key)`` -> ``("ok",)`` | ``("missing",)``
* ``("lookup_site", site)`` -> ``("ok", [record_fields...])``
* ``("list_producers",)`` -> ``("ok", [record_fields...])``

A request of the wrong shape (arity, a record that is not a mapping of
:class:`ProducerRecord` fields, a non-string site or key) is answered
``("error", "malformed request")`` and changes nothing.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any, Mapping

from repro.gma.records import ProducerRecord
from repro.simnet.network import Address, Network

DIRECTORY_PORT = 8200

_MALFORMED = ("error", "malformed request")
_RECORD_FIELDS = frozenset(f.name for f in fields(ProducerRecord))
_REQUIRED_FIELDS = frozenset({"site", "gateway_host", "port"})


def _is_record(arg: Any) -> bool:
    """A mapping carrying the required :class:`ProducerRecord` fields and
    no key outside the record's own."""
    return (
        isinstance(arg, Mapping)
        and _REQUIRED_FIELDS <= arg.keys() <= _RECORD_FIELDS
    )


class GMADirectory:
    """The directory service process."""

    def __init__(
        self, network: Network, host: str = "gma-directory", *, port: int = DIRECTORY_PORT
    ) -> None:
        if not network.has_host(host):
            network.add_host(host, site="gma")
        self.network = network
        self.address = Address(host, port)
        self._producers: dict[str, ProducerRecord] = {}
        self.requests_served = 0
        network.listen(self.address, self._handle)

    # ------------------------------------------------------------------
    def _handle(self, payload: Any, src: Address) -> tuple:
        self.requests_served += 1
        if not isinstance(payload, tuple) or not payload:
            return _MALFORMED
        op, args = payload[0], payload[1:]
        if op == "register_producer":
            if len(args) != 1 or not _is_record(args[0]):
                return _MALFORMED
            record = ProducerRecord(**args[0])
            self._producers[record.key()] = record
            return ("ok",)
        if op in ("unregister_producer", "lookup_site"):
            if len(args) != 1 or not isinstance(args[0], str):
                return _MALFORMED
            if op == "unregister_producer":
                return ("ok",) if self._producers.pop(args[0], None) else ("missing",)
            hits = [asdict(r) for r in self._producers.values() if r.site == args[0]]
            return ("ok", hits)
        if op == "list_producers":
            if args:
                return _MALFORMED
            return ("ok", [asdict(r) for r in self._producers.values()])
        return ("error", f"unknown op {op!r}")

    # Direct (in-process) view, for tests and the console.
    def producers(self) -> list[ProducerRecord]:
        return sorted(self._producers.values(), key=ProducerRecord.key)


class DirectoryClient:
    """Network stub for the directory service."""

    def __init__(self, network: Network, from_host: str, directory: Address) -> None:
        self.network = network
        self.from_host = from_host
        self.directory = directory

    def _call(self, *payload: Any) -> tuple:
        response = self.network.request(self.from_host, self.directory, tuple(payload))
        if not isinstance(response, tuple) or not response:
            raise RuntimeError("malformed directory response")
        if response[0] == "error":
            raise RuntimeError(f"directory error: {response[1]}")
        return response

    def register_producer(self, record: ProducerRecord) -> None:
        self._call("register_producer", asdict(record))

    def unregister_producer(self, key: str) -> bool:
        return self._call("unregister_producer", key)[0] == "ok"

    def lookup_site(self, site: str) -> list[ProducerRecord]:
        return [ProducerRecord(**d) for d in self._call("lookup_site", site)[1]]

    def list_producers(self) -> list[ProducerRecord]:
        return [ProducerRecord(**d) for d in self._call("list_producers")[1]]
