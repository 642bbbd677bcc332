"""GMA directory service.

The directory is itself a networked service (Figure 1 shows gateways
registering with a "GMA Directory"): it runs on its own host and answers
register / unregister / lookup requests.  :class:`DirectoryClient` is the
stub gateways and consumers use.

Wire protocol (tuples over the simulated network; a record crosses as
the mapping :meth:`ProducerRecord.from_wire` reads, on both sides):

* ``("register_producer", record)`` -> ``("ok",)``
* ``("unregister_producer", key)`` -> ``("ok",)`` | ``("missing",)``
* ``("lookup_site", site)`` -> ``("ok", [record...])``
* ``("list_producers",)`` -> ``("ok", [record...])``

A request of the wrong shape (arity, a record that is not one, a
non-string site or key) is answered ``("error", "malformed request")``
and changes nothing.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable

from repro.gma.records import ProducerRecord, RemoteQueryFailure, call
from repro.simnet.network import Address, Network

DIRECTORY_PORT = 8200

_MALFORMED = ("error", "malformed request")


def _text(arg: Any) -> str:
    if type(arg) is not str:
        raise RemoteQueryFailure(f"bad argument {arg!r}")
    return arg


class GMADirectory:
    """The directory service process."""

    def __init__(
        self, network: Network, host: str = "gma-directory", *, port: int = DIRECTORY_PORT
    ) -> None:
        if not network.has_host(host):
            network.add_host(host, site="gma")
        self.address = Address(host, port)
        self._producers: dict[str, ProducerRecord] = {}
        #: op -> (handler, one parser per argument); a parser refuses a
        #: wrong-typed argument before the handler changes anything.
        self._ops: dict[str, tuple[Callable[..., tuple], ...]] = {
            "register_producer": (self._register, ProducerRecord.from_wire),
            "unregister_producer": (self._unregister, _text),
            "lookup_site": (self._listing, _text),
            "list_producers": (self._listing,),
        }
        network.listen(self.address, self._handle)

    # ------------------------------------------------------------------
    def _handle(self, payload: Any, src: Address) -> tuple:
        if not isinstance(payload, tuple) or not payload:
            return _MALFORMED
        op, args = payload[0], payload[1:]
        if type(op) is not str or op not in self._ops:
            return ("error", f"unknown op {op!r}")
        handler, *parsers = self._ops[op]
        if len(args) != len(parsers):
            return _MALFORMED
        try:
            return handler(*(parse(arg) for parse, arg in zip(parsers, args)))
        except RemoteQueryFailure:
            return _MALFORMED

    def _register(self, record: ProducerRecord) -> tuple:
        self._producers[record.key()] = record
        return ("ok",)

    def _unregister(self, key: str) -> tuple:
        return ("ok",) if self._producers.pop(key, None) else ("missing",)

    def _listing(self, site: str | None = None) -> tuple:
        return (
            "ok",
            [asdict(r) for r in self._producers.values() if site in (None, r.site)],
        )

    # Direct (in-process) view, for tests and the console.
    def producers(self) -> list[ProducerRecord]:
        return sorted(self._producers.values(), key=ProducerRecord.key)


class DirectoryClient:
    """Network stub for the directory service.

    Every failure — directory unreachable, an ``error`` reply, a record
    that is not one — is a :class:`RemoteQueryFailure`.
    """

    def __init__(self, network: Network, from_host: str, directory: Address) -> None:
        self.network = network
        self.from_host = from_host
        self.directory = directory

    def _call(self, *payload: Any) -> tuple:
        return call(self.network, self.from_host, self.directory, payload)

    def _records(self, *payload: Any) -> list[ProducerRecord]:
        reply = self._call(*payload)
        if len(reply) != 2 or type(reply[1]) is not list:
            raise RemoteQueryFailure(f"{self.directory}: malformed reply")
        return [ProducerRecord.from_wire(raw) for raw in reply[1]]

    def register_producer(self, record: ProducerRecord) -> None:
        self._call("register_producer", asdict(record))

    def unregister_producer(self, key: str) -> bool:
        return self._call("unregister_producer", key)[0] == "ok"

    def lookup_site(self, site: str) -> list[ProducerRecord]:
        return self._records("lookup_site", site)

    def list_producers(self) -> list[ProducerRecord]:
        return self._records("list_producers")
