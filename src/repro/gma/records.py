"""What crosses the gateway-to-gateway wires, and their one trust boundary.

The Global layer is three processes — producer, consumer, directory
(paper §1.1, §2) — each answering requests from, and trusting replies
of, machines it does not run.  The dict wires (GMA query, stream
control) share one envelope::

    {"op": name, ...fields, "query_class", "deadline_budget", "trace_ctx"}
      -> {"ok": True, ...}                               an answer
       | {"ok": False, "error": text}                    a refusal
       | {"ok": False, "shed": True, "retry_after": s,
          "query_class": c, "error": text}               a typed shed

:func:`serve` is the one listener body, :func:`call` the one client body
(the directory's tuple protocol included), :func:`stamp` attaches and
:func:`inherit` re-anchors the three hop fields, and every field of an
untrusted message is read through :class:`Fields`.  A shed is the peer
protecting itself: clients see :class:`OverloadError`, never a breaker
penalty or a failover storm.  Anything else that goes wrong between two
gateways is a :class:`RemoteQueryFailure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Mapping, TypeVar, cast

from repro.core.deadline import Deadline
from repro.core.errors import DeadlineExceededError, GridRmError, OverloadError
from repro.core.request_manager import SourceStatus
from repro.dbapi.exceptions import SQLException
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.errors import NetworkError
from repro.simnet.network import Address, Network
from repro.sql.errors import SqlError

_T = TypeVar("_T")
_Message = TypeVar("_Message", dict[str, Any], tuple[Any, ...])


class RemoteQueryFailure(GridRmError, NetworkError):
    """The peer was unreachable, refused the request, or a message was
    out of shape.  A :class:`GridRmError`, so the dispatch layer shares
    it as a flight outcome and a listener encodes it as a refusal; a
    :class:`NetworkError`, because that is what stream consumers have
    always been told a rejected registration raises."""


class Fields:
    """Typed reads of one untrusted message: a field of the wrong type
    is ``bad <key> <value>``, never coerced, never a raw ``TypeError``.
    ``None`` and absent are the same.  ``float`` takes any finite int or
    float; every other kind is matched exactly (a bool is not an int)."""

    __slots__ = ("raw",)

    def __init__(self, raw: Mapping[str, Any]) -> None:
        self.raw = raw

    def bad(self, key: str) -> RemoteQueryFailure:
        return RemoteQueryFailure(f"bad {key} {self.raw.get(key)!r}")

    def opt(self, key: str, kind: type[_T]) -> _T | None:
        value = self.raw.get(key)
        if value is None:
            return None
        if kind is float and type(value) is int and abs(value) < 2**1023:
            value = float(value)  # (an int no float can hold is refused below)
        if type(value) is not kind or (kind is float and not math.isfinite(value)):
            raise self.bad(key)
        return cast(_T, value)

    def get(self, key: str, kind: type[_T]) -> _T:
        value = self.opt(key, kind)
        if value is None:
            raise self.bad(key)
        return value

    def items(self, key: str, of: type[_T]) -> list[_T]:
        """A list (or tuple) field whose members are all exactly ``of``;
        ``[]`` when absent."""
        value = self.raw.get(key)
        if value is None:
            return []
        if type(value) not in (list, tuple) or any(type(v) is not of for v in value):
            raise self.bad(key)
        return list(value)

    @property
    def ok(self) -> bool:
        return self.raw.get("ok") is True

    def accepted(self, what: str) -> "Fields":
        """This reply, unless the peer refused the request."""
        if not self.ok:
            raise RemoteQueryFailure(f"{what}: {self.raw.get('error')}")
        return self


@dataclass(frozen=True)
class ProducerRecord:
    """A producer's directory entry: who serves which site's data."""

    site: str
    gateway_host: str
    port: int
    groups: tuple[str, ...] = ()
    registered_at: float = 0.0

    def key(self) -> str:
        return f"{self.site}@{self.gateway_host}:{self.port}"

    @classmethod
    def from_wire(cls, raw: Any) -> "ProducerRecord":
        """The record a directory message carries (``asdict`` of one): a
        mapping of this class's fields and no others, each of its type."""
        if not isinstance(raw, Mapping) or not raw.keys() <= _RECORD_FIELDS:
            raise RemoteQueryFailure(f"bad producer record {raw!r}")
        record = Fields(raw)
        return cls(
            record.get("site", str),
            record.get("gateway_host", str),
            record.get("port", int),
            tuple(record.items("groups", str)),
            record.opt("registered_at", float) or 0.0,
        )


_RECORD_FIELDS = frozenset(f.name for f in fields(ProducerRecord))

Handler = Callable[[Fields], "dict[str, Any]"]


def serve(ops: Mapping[str, Handler], payload: Any) -> dict[str, Any]:
    """Answer one request of a dict wire from its op table.

    Handlers read every field they use before they change any state, so
    a refused request allocates nothing.  Never raises for anything a
    peer can send.
    """
    if not isinstance(payload, dict) or "op" not in payload:
        return {"ok": False, "error": "malformed request"}
    op = payload["op"]
    handler = ops.get(op) if isinstance(op, str) else None
    if handler is None:
        return {"ok": False, "error": f"unknown op {op!r}"}
    try:
        return handler(Fields(payload))
    except OverloadError as exc:
        return {
            "ok": False,
            "shed": True,
            "retry_after": exc.retry_after,
            "query_class": exc.query_class,
            "error": str(exc),
        }
    except (GridRmError, SQLException, SqlError) as exc:
        return {"ok": False, "error": str(exc)}


def stamp(
    payload: dict[str, Any],
    *,
    tracer: Tracer,
    deadline: Deadline | None,
    query_class: str | None,
    what: str,
) -> float | None:
    """Attach what the next hop inherits; returns the network timeout,
    clamped to the remaining budget (``None``: the transport's own).

    ``query_class`` lets the peer shed by the *originating* query's
    priority; ``deadline_budget`` is relative seconds, because the peer's
    clock is not ours to anchor an instant against; ``trace_ctx`` is the
    span the peer's own trace hangs under (stamp before opening the
    hop's span).
    """
    if query_class:
        payload["query_class"] = query_class
    timeout = None
    if deadline is not None:
        timeout = deadline.clamp(Network.DEFAULT_TIMEOUT, what)
        payload["deadline_budget"] = deadline.remaining()
    ctx = tracer.context()
    if ctx is not None:
        payload["trace_ctx"] = ctx
    return timeout


def inherit(
    request: Fields, clock: VirtualClock, what: str
) -> tuple[Deadline | None, dict[str, Any] | None, str | None]:
    """Re-anchor what :func:`stamp` attached, against our own clock:
    ``(deadline, trace parent, query class)``.  A request that arrives
    with no budget left is refused before the listener touches anything."""
    budget = request.opt("deadline_budget", float)
    if budget is not None and budget <= 0:
        raise DeadlineExceededError(
            f"deadline exhausted: {what} arrived with no budget left"
        )
    return (
        None if budget is None else Deadline.after(clock, budget),
        request.opt("trace_ctx", dict),
        request.opt("query_class", str) or None,
    )


def call(
    network: Network,
    from_host: str,
    address: Address,
    payload: _Message,
    *,
    timeout: float | None = None,
) -> _Message:
    """Send one request; the peer's reply, in the request's own form.

    A dict wire answers a dict with a boolean ``ok`` (a refusal is
    handed back: :meth:`Fields.accepted`), the directory a non-empty
    tuple headed by a status word.  Raises :class:`OverloadError` for a
    typed shed — a hostile retry hint is 0, not an error — and
    :class:`RemoteQueryFailure` for an unreachable peer, a directory
    ``error`` or a reply of any other shape.
    """
    try:
        reply = network.request(from_host, address, payload, timeout=timeout)
    except NetworkError as exc:
        raise RemoteQueryFailure(f"{address} unreachable: {exc}") from exc
    if isinstance(payload, tuple):
        if type(reply) is not tuple or not reply or type(reply[0]) is not str:
            raise RemoteQueryFailure(f"{address}: malformed reply")
        if reply[0] == "error":
            raise RemoteQueryFailure(f"{address}: {' '.join(map(str, reply[1:]))}")
    elif type(reply) is not dict or type(reply.get("ok")) is not bool:
        raise RemoteQueryFailure(f"{address}: malformed reply")
    elif reply.get("shed"):
        hint = reply.get("retry_after")
        usable = type(hint) in (int, float) and 0 <= hint < 2**1023
        raise OverloadError(
            f"{address} shed the request: {reply.get('error')}",
            retry_after=float(hint) if usable else 0.0,
            query_class=str(reply.get("query_class") or ""),
        )
    return cast(_Message, reply)


def pack_statuses(statuses: Iterable[SourceStatus]) -> dict[str, Any]:
    """Per-source outcomes, batched: the keys cross the wire once per
    reply and every status is a positional row under them."""
    return {
        "status_keys": list(SourceStatus.WIRE_KEYS),
        "status_rows": [s.to_wire() for s in statuses],
    }


def unpack_statuses(reply: Fields) -> list[SourceStatus]:
    if reply.items("status_keys", str) != list(SourceStatus.WIRE_KEYS):
        raise reply.bad("status_keys")
    try:
        return [SourceStatus.from_wire(*row) for row in reply.get("status_rows", list)]
    except (TypeError, ValueError):  # a row that is no row, ragged, mistyped
        raise reply.bad("status_rows") from None
