"""Continuous SQL subscriptions — GridRM's streaming plane.

GMA names three interaction modes: request/response, query, and
*subscription*.  The R-GMA work the paper cites (Cooke & Nutt) makes the
third mode relational: a consumer registers ``SELECT ... FROM Processor
WHERE load > 0.9`` **once** and receives matching tuples as producers
publish them, with the predicate evaluated at the source rather than the
consumer.  This module is that plane for GridRM:

* :class:`StreamHub` — the producing gateway's registration endpoint.
  A continuous query is compiled once through the shared
  :class:`~repro.core.plans.PlanCache`; on every publish the bound
  predicate/projection runs *here*, and only matching tuples cross the
  wire.  Three producer flavours (R-GMA's vocabulary): ``latest``
  replays the current row per source on attach, ``history`` replays
  from the gateway's :class:`~repro.core.history.HistoryStore` since a
  client watermark, ``stream`` is publish-forward only.
* :class:`StreamConsumer` — the consumer side: registers continuous
  queries, receives tuple batches in frames, renews leases, and
  re-registers when a partition let a lease lapse.
* :class:`Republisher` — an archiving consumer upgraded to a producer:
  it subscribes to upstream tuple streams, folds them into windowed
  per-key aggregates (per-site ``AVG(load)``), and publishes the derived
  rows through its **own** hub, which downstream consumers subscribe to
  like any source.

The push wire ships **one frame per consumer address per query round**:
``{"kind": "gridrm-frame", "batches": [...]}``, each member the
:func:`encode_batch` form of what one subscription is owed by one
source's snapshot, in the order the hub evaluated them.  A gateway query
publishes its whole fan-out in one :meth:`StreamHub.publish` call once
the fan-out is over, so a viewer holding thirty subscriptions over eight
sources costs the hub one datagram (and one ``push`` span) per round,
not one per source or per subscription; what a consumer observes per
subscription — batches, rows, callbacks — does not depend on how they
were framed.  A lost datagram therefore loses that consumer's whole
share of one round; recovery is per flavour, as before.  A member
carries its own ``published_at`` / ``source_url`` / ``replay`` because
one frame mixes sources (and a resume flush mixes publishes).

Flow control is a bounded buffer with pause/resume: while a subscription
is paused its tuples buffer (bounded) at the hub, and overflow fates
(``drop_oldest`` | ``pause``) are counted, never silent.  The event
plane (:mod:`repro.gma.subscription`) is an instance of this module — a
hub over a one-group ``Event`` schema — so it is the only lease, buffer
and renew implementation.  Registration rides the same
Deadline / QueryClass / trace-context envelope as the GMA query wire,
and the hub honours the gateway's admission state: in BROWNOUT and SHED
pushes to BATCH-class subscriptions are suppressed (counted), and new
BATCH registrations are refused with a typed shed while the gateway is
shedding.

Leases sweep with a one-period **tombstone grace**: a subscription the
sweeper removed stays resurrectable until the *next* sweep, so a renewal
whose arrival the virtual clock inflated past the expiry instant (a
nested callback can push ``now`` beyond a later callback's due time —
see ``VirtualClock.advance_to``) still lands, and a short partition
heals without a re-registration round-trip.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.analysis import races
from repro.core.admission import QueryClass
from repro.gma.archiver import EventArchiver
from repro.core.deadline import Deadline
from repro.core.errors import OverloadError, PolicyError
from repro.core.history import HistoryStore
from repro.core.policy import GatewayPolicy
from repro.core.shed import PressureState, ShedAction, shed_action
from repro.glue.schema import GlueField, GlueGroup, GlueSchema
from repro.gma.records import (
    Fields,
    Handler,
    RemoteQueryFailure,
    call,
    inherit,
    serve,
    stamp,
)
from repro.obs.trace import NO_TRACER, Tracer
from repro.simnet.errors import NetworkError
from repro.simnet.network import Address, Network
from repro.sql.errors import SqlError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.admission import AdmissionController
    from repro.core.plans import PlanCache
    from repro.sql.plan import CompiledPlan

STREAM_PORT = 8500
CONSUMER_PORT = 8501
#: Per-subscription buffer bound for registrations that name none.
DEFAULT_BUFFER = 256

#: Producer flavours, R-GMA's vocabulary (see module docstring).
FLAVOURS = ("stream", "latest", "history")


def encode_batch(
    cq_id: int,
    columns: list[str],
    rows: list[list[Any]],
    *,
    published_at: float,
    source_url: str,
    replay: bool,
) -> dict[str, Any]:
    """Wire form of one delivered tuple batch (plain dict)."""
    return {
        "kind": "gridrm-tuples",
        "cq": cq_id,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "published_at": published_at,
        "source_url": source_url,
        "replay": replay,
    }


def decode_batch(payload: Any) -> Optional[dict[str, Any]]:
    if not isinstance(payload, dict) or payload.get("kind") != "gridrm-tuples":
        return None
    try:
        batch = {
            "kind": "gridrm-tuples",
            "cq": int(payload["cq"]),
            "columns": [str(c) for c in payload["columns"]],
            "rows": [list(r) for r in payload["rows"]],
            "published_at": float(payload["published_at"]),
            "source_url": str(payload.get("source_url", "")),
            "replay": bool(payload.get("replay", False)),
        }
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    # ``published_at`` becomes the consumer's replay watermark: a forged
    # ``inf`` would silence every later ``history`` catch-up, a NaN would
    # poison the ``max`` that advances it.
    if not math.isfinite(batch["published_at"]):
        return None
    return batch


def encode_frame(batches: list[dict[str, Any]]) -> dict[str, Any]:
    """Wire form of one datagram: every batch one publish (or one attach
    replay, or one resume flush) owes one consumer address."""
    return {"kind": "gridrm-frame", "batches": batches}


def decode_frame(payload: Any) -> list[dict[str, Any]]:
    """The well-formed member batches of a frame, in frame order.

    Untrusted boundary: anything that is not a frame yields ``[]``, a
    malformed member is skipped and its siblings are delivered, and
    every member goes through :func:`decode_batch` (rows are copied).
    Never raises.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "gridrm-frame":
        return []
    members = payload.get("batches")
    if not isinstance(members, list):
        return []
    return [b for b in map(decode_batch, members) if b is not None]


#: Encoded batches owed to each consumer address by one publish call, in
#: first-offer order; :meth:`StreamHub._flush` ships one frame per key.
_Outbox = dict[Address, list[dict[str, Any]]]


@dataclass
class _Continuous:
    """One registered continuous query at the hub."""

    cq_id: int
    consumer: Address
    sql: str
    flavour: str
    group: str
    plan: "CompiledPlan"
    query_class: str
    expires_at: float
    #: Backpressure: while paused, batches buffer here (bounded) instead
    #: of being pushed — a continuous query cannot OOM a slow consumer.
    max_buffer: int
    overflow: str
    paused: bool = False
    delivered: int = 0
    tuples: int = 0
    dropped: int = 0
    suppressed: int = 0
    unsatisfied: int = 0
    buffer: "deque[dict[str, Any]]" = field(default_factory=deque)


class StreamHub:
    """Producing-gateway endpoint for continuous SQL subscriptions.

    Control protocol (request/response on :data:`STREAM_PORT`; envelope,
    refusal and shed forms: :mod:`repro.gma.records`)::

        register    sql, host, port, flavour, lease, max_buffer, overflow,
                    watermark (a finite instant >= 0)
                    -> cq, group, replayed
        renew       cq, lease -> ok | "missing"
        deregister  cq        -> ok | "missing"
        pause       cq        -> ok | "missing"
        resume      cq        -> flushed: the buffered batches leave as
                                 one frame, in publish order
        stats       -> stats

    Data plane (one-way datagrams to the registered ``host:port``):
    ``{"kind": "gridrm-frame", "batches": [batch, ...]}`` — one per
    consumer address per :meth:`publish` call (a gateway query round),
    attach replay or resume.  ``stats["pushes"]`` counts batches
    delivered to subscriptions, resume flushes included;
    ``stats["frames"]`` the datagrams that carried them.

    Constructible standalone (the :class:`Republisher` owns one with no
    gateway behind it) or wired by the Gateway when
    ``policy.streaming_enabled`` — the gateway injects its shared plan
    cache, schema, history store, tracer and admission controller.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        plans: "PlanCache",
        schema: GlueSchema,
        policy: GatewayPolicy,
        history: "HistoryStore | None" = None,
        overload: "AdmissionController | None" = None,
        tracer: "Tracer | None" = None,
        port: int = STREAM_PORT,
        replay_limit: int = 256,
    ) -> None:
        if replay_limit < 1:
            raise PolicyError(f"replay_limit must be >= 1: {replay_limit!r}")
        self.network = network
        self.host = host
        self.plans = plans
        #: Newest history rows an attach replay of a ``history``-flavour
        #: subscription may ship.
        self.replay_limit = replay_limit
        self.schema = schema
        self.policy = policy
        self.history = history
        self.overload = overload
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.address = Address(host, port)
        self._subs: dict[int, _Continuous] = {}
        #: Swept subscriptions kept resurrectable until the next sweep
        #: (the lease-gap fix: a renewal the clock carried past the
        #: expiry instant still lands; a short partition heals in place).
        self._tombstones: dict[int, _Continuous] = {}
        self._ids = itertools.count(1)
        #: Current row snapshot per (group, source) — what the ``latest``
        #: flavour replays on attach.
        self._latest: dict[str, dict[str, tuple[list[str], list[list[Any]]]]] = {}
        self.stats = {
            "registered": 0,
            "pushes": 0,
            "frames": 0,
            "tuples": 0,
            "replayed": 0,
            "dropped": 0,
            "suppressed": 0,
            "shed": 0,
            "expired": 0,
            "resurrected": 0,
            "unsatisfied": 0,
        }
        self._ops: dict[str, Handler] = {
            "register": self._register,
            "renew": self._renew,
            "deregister": self._deregister,
            "pause": self._pause,
            "resume": self._resume,
            "stats": lambda _: {"ok": True, "stats": self.snapshot()},
        }
        network.listen(self.address, self._handle_control)
        self._sweep_task = network.clock.call_every(
            policy.stream_sweep_period, self.sweep
        )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _handle_control(self, payload: Any, src: Address) -> dict[str, Any]:
        return serve(self._ops, payload)

    def _register(self, request: Fields) -> dict[str, Any]:
        # Every field is read before the trace opens or an id is drawn:
        # a refused registration leaves no trace and burns no cq id.
        _, trace_parent, query_class = inherit(
            request, self.network.clock, "continuous-query registration"
        )
        sql = request.opt("sql", str) or ""
        flavour = request.opt("flavour", str) or "stream"
        if flavour not in FLAVOURS:
            raise RemoteQueryFailure(f"unknown flavour {flavour!r}")
        overflow = request.opt("overflow", str) or "drop_oldest"
        if overflow not in ("drop_oldest", "pause"):
            raise RemoteQueryFailure(f"unknown overflow policy {overflow!r}")
        watermark = request.opt("watermark", float) or 0.0
        if watermark < 0:
            raise request.bad("watermark")
        consumer = Address(request.opt("host", str) or "", request.opt("port", int) or 0)
        lease = request.opt("lease", float) or self.policy.stream_default_lease
        max_buffer = request.opt("max_buffer", int) or DEFAULT_BUFFER
        qc = QueryClass.parse(query_class)
        with self.tracer.start_trace(
            "subscribe",
            remote_parent=trace_parent,
            sql=sql,
            flavour=flavour,
            query_class=qc.value,
        ) as root:
            self._admit_registration(qc)
            entry = self.plans.get(sql)
            if entry.findings:
                raise RemoteQueryFailure(entry.findings[0].message)
            group = self._canonical(entry.select.table)
            cq = _Continuous(
                cq_id=next(self._ids),
                consumer=consumer,
                sql=sql,
                flavour=flavour,
                group=group,
                plan=entry.compiled(),
                query_class=qc.value,
                expires_at=self.network.clock.now() + lease,
                max_buffer=max_buffer,
                overflow=overflow,
            )
            self._subs[cq.cq_id] = cq
            self.stats["registered"] += 1
            self._wrote(cq.cq_id, "register")
            replayed = self._replay(cq, watermark)
            root.annotate(cq=cq.cq_id, group=group, replayed=replayed)
            return {"ok": True, "cq": cq.cq_id, "group": group, "replayed": replayed}

    def _wrote(self, cq_id: int, op: str) -> None:
        if races.ACTIVE is not None:
            races.ACTIVE.note("stream.subs", str(cq_id), "w", site=f"StreamHub.{op}")

    def _canonical(self, group: str) -> str:
        return self.schema.group(group).name if self.schema.has_group(group) else group

    def _admit_registration(self, qc: QueryClass) -> None:
        """Shed a registration the table has no room for, or a sheddable
        one while the gateway is shedding.

        Only the hard-SHED fate refuses: a registration has no stale to
        serve, so the brownout fates degrade on the *push* side instead
        (see :meth:`publish`).
        """
        ov = self.overload
        full = self.policy.stream_max_subscriptions
        if ov is not None and ov.enabled and shed_action(ov.state, qc) is ShedAction.SHED:
            why = f"gateway is shedding {qc.value} registrations"
            retry_after = ov.monitor.retry_after()
        elif len(self._subs) >= full:
            why = f"continuous-query table full ({full} registrations)"
            retry_after = self.policy.stream_sweep_period
        else:
            return
        self.stats["shed"] += 1
        raise OverloadError(why, retry_after=retry_after, query_class=qc.value)

    def _replay(self, cq: _Continuous, watermark: float) -> int:
        """Flavour-specific attach replay; returns tuples replayed."""
        if cq.flavour == "stream":
            return 0
        now = self.network.clock.now()
        replayed = 0
        outbox: _Outbox = {}
        with self.tracer.span("replay", cq=cq.cq_id, flavour=cq.flavour):
            if cq.flavour == "latest":
                for source_url in sorted(self._latest.get(cq.group, {})):
                    columns, rows = self._latest[cq.group][source_url]
                    try:
                        result = cq.plan.bind(tuple(columns)).execute(rows)
                    except SqlError:
                        # A narrower publish left a snapshot without every
                        # column this plan needs; nothing to replay from it.
                        cq.unsatisfied += 1
                        self.stats["unsatisfied"] += 1
                        continue
                    replayed += self._owe(
                        cq, result, outbox,
                        published_at=now, source_url=source_url, replay=True,
                    )
            elif cq.flavour == "history" and self.history is not None:
                rows = self.history.since(cq.group, watermark)
                # Cap at the newest rows: attach replay is a catch-up,
                # not a full table scan shipped over the wire.
                rows = rows[-self.replay_limit :]
                if rows:
                    # A stored row carries every column of its table, in
                    # table order: its keys are the layout to bind to.
                    replayed = self._owe(
                        cq, cq.plan.bind_mapping(tuple(rows[0])).execute(rows), outbox,
                        published_at=now, source_url="history://" + cq.group,
                        replay=True,
                    )
            self._flush(outbox, cq.group)
        self.stats["replayed"] += replayed
        return replayed

    def _renew(self, request: Fields) -> dict[str, Any]:
        cq_id = request.opt("cq", int) or 0
        lease = request.opt("lease", float) or self.policy.stream_default_lease
        cq = self._subs.get(cq_id)
        if cq is None:
            # Tombstone grace: this renewal may have been on the wire —
            # sent while the lease was still live — when the sweeper ran
            # and removed the subscription (transport delay carries the
            # arrival past the expiry instant).  Within one sweep period
            # the registration is resurrected in place, buffers and
            # counters intact.
            cq = self._tombstones.pop(cq_id, None)
            if cq is None:
                return {"ok": False, "error": "missing"}
            self._subs[cq_id] = cq
            self.stats["resurrected"] += 1
        cq.expires_at = self.network.clock.now() + lease
        self._wrote(cq_id, "renew")
        return {"ok": True}

    def _deregister(self, request: Fields) -> dict[str, Any]:
        cq_id = request.opt("cq", int) or 0
        removed = self._subs.pop(cq_id, None) or self._tombstones.pop(cq_id, None)
        if removed is None:
            return {"ok": False, "error": "missing"}
        self._wrote(cq_id, "deregister")
        return {"ok": True}

    def _pause(self, request: Fields) -> dict[str, Any]:
        cq = self._subs.get(request.opt("cq", int) or 0)
        if cq is None:
            return {"ok": False, "error": "missing"}
        cq.paused = True
        self._wrote(cq.cq_id, "pause")
        return {"ok": True}

    def _resume(self, request: Fields) -> dict[str, Any]:
        cq = self._subs.get(request.opt("cq", int) or 0)
        if cq is None:
            return {"ok": False, "error": "missing"}
        cq.paused = False
        batches = list(cq.buffer)
        cq.buffer.clear()
        if batches:
            tuples = sum(len(b["rows"]) for b in batches)
            cq.delivered += len(batches)
            cq.tuples += tuples
            self.stats["pushes"] += len(batches)
            self.stats["tuples"] += tuples
            self._flush({cq.consumer: batches}, cq.group)
        self._wrote(cq.cq_id, "resume")
        return {"ok": True, "flushed": len(batches)}

    # ------------------------------------------------------------------
    # Publish plane
    # ------------------------------------------------------------------
    def publish(
        self,
        group: str,
        sources: list[tuple[str, list[str], list[Any], float]],
    ) -> int:
        """Evaluate every live continuous query against each source's
        ``(source_url, columns, rows, published_at)`` snapshot.

        Called once per query round by the RequestManager, after the
        fan-out (so the ``push`` spans sit under ``execute``), and with
        one snapshot per :class:`Republisher` window roll or event.  Each
        snapshot is a publish of its own — LIMIT, ORDER BY and aggregates
        see one source's rows — but every consumer address gets one frame
        for the whole call.  Returns how many (subscription, source)
        pairs matched rows.
        """
        g = self._canonical(group)
        latest = self._latest.setdefault(g, {})
        now = self.network.clock.now()
        ov = self.overload
        suppress = ov is not None and ov.enabled and ov.state is not PressureState.NORMAL
        outbox: _Outbox = {}
        pushed = 0
        for source_url, columns, rows, published_at in sources:
            cols = list(columns)
            layout = tuple(cols)
            snapshot = [list(r) for r in rows]
            latest[source_url] = (cols, snapshot)
            for cq in self._subs.values():
                if cq.group != g or cq.expires_at < now:
                    continue
                if suppress and cq.query_class == QueryClass.BATCH.value:
                    # Admission interplay: a pressured gateway stops paying
                    # per-publish evaluation + wire cost for the batch tier
                    # first — the stream analogue of the brownout fate.
                    cq.suppressed += 1
                    self.stats["suppressed"] += 1
                    continue
                try:
                    result = cq.plan.bind(layout).execute(snapshot)
                except SqlError:
                    # This publish does not carry every column the plan
                    # needs (a narrower real-time projection can acquire a
                    # subset of the group).  The subscription simply cannot
                    # be satisfied from this snapshot — skip it; a
                    # subscriber's plan must never fail the publisher's
                    # query.
                    cq.unsatisfied += 1
                    self.stats["unsatisfied"] += 1
                    continue
                if not self._owe(
                    cq, result, outbox,
                    published_at=published_at, source_url=source_url, replay=False,
                ):
                    continue
                if races.ACTIVE is not None:
                    # Registered COMMUTATIVE: the round's sources reach one
                    # subscription in completion order, but every batch
                    # carries its own source_url and published_at, so
                    # consumers are insensitive to the interleaving — the
                    # same argument as history appends.
                    races.ACTIVE.note(
                        "stream.push", str(cq.cq_id), "w", site="StreamHub.publish"
                    )
                pushed += 1
        self._flush(outbox, g)
        return pushed

    def _owe(
        self, cq: _Continuous, result: Any, outbox: _Outbox, **stamps: Any
    ) -> int:
        """Offer ``cq`` the rows one plan run matched as a batch (none for
        no rows); how many."""
        if result.rows:
            batch = encode_batch(cq.cq_id, result.columns, result.rows, **stamps)
            self._offer(cq, batch, outbox)
        return len(result.rows)

    def _offer(
        self, cq: _Continuous, batch: dict[str, Any], outbox: _Outbox
    ) -> None:
        """Owe the batch to the consumer's next frame, or buffer it
        (bounded) while the subscription is paused."""
        if not cq.paused:
            outbox.setdefault(cq.consumer, []).append(batch)
            cq.delivered += 1
            cq.tuples += len(batch["rows"])
            self.stats["pushes"] += 1
            self.stats["tuples"] += len(batch["rows"])
            return
        if len(cq.buffer) < cq.max_buffer:
            cq.buffer.append(batch)
            return
        # Bounded buffer full: something must be dropped, and counted.
        cq.dropped += 1
        self.stats["dropped"] += 1
        if cq.overflow == "drop_oldest":
            cq.buffer.popleft()
            cq.buffer.append(batch)
        # "pause": the newcomer is dropped — the orderly prefix survives.

    def _flush(self, outbox: _Outbox, group: str) -> None:
        """Send each consumer address its share as one frame, one span."""
        for consumer, batches in outbox.items():
            with self.tracer.span(
                "push",
                consumer=str(consumer),
                group=group,
                cqs=[b["cq"] for b in batches],
                rows=sum(len(b["rows"]) for b in batches),
            ):
                self.network.send(self.host, consumer, encode_frame(batches))
            self.stats["frames"] += 1

    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Tombstone expired registrations; returns how many moved.

        Tombstones from the *previous* sweep are discarded first, so a
        swept registration stays resurrectable (via renew) for exactly
        one sweep period before it is truly gone.
        """
        self._tombstones.clear()
        now = self.network.clock.now()
        dead = [cq_id for cq_id, s in self._subs.items() if s.expires_at < now]
        for cq_id in dead:
            self._tombstones[cq_id] = self._subs.pop(cq_id)
            self._wrote(cq_id, "sweep")
        self.stats["expired"] += len(dead)
        return len(dead)

    def close(self) -> None:
        """Stop sweeping and unbind the control port (gateway shutdown /
        crash: a successor hub must be able to listen on it)."""
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            self._sweep_task = None
        self.network.close(self.address)

    def subscription_count(self) -> int:
        return len(self._subs)

    def buffer_stats(self) -> dict[int, dict[str, Any]]:
        """Per-subscription flow-control state (console view)."""
        return {
            cq_id: {
                "sql": s.sql,
                "flavour": s.flavour,
                "group": s.group,
                "query_class": s.query_class,
                "paused": s.paused,
                "buffered": len(s.buffer),
                "max_buffer": s.max_buffer,
                "overflow": s.overflow,
                "delivered": s.delivered,
                "tuples": s.tuples,
                "dropped": s.dropped,
                "suppressed": s.suppressed,
            }
            for cq_id, s in sorted(self._subs.items())
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            **self.stats,
            "subscriptions": len(self._subs),
            "tombstones": len(self._tombstones),
            "groups": sorted(self._latest),
        }


@dataclass
class _Registration:
    """Consumer-side record of one continuous query (for renew/recover)."""

    hub: Address
    #: The ``register`` request as first sent, hop fields aside; a lease
    #: recovery sends it again with ``last_published`` as the watermark.
    request: dict[str, Any]
    query_class: str
    cq_id: int = 0
    #: Newest published_at seen — the watermark a lease recovery passes
    #: so a ``history`` re-registration does not replay delivered rows.
    last_published: float = 0.0


class StreamConsumer:
    """Consumer side: register continuous queries, receive tuple batches.

    Frames arrive as one-way datagrams on ``port``; their member batches
    are retained in arrival order (``batches``, and per-query under
    ``delivered``) and handed one by one to any registered callbacks.
    Continuous-query ids are per-hub counters, so one consumer following
    several hubs holds equal ids: a registration is (hub, id) and
    ``delivered`` is keyed by (sending host, id).  A renew timer keeps
    every registration's lease alive at half-lease cadence; a renewal
    answered ``missing`` (the lease lapsed beyond the hub's tombstone
    grace, e.g. across a long partition) triggers an automatic
    re-registration with the last-seen watermark.
    """

    RENEW_FRACTION = 0.5

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        port: int = CONSUMER_PORT,
        tracer: "Tracer | None" = None,
    ) -> None:
        if not network.has_host(host):
            network.add_host(host, site="consumer")
        self.network = network
        self.host = host
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.address = Address(host, port)
        self.received = 0
        self.batches: list[dict[str, Any]] = []
        self.delivered: dict[tuple[str, int], list[dict[str, Any]]] = {}
        self._callbacks: list[Callable[[dict[str, Any]], None]] = []
        self._regs: list[_Registration] = []
        self._renew_timer = None
        self._renew_period = 0.0
        self.stats = {
            "renewals": 0,
            "renewal_failures": 0,
            "reregisters": 0,
            "shed": 0,
        }
        network.listen(
            self.address, lambda p, s: None, datagram_handler=self._on_datagram
        )

    # ------------------------------------------------------------------
    def _on_datagram(self, payload: Any, src: Address) -> None:
        batches = decode_frame(payload)
        now = self.network.clock.now()
        newest: dict[int, float] = {}
        for batch in batches:
            batch["received_at"] = now
            cq = batch["cq"]
            newest[cq] = max(newest.get(cq, 0.0), batch["published_at"])
        for reg in self._regs:
            if reg.hub.host == src.host:
                reg.last_published = max(
                    reg.last_published, newest.get(reg.cq_id, 0.0)
                )
        self.received += len(batches)
        for batch in batches:
            self.batches.append(batch)
            self.delivered.setdefault((src.host, batch["cq"]), []).append(batch)
            for cb in list(self._callbacks):
                cb(batch)

    def on_batch(self, callback: Callable[[dict[str, Any]], None]) -> None:
        self._callbacks.append(callback)

    def rows(self, hub: Address, cq_id: int) -> list[list[Any]]:
        """All delivered rows for one continuous query, arrival order."""
        out: list[list[Any]] = []
        for batch in self.delivered.get((hub.host, cq_id), []):
            out.extend(batch["rows"])
        return out

    # ------------------------------------------------------------------
    def register(
        self,
        hub: Address,
        sql: str,
        *,
        flavour: str = "stream",
        lease: float = 300.0,
        max_buffer: int | None = None,
        overflow: str | None = None,
        query_class: str = "",
        deadline: "Deadline | None" = None,
        watermark: float = 0.0,
    ) -> int:
        """Register a continuous query at a hub; returns the cq id.

        ``deadline`` and ``query_class`` ride the registration hop like
        a GMA query's (:mod:`repro.gma.records`).  A shed registration
        raises :class:`~repro.core.errors.OverloadError` with the hub's
        retry-after hint, a refused one :class:`NetworkError`.
        """
        request: dict[str, Any] = {
            "op": "register",
            "sql": sql,
            "host": self.address.host,
            "port": self.address.port,
            "flavour": flavour,
            "lease": lease,
            "watermark": watermark,
        }
        if max_buffer is not None:
            request["max_buffer"] = int(max_buffer)
        if overflow is not None:
            request["overflow"] = overflow
        reg = _Registration(hub, request, query_class)
        try:
            reg.cq_id = self._register(reg, deadline=deadline, tracer=self.tracer)
        except OverloadError:
            self.stats["shed"] += 1
            raise
        self._regs.append(reg)
        self._ensure_renewals()
        return reg.cq_id

    def _register(
        self,
        reg: _Registration,
        *,
        deadline: "Deadline | None" = None,
        tracer: Tracer = NO_TRACER,
    ) -> int:
        """Send ``reg``'s request; the id the hub drew.  (A lease recovery
        runs off a clock timer, outside any trace.)"""
        payload = dict(reg.request)
        timeout = stamp(
            payload, tracer=tracer, deadline=deadline, query_class=reg.query_class,
            what="stream.register",
        )
        with tracer.span("subscribe", hub=f"{reg.hub.host}:{reg.hub.port}"):
            reply = call(self.network, self.host, reg.hub, payload, timeout=timeout)
        return Fields(reply).accepted("register rejected").get("cq", int)

    def _control(self, hub: Address, op: str, cq_id: int, **more: Any) -> Fields:
        return Fields(call(self.network, self.host, hub, {"op": op, "cq": cq_id, **more}))

    def renew(self, hub: Address, cq_id: int, lease: float) -> bool:
        return self._control(hub, "renew", cq_id, lease=lease).ok

    def pause(self, hub: Address, cq_id: int) -> bool:
        return self._control(hub, "pause", cq_id).ok

    def resume(self, hub: Address, cq_id: int) -> int:
        reply = self._control(hub, "resume", cq_id)
        return reply.accepted("resume rejected").opt("flushed", int) or 0

    def deregister(self, hub: Address, cq_id: int) -> bool:
        ok = self._control(hub, "deregister", cq_id).ok
        self._regs = [r for r in self._regs if (r.hub, r.cq_id) != (hub, cq_id)]
        if not self._regs:
            self._disarm()
        return ok

    def _disarm(self) -> None:
        if self._renew_timer is not None:
            self._renew_timer.cancel()
            self._renew_timer = None
            self._renew_period = 0.0

    # ------------------------------------------------------------------
    def _ensure_renewals(self) -> None:
        """(Re)arm the renew timer at half the *shortest* live lease.

        Recomputed on every registration — a later, shorter lease must
        tighten the cadence, or it would expire between renewals (the
        archiver had exactly this bug).
        """
        if not self._regs:
            return
        period = min(r.request["lease"] for r in self._regs) * self.RENEW_FRACTION
        if self._renew_timer is not None:
            if period >= self._renew_period:
                return
            self._renew_timer.cancel()
        self._renew_period = period
        self._renew_timer = self.network.clock.call_every(period, self._renew_all)

    def _renew_all(self) -> None:
        for reg in self._regs:
            try:
                if self.renew(reg.hub, reg.cq_id, reg.request["lease"]):
                    self.stats["renewals"] += 1
                    continue
                # The hub no longer knows this registration (lease lapsed
                # beyond the tombstone grace — e.g. a healed partition):
                # recover it with the last-seen watermark so a history
                # flavour does not replay rows already delivered.
                reg.request["watermark"] = reg.last_published
                reg.cq_id = self._register(reg)
                self.stats["reregisters"] += 1
            except (NetworkError, OverloadError):
                # Unreachable, refused, shed or out of shape: try again
                # next period; a clock timer has nobody to raise to.
                self.stats["renewal_failures"] += 1

    def stop(self) -> None:
        """Deregister everything and stop renewing."""
        for reg in list(self._regs):
            try:
                self._control(reg.hub, "deregister", reg.cq_id)
            except (NetworkError, OverloadError):
                pass
        self._regs.clear()
        self._disarm()


# ----------------------------------------------------------------------
# Derived streams
# ----------------------------------------------------------------------
#: Derived-group aggregate columns appended after the key column.
DERIVED_FIELDS = (
    GlueField("AvgValue", "REAL"),
    GlueField("MinValue", "REAL"),
    GlueField("MaxValue", "REAL"),
    GlueField("Samples", "INTEGER"),
    GlueField("WindowStart", "TIMESTAMP"),
    GlueField("WindowEnd", "TIMESTAMP"),
)


@dataclass
class _Derivation:
    """One windowed aggregation over an upstream continuous query."""

    hub: Address
    cq_id: int
    group: str
    key_column: str
    value_column: str
    window: float
    window_start: float
    #: (key, value) samples accumulated since the last roll.
    pending: list[tuple[Any, float]] = field(default_factory=list)
    task: Any = None
    windows_published: int = 0


class Republisher(EventArchiver):
    """The :class:`~repro.gma.archiver.EventArchiver`, upgraded from an
    archiving consumer into a producer of derived streams.

    R-GMA's archiver/republisher shape: besides archiving upstream
    *event* feeds (the inherited behaviour), it subscribes to upstream
    *tuple* streams, folds each window into per-key aggregates (e.g.
    per-host ``AVG(load)``), and publishes the derived rows through an
    **own** :class:`StreamHub` — downstream consumers register
    continuous queries against the derived group exactly as against any
    gateway.

    ``derive()`` declares one aggregation: it registers the upstream
    continuous query, adds a GLUE group for the derived rows to the
    republisher's private schema (key column + :data:`DERIVED_FIELDS`),
    and rolls a window every ``window`` virtual seconds.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        archive_port: int = 8450,
        hub_port: int = STREAM_PORT,
        consumer_port: int = CONSUMER_PORT,
        max_rows: int = 100_000,
        policy: GatewayPolicy | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        super().__init__(network, host, port=archive_port, max_rows=max_rows)
        self.policy = policy if policy is not None else GatewayPolicy()
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.schema = GlueSchema("derived-1")
        # Private plan cache over the derived schema: downstream
        # continuous queries against derived groups compile here.  The
        # schema object is mutable (derive() adds groups), and new
        # groups only ever *add* — cached plans stay valid.
        from repro.core.plans import PlanCache

        self.plans = PlanCache(self.schema, tracer=self.tracer)
        self.hub = StreamHub(
            network,
            host,
            plans=self.plans,
            schema=self.schema,
            policy=self.policy,
            tracer=self.tracer,
            port=hub_port,
        )
        self.consumer = StreamConsumer(
            network, host, port=consumer_port, tracer=self.tracer
        )
        self.consumer.on_batch(self._on_batch)
        self._derivations: list[_Derivation] = []
        # Extends the inherited archiver counters, never replaces them.
        self.stats.update({"samples": 0, "windows": 0, "skipped_rows": 0})

    # ------------------------------------------------------------------
    def derive(
        self,
        upstream: Address,
        sql: str,
        *,
        key_column: str,
        value_column: str,
        window: float,
        group: str,
        flavour: str = "stream",
        lease: float = 300.0,
        query_class: str = "",
    ) -> _Derivation:
        """Declare one windowed aggregation over an upstream stream."""
        if window <= 0:
            raise ValueError(f"window must be > 0: {window!r}")
        if not self.schema.has_group(group):
            self.schema.add_group(
                GlueGroup(
                    name=group,
                    fields=(GlueField(key_column, "TEXT"),) + DERIVED_FIELDS,
                    description=f"windowed {value_column} aggregate of {sql!r}",
                )
            )
        cq_id = self.consumer.register(
            upstream,
            sql,
            flavour=flavour,
            lease=lease,
            query_class=query_class,
        )
        derivation = _Derivation(
            hub=upstream,
            cq_id=cq_id,
            group=group,
            key_column=key_column,
            value_column=value_column,
            window=window,
            window_start=self.network.clock.now(),
        )
        derivation.task = self.network.clock.call_every(
            window, lambda d=derivation: self._roll(d)
        )
        self._derivations.append(derivation)
        return derivation

    def _on_batch(self, batch: dict[str, Any]) -> None:
        for derivation in self._derivations:
            if derivation.cq_id != batch["cq"]:
                continue
            columns = batch["columns"]
            try:
                ki = columns.index(derivation.key_column)
                vi = columns.index(derivation.value_column)
            except ValueError:
                self.stats["skipped_rows"] += len(batch["rows"])
                continue
            for row in batch["rows"]:
                value = row[vi]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    self.stats["skipped_rows"] += 1
                    continue
                derivation.pending.append((row[ki], float(value)))
                self.stats["samples"] += 1

    def _roll(self, derivation: _Derivation) -> None:
        """Close one window: publish per-key aggregates, reset pending."""
        now = self.network.clock.now()
        window_start, derivation.window_start = derivation.window_start, now
        samples, derivation.pending = derivation.pending, []
        if not samples:
            return
        by_key: dict[Any, list[float]] = {}
        for key, value in samples:
            by_key.setdefault(key, []).append(value)
        columns = [derivation.key_column] + [f.name for f in DERIVED_FIELDS]
        rows = [
            [
                key,
                sum(values) / len(values),
                min(values),
                max(values),
                len(values),
                window_start,
                now,
            ]
            for key, values in sorted(by_key.items(), key=lambda kv: str(kv[0]))
        ]
        derivation.windows_published += 1
        self.stats["windows"] += 1
        source_url = f"republish://{self.host}/{derivation.group}"
        self.hub.publish(derivation.group, [(source_url, columns, rows, now)])

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Deregister everywhere, stop window rolls and the hub sweep."""
        super().stop()
        for derivation in self._derivations:
            if derivation.task is not None:
                derivation.task.cancel()
                derivation.task = None
        self._derivations.clear()
        self.consumer.stop()
        self.hub.close()
