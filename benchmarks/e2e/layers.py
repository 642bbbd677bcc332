"""Layer attribution for the e2e benchmark, applied from outside ``src/``.

Two things live here:

* :class:`Recorder` — an exclusive-time clock.  At any instant exactly
  one *layer* owns the wall clock; every wrapper below switches the owner
  on entry and restores it on exit, so a layer's total is its self time
  (its spans' duration minus the part covered by child spans).  With
  ``spans`` set it also keeps one record per wrapped call (layer, name,
  start, end, parent, operation id, units in/out), written out as
  ``spans-<workload>.jsonl`` when the run ends.
* the tables that say *what* gets wrapped: :data:`REGISTRARS` (always
  on — every callback handed to the network or the clock is charged to
  the layer of the module that defines it, which is how the simulated
  agents' CPU is kept out of the gateway-side numbers) and
  :data:`LAYERS` (traced run only — this repo's public entry points, by
  module name).

Nothing in ``src/`` knows about any of this; a rename there makes
:func:`resolve` raise instead of silently emptying a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Owner of the clock while the harness itself (or the simulator's event
#: loop) runs: think time, request generation, oracle checks.
IDLE = "(idle)"
#: Owner while an operation runs outside every wrapped entry point.
OP = "(op)"
#: The simulated monitoring agents — other machines' CPU in deployment.
AGENTS = "agents"
#: Callbacks whose defining module maps to no named layer.
OTHER = "(other)"

#: Callback attribution: first matching module prefix wins.
MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.agents.", AGENTS),
    ("repro.simnet.", "simnet.network"),
    ("repro.core.events", "core.events"),
    ("repro.core.history", "core.history"),
    ("repro.core.gateway", "core.gateway"),
    ("repro.storage.", "storage"),
    ("repro.gma.subscription", "gma.subscription"),
    ("repro.gma.archiver", "gma.archiver"),
    ("repro.gma.streams", "gma.streams"),
    ("repro.gma.", "gma.global_layer"),
    ("repro.web.", "web"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix) or module == prefix.rstrip("."):
            return layer
    return OTHER


#: Who pays for an owner's time.
GATEWAY, AGENT_SIDE, HARNESS = 0, 1, 2

#: Span records kept per traced repetition; totals cover every call.
MAX_SPANS = 200_000


class Owner:
    """One wrapped callable (or pseudo-owner) and its accumulators."""

    __slots__ = ("layer", "name", "listener", "kind", "seconds", "calls", "n_in", "n_out")

    def __init__(self, layer: str, name: str, listener: bool = False) -> None:
        self.layer = layer
        self.name = name
        #: True for agent-side network listeners (their calls are the
        #: requests and datagrams the agents handled).
        self.listener = listener
        self.kind = (
            AGENT_SIDE if layer == AGENTS else HARNESS if layer == IDLE else GATEWAY
        )
        self.clear()

    def clear(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.n_in = 0
        self.n_out = 0


class Recorder:
    """Exclusive wall-time per owner, plus optional span records."""

    def __init__(self) -> None:
        self.owners: dict[tuple[str, str, bool], Owner] = {}
        self.idle = self.owner(IDLE, "")
        self.in_op = self.owner(OP, "")
        self.reset(spans=False)

    def owner(self, layer: str, name: str, listener: bool = False) -> Owner:
        key = (layer, name, listener)
        found = self.owners.get(key)
        if found is None:
            found = self.owners[key] = Owner(layer, name, listener)
        return found

    def reset(self, *, spans: bool) -> None:
        """Zero every accumulator; the harness owns the clock."""
        for owner in self.owners.values():
            owner.clear()
        self.current = self.idle
        self.mark = perf_counter()
        #: Seconds by payer: GATEWAY, AGENT_SIDE, HARNESS.
        self.kind_seconds = [0.0, 0.0, 0.0]
        #: Operation id stamped on spans.
        self.op = -1
        self.spans: "list[list[Any]] | None" = [] if spans else None
        self.stack: list[int] = []

    def switch(self, owner: Owner) -> Owner:
        """Hand the clock to ``owner``; returns the previous owner."""
        now = perf_counter()
        prev = self.current
        elapsed = now - self.mark
        prev.seconds += elapsed
        self.kind_seconds[prev.kind] += elapsed
        self.mark = now
        self.current = owner
        return prev

    def agent_requests(self) -> int:
        return sum(o.calls for o in self.owners.values() if o.listener)

    # -- span plumbing (traced run only) --------------------------------
    def open_span(self, owner: Owner) -> int:
        spans = self.spans
        sid = len(spans)
        parent = self.stack[-1] if self.stack else -1
        spans.append([owner.layer, owner.name, self.mark, 0.0, parent, self.op, 0, 0])
        self.stack.append(sid)
        return sid

    def close_span(self, sid: int, n_in: int, n_out: int) -> None:
        span = self.spans[sid]
        span[3] = self.mark
        span[6] = n_in
        span[7] = n_out
        self.stack.pop()


def timed(
    rec: Recorder,
    owner: Owner,
    fn: Callable[..., Any],
    units: "Callable[[tuple, dict, Any], tuple[int, int]] | None" = None,
) -> Callable[..., Any]:
    """``fn`` wrapped so its wall time is charged to ``owner``."""
    if getattr(fn, "__bench_layer__", None) is not None:
        return fn  # call_later hands its callback on to call_at

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        prev = rec.switch(owner)
        owner.calls += 1
        sid = rec.open_span(owner) if rec.spans is not None else -1
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.switch(prev)
            n_in = n_out = 0
            if units is not None and result is not None:
                n_in, n_out = units(args, kwargs, result)
                owner.n_in += n_in
                owner.n_out += n_out
            if sid >= 0:
                rec.close_span(sid, n_in, n_out)

    wrapper.__bench_layer__ = owner.layer
    return wrapper


class _TimedContext:
    """A context manager whose enter and exit are two leaf spans of one
    layer — the body in between belongs to whoever runs it."""

    __slots__ = ("_enter", "_exit")

    def __init__(self, cm: Any, rec: Recorder, enter: Owner, leave: Owner) -> None:
        self._enter = timed(rec, enter, cm.__enter__)
        self._exit = timed(rec, leave, cm.__exit__)

    def __enter__(self) -> Any:
        return self._enter()

    def __exit__(self, *exc_info: Any) -> Any:
        return self._exit(*exc_info)


def timed_context(
    rec: Recorder, layer: str, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    make = timed(rec, rec.owner(layer, name), fn)
    enter = rec.owner(layer, name + ".enter")
    leave = rec.owner(layer, name + ".exit")

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> _TimedContext:
        return _TimedContext(make(*args, **kwargs), rec, enter, leave)

    wrapper.__bench_layer__ = layer
    return wrapper


def _defining_module(callback: Any) -> str:
    fn = getattr(callback, "func", callback)  # functools.partial
    fn = getattr(fn, "__func__", fn)  # bound method
    return getattr(fn, "__module__", "") or ""


def timed_callback(rec: Recorder, callback: Any, *, listener: bool) -> Any:
    """A callback charged to the layer of the module that defines it."""
    if callback is None or getattr(callback, "__bench_layer__", None) is not None:
        return callback
    layer = layer_of_module(_defining_module(callback))
    name = getattr(callback, "__qualname__", type(callback).__name__)
    owner = rec.owner(layer, name, listener and layer == AGENTS)
    return timed(rec, owner, callback)


def timed_registrar(
    rec: Recorder, fn: Callable[..., Any], spec: "Registrar"
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        args = list(args)
        for index in spec.positions:
            if index < len(args):
                args[index] = timed_callback(rec, args[index], listener=spec.listener)
        for key in spec.keywords:
            if key in kwargs:
                kwargs[key] = timed_callback(
                    rec, kwargs[key], listener=spec.listener
                )
        return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Registrar:
    """A public method that takes callbacks (positions count ``self``)."""

    target: str
    positions: tuple[int, ...] = ()
    keywords: tuple[str, ...] = ()
    #: True for network listeners: agent-side calls count as requests.
    listener: bool = False


REGISTRARS: tuple[Registrar, ...] = (
    Registrar(
        "repro.simnet.network:Network.listen",
        positions=(2,),
        keywords=("handler", "datagram_handler"),
        listener=True,
    ),
    Registrar("repro.simnet.clock:VirtualClock.call_at", (2,), ("callback",)),
    Registrar("repro.simnet.clock:VirtualClock.call_later", (2,), ("callback",)),
    Registrar("repro.simnet.clock:VirtualClock.call_every", (2,), ("callback",)),
    Registrar("repro.core.events:EventManager.register_listener", (1,), ("listener",)),
    Registrar("repro.gma.subscription:EventSubscriber.on_event", (1,), ("callback",)),
    Registrar("repro.gma.streams:StreamConsumer.on_batch", (1,), ("callback",)),
)


def _rows_of(value: Any) -> int:
    rows = getattr(value, "rows", value)
    try:
        return len(rows)
    except TypeError:
        return 0


def _units_execute(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return _rows_of(args[1]), _rows_of(result)


def _units_translate(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return _rows_of(args[2]), _rows_of(result)


def _units_record(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return int(result), int(result)


def _units_history_query(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    plan = kwargs.get("plan")
    scanned = args[0].row_count(plan.select.table) if plan is not None else 0
    return scanned, _rows_of(result)


def _units_append_rows(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return _rows_of(args[2]), 1


@dataclass(frozen=True)
class Entry:
    """One public entry point of a layer.

    ``kind``: ``call`` (function or method), ``context`` (returns a
    context manager; enter and exit are timed, the body is not).
    ``units``: optional (rows in, rows out) extractor for per-row metrics.
    """

    target: str
    kind: str = "call"
    units: "Callable[[tuple, dict, Any], tuple[int, int]] | None" = None


def _drivers(module: str, cls: str) -> list[Entry]:
    return [
        Entry(f"repro.drivers.{module}:{cls}.fetch_group"),
        Entry(f"repro.drivers.{module}:{cls}.probe"),
    ]


#: layer -> public entry points, under this repo's module names.
LAYERS: dict[str, list[Entry]] = {
    "web": [
        Entry("repro.web.console:Console.tree_view"),
        Entry("repro.web.servlet:http_get"),
    ],
    "core.acil": [
        Entry("repro.core.acil:AbstractClientInterface.query"),
        Entry("repro.core.acil:AbstractClientInterface.query_many"),
        Entry("repro.core.acil:ClientResponse.from_result"),
    ],
    "core.gateway": [Entry("repro.core.gateway:Gateway.query")],
    "core.admission": [
        Entry("repro.core.admission:AdmissionController.decide"),
        Entry("repro.core.admission:AdmissionController.admit"),
        Entry("repro.core.admission:AdmissionController.release"),
    ],
    "core.plans": [Entry("repro.core.plans:PlanCache.get")],
    "sql.parser": [Entry("repro.sql.parser:parse_select")],
    "core.cache": [
        Entry("repro.core.cache:CacheController.lookup"),
        Entry("repro.core.cache:CacheController.store"),
        Entry("repro.core.cache:CacheController.entries_for"),
    ],
    "core.request_manager": [
        Entry("repro.core.request_manager:RequestManager.execute"),
    ],
    "core.dispatch": [
        Entry("repro.core.dispatch:FanoutDispatcher.run"),
        Entry("repro.core.dispatch:FanoutDispatcher.run_flight"),
        Entry("repro.core.dispatch:FanoutDispatcher.join_flight"),
    ],
    "core.connection_manager": [
        Entry("repro.core.connection_manager:ConnectionManager.acquire"),
        Entry("repro.core.connection_manager:ConnectionManager.release"),
    ],
    "core.driver_manager": [
        Entry("repro.core.driver_manager:GridRmDriverManager.open_connection"),
    ],
    "drivers": [
        Entry("repro.drivers.base:GridRmStatement.execute_query"),
        Entry("repro.drivers.base:GridRmConnection.request"),
    ],
    "drivers.snmp": _drivers("snmp_driver", "SnmpDriver"),
    "drivers.ganglia": _drivers("ganglia_driver", "GangliaDriver"),
    "drivers.scms": _drivers("scms_driver", "ScmsDriver"),
    "drivers.nws": _drivers("nws_driver", "NwsDriver"),
    "drivers.netlogger": _drivers("netlogger_driver", "NetLoggerDriver"),
    "drivers.sql": _drivers("sql_driver", "SqlDriver"),
    "glue.mapping": [
        Entry("repro.glue.mapping:SchemaMapping.translate_rows", units=_units_translate),
    ],
    "simnet.network": [
        Entry("repro.simnet.network:Network.request"),
        Entry("repro.simnet.network:Network.send"),
    ],
    "sql.plan": [
        Entry("repro.sql.plan:CompiledPlan.bind"),
        Entry("repro.sql.plan:CompiledPlan.bind_mapping"),
        Entry("repro.sql.plan:BoundPlan.execute", units=_units_execute),
        Entry("repro.sql.plan:join_rows"),
    ],
    "core.history": [
        Entry("repro.core.history:HistoryStore.record", units=_units_record),
        Entry("repro.core.history:HistoryStore.query", units=_units_history_query),
        Entry("repro.core.history:HistoryStore.checkpoint"),
    ],
    "storage": [
        Entry("repro.storage.engine:HistoryEngine.append_rows", units=_units_append_rows),
        Entry("repro.storage.engine:HistoryEngine.sync"),
        Entry("repro.storage.engine:HistoryEngine.checkpoint"),
        Entry("repro.storage.wal:WriteAheadLog.append"),
        Entry("repro.storage.wal:WriteAheadLog.sync"),
    ],
    "gma.global_layer": [
        Entry("repro.gma.global_layer:GlobalLayer.query_remote"),
        Entry("repro.gma.consumer:GatewayConsumer.query_site"),
    ],
    "gma.streams": [
        Entry("repro.gma.streams:StreamHub.publish"),
        Entry("repro.gma.streams:StreamHub.sweep"),
        Entry("repro.gma.streams:encode_batch"),
        Entry("repro.gma.streams:decode_batch"),
    ],
    "core.events": [
        Entry("repro.core.events:EventManager.emit"),
        Entry("repro.core.events:EventManager.pump"),
    ],
    "gma.subscription": [
        Entry("repro.gma.subscription:encode_event"),
        Entry("repro.gma.subscription:decode_event"),
    ],
    "obs.trace": [
        Entry("repro.obs.trace:Tracer.start_trace", kind="context"),
        Entry("repro.obs.trace:Tracer.span", kind="context"),
    ],
}

#: Layers that only ever appear through callback attribution.
CALLBACK_LAYERS = ("gma.archiver", AGENTS)

NAMED_LAYERS = frozenset(LAYERS) | frozenset(CALLBACK_LAYERS)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, value).

    Raises when any part is missing or the attribute is private — the
    benchmark wraps public names only, so a rename fails loudly.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr.startswith("_"):
        raise AttributeError(f"{target}: private attribute")
    return owner, attr, getattr(owner, attr)


def _patch(
    undo: list, owner: Any, attr: str, wrap: Callable[[Callable[..., Any]], Any]
) -> None:
    """Replace ``owner.attr`` by ``wrap(original)``; a module-level
    function is also replaced in every ``repro`` module that imported it
    by name."""
    if isinstance(owner, type):
        raw = vars(owner).get(attr, getattr(owner, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper: Any = type(raw)(wrap(raw.__func__))
        else:
            wrapper = wrap(raw)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, raw))
        return
    original = getattr(owner, attr)
    wrapper = wrap(original)
    setattr(owner, attr, wrapper)
    undo.append((owner, attr, original))
    for name, module in list(sys.modules.items()):
        if module is owner or module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                undo.append((module, key, original))


def install_registrars(rec: Recorder) -> list:
    """Charge every network listener and clock callback to its layer."""
    undo: list = []
    for spec in REGISTRARS:
        owner, attr, _ = resolve(spec.target)
        _patch(undo, owner, attr, lambda fn, spec=spec: timed_registrar(rec, fn, spec))
    return undo


def _wrapper_for(
    rec: Recorder, layer: str, name: str, entry: Entry
) -> Callable[[Callable[..., Any]], Any]:
    if entry.kind == "context":
        return lambda fn: timed_context(rec, layer, name, fn)
    return lambda fn: timed(rec, rec.owner(layer, name), fn, entry.units)


def install_layers(rec: Recorder) -> list:
    """Wrap every :data:`LAYERS` entry point (traced run)."""
    undo: list = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            owner, attr, _ = resolve(entry.target)
            name = entry.target.partition(":")[2]
            _patch(undo, owner, attr, _wrapper_for(rec, layer, name, entry))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()
