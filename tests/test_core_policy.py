"""Unit tests for gateway policy validation."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import connection_manager
from repro.core.errors import PolicyError
from repro.core.policy import FailureAction, GatewayPolicy
from repro.gma import streams
from repro.obs import trace
from tests.conftest import PLANES, paper_policy


class TestDefaults:
    def test_defaults_valid(self):
        p = GatewayPolicy()
        assert p.pool_enabled
        assert p.failure_action is FailureAction.DYNAMIC

    def test_failure_actions_complete(self):
        assert {a.value for a in FailureAction} == {
            "report",
            "retry",
            "try_next",
            "dynamic",
        }


class TestValidation:
    """Bad policy fields are refused by ``GatewayPolicy``.  The values
    that stopped being fields (one reader, no shipped caller varying
    them) are module constants at that reader: their rows assert that
    the constant meets the bound its constructor used to check."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            (GatewayPolicy, {"query_cache_ttl": -1.0}),
            (GatewayPolicy, {"pool_max_per_source": 0}),
            (None, lambda: connection_manager.IDLE_TTL > 0.0),
            (GatewayPolicy, {"failure_retries": -1}),
            (None, lambda: trace.MAX_TRACES >= 1),
            (GatewayPolicy, {"event_fast_buffer_size": 0}),
            (GatewayPolicy, {"event_disk_buffer_size": -1}),
            (GatewayPolicy, {"history_max_rows_per_group": 0}),
            (GatewayPolicy, {"history_fsync_interval": 0}),
            (GatewayPolicy, {"history_checkpoint_interval": -1.0}),
            (GatewayPolicy, {"stream_sweep_period": 0.0}),
            (None, lambda: streams.REPLAY_LIMIT >= 1),
            *[
                (GatewayPolicy, {f.name: float("nan")})
                for f in dataclasses.fields(GatewayPolicy)
                if f.type == "float"
            ],
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        build, kw = kwargs
        if build is None:
            assert kw()
            return
        with pytest.raises((PolicyError, ValueError)):
            build(**kw)

    def test_boundary_values_accepted(self):
        GatewayPolicy(
            query_cache_ttl=0.0,
            pool_max_per_source=1,
            failure_retries=0,
            event_fast_buffer_size=1,
            event_disk_buffer_size=0,
            history_max_rows_per_group=1,
        )


#: Boolean fields whose only shipped setter passes the default: the e2e
#: harness's ``BENCH_POLICY`` spells them ``True``.  They go, with their
#: off branches, once a benchmark change drops them from ``BENCH_POLICY``.
ALWAYS_ON = {"history_durable", "streaming_enabled"}


def test_every_field_is_varied_by_a_caller():
    """The knob census: a field no shipped caller ever sets is a
    constant — delete it and put the value at its one reader.  Setters
    under ``tests/`` and ``examples/`` do not count: a knob only a test
    turns is a keyword of the component the test builds.  A boolean
    must be set to something other than its default (some arm needs it
    flipped: E1 ``pool_enabled``, overload ``--shed-off``
    ``admission_enabled``, E26 ``tracing_enabled``), or be listed in
    ``ALWAYS_ON``.

    ``AlertRule(period=, rearm_after=, use_cache=)`` is a record, not a
    set of settings: ``examples/operations_center.py`` varies ``period``,
    ``severity`` and ``rearm_after`` per rule (only tests set
    ``use_cache``)."""
    root = Path(__file__).resolve().parent.parent
    policy_py = root / "src" / "repro" / "core" / "policy.py"
    sources = [
        path.read_text()
        for top in ("src", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if path != policy_py
    ]
    # Every name written ``name =`` (not ``==``) anywhere, in one pass;
    # the lookahead leaves the next name of ``a=b=c`` to be matched.
    assigned = set(re.findall(r"\b(\w+)\s*=(?=[^=])", "\n".join(sources)))
    never_set = [
        f.name for f in dataclasses.fields(GatewayPolicy) if f.name not in assigned
    ]
    flags = [f for f in dataclasses.fields(GatewayPolicy) if f.type == "bool"]
    passed = [
        (kw.arg, kw.value)
        for source in sources
        if any(f.name in source for f in flags)
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call)
        for kw in call.keywords
    ]
    never_flipped = [
        f.name
        for f in flags
        if all(
            isinstance(value, ast.Constant) and value.value is f.default
            for name, value in passed
            if name == f.name
        )
    ]
    assert never_set == []
    assert sorted(never_flipped) == sorted(ALWAYS_ON)
    assert len(dataclasses.fields(GatewayPolicy)) <= 32


#: Every numeric or boolean constructor default left under the serving
#: packages, with why it is still a default: a deployment ``address``
#: (a port), a ``deployment`` choice, or a ``caller`` — some file under
#: ``src/`` or ``benchmarks/`` passes the keyword (checked below).  A
#: value nothing ships a choice of is a constant at its one reader.
CONSTRUCTOR_DEFAULTS = {
    "core/cache.py:CacheController.ttl": "caller",
    "core/errors.py:OverloadError.retry_after": "caller",
    "core/events.py:EventManager.drain_batch": "caller",
    "core/events.py:EventManager.drain_period": "caller",
    "core/gateway.py:Gateway.register_default_drivers": "caller",
    "core/gateway.py:Gateway.install_event_drivers": "caller",
    "core/history.py:HistoryStore.max_rows_per_group": "caller",
    "core/security.py:CoarseGrainedSecurity.enabled": "caller",
    "core/security.py:FineGrainedSecurity.enabled": "caller",
    "core/security.py:FineGrainedSecurity.default_allow": "deployment",
    "gma/archiver.py:EventArchiver.port": "address",
    "gma/directory.py:GMADirectory.port": "address",
    "gma/global_layer.py:GlobalLayer.producer_port": "address",
    "gma/global_layer.py:GlobalLayer.cache_remote": "caller",
    "gma/producer.py:GatewayProducer.port": "address",
    "gma/streams.py:StreamHub.port": "address",
    "gma/streams.py:StreamConsumer.port": "address",
    "gma/streams.py:Republisher.archive_port": "address",
    "gma/streams.py:Republisher.hub_port": "address",
    "gma/streams.py:Republisher.consumer_port": "address",
    "gma/subscription.py:EventPublisher.port": "address",
    "gma/subscription.py:EventSubscriber.port": "address",
    "obs/trace.py:Tracer.enabled": "caller",
    "storage/engine.py:HistoryEngine.sync_interval": "caller",
    "storage/engine.py:HistoryEngine.max_rows_per_group": "caller",
    "storage/simdisk.py:SimDisk.write_latency": "caller",
    "storage/simdisk.py:SimDisk.fsync_latency": "caller",
    "storage/simdisk.py:SimDisk.read_latency": "caller",
    "storage/wal.py:WriteAheadLog.gen": "caller",
    "storage/wal.py:WriteAheadLog.next_lsn": "caller",
    "storage/wal.py:WriteAheadLog.sync_interval": "caller",
    "web/servlet.py:GatewayServlet.port": "address",
}


def _is_setting(default):
    """A numeric or boolean literal (signed too), or a module constant."""
    if isinstance(default, ast.UnaryOp):
        default = default.operand
    if isinstance(default, ast.Constant):
        return isinstance(default.value, (bool, int, float))
    return isinstance(default, ast.Name) and default.id.isupper()


def _constructor_defaults(src):
    """``{"<module>:<Class>.<param>": default}`` for every ``__init__``
    parameter under ``core``, ``gma``, ``obs``, ``storage``, ``web`` and
    ``analysis`` whose default is a setting.  Read with ``ast``: names
    such as ``window``, ``floor`` and ``ttl`` mean other things elsewhere.
    Dataclass fields are records, not constructor keywords
    (``GatewayPolicy``'s census is the test above)."""
    found = {}
    for package in ("core", "gma", "obs", "storage", "web", "analysis"):
        for path in sorted((src / package).rglob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for init in cls.body:
                    if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                        continue
                    args = init.args
                    positional = args.posonlyargs + args.args
                    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                                     args.defaults))
                    pairs += zip(args.kwonlyargs, args.kw_defaults)
                    for arg, default in pairs:
                        if default is not None and _is_setting(default):
                            name = f"{path.relative_to(src)}:{cls.name}.{arg.arg}"
                            found[name] = default
    return found


def test_every_constructor_default_is_listed_with_its_reason():
    """The constructor census: a numeric or boolean default below the
    policy is an address, a deployment choice, or a keyword some shipped
    caller sets.  Any other one is a constant at its reader; an unlisted
    default fails here, and so does a ``caller`` row no shipped file
    passes."""
    root = Path(__file__).resolve().parent.parent
    found = _constructor_defaults(root / "src" / "repro")
    assert sorted(found) == sorted(CONSTRUCTOR_DEFAULTS)
    assert set(CONSTRUCTOR_DEFAULTS.values()) <= {"address", "deployment", "caller"}
    passed = set()
    for top in ("src", "benchmarks"):
        for path in (root / top).rglob("*.py"):
            for call in ast.walk(ast.parse(path.read_text())):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    passed.update((name, kw.arg) for kw in call.keywords)
    unset = [
        key
        for key, reason in CONSTRUCTOR_DEFAULTS.items()
        if reason == "caller" and tuple(key.split(":")[1].split(".")) not in passed
    ]
    assert unset == []


def test_production_is_the_paper_policy_plus_the_six_planes():
    """Re-aimed: the all-planes ``production`` policy is now the default,
    so this id pins the two configurations tests compare.  The paper's
    gateway (``paper_policy``) is the default with exactly the five later
    planes off; CGSL/FGSL stay off by default (DESIGN §8)."""
    paper, default = dataclasses.asdict(paper_policy()), dataclasses.asdict(GatewayPolicy())
    assert {k for k in paper if paper[k] != default[k]} == set(PLANES)
    assert all(default[k] for k in PLANES) and not default["security_enabled"]
