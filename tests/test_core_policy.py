"""Unit tests for gateway policy validation."""

import dataclasses
import functools
import re
from pathlib import Path

import pytest

from repro.core.connection_manager import ConnectionManager
from repro.core.errors import PolicyError
from repro.core.policy import FailureAction, GatewayPolicy, production
from repro.gma.streams import StreamHub
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock


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
    """Bad values are refused where they are read: policy fields by
    ``GatewayPolicy``; the values that stopped being fields (one reader,
    no shipped caller varying them) by that reader's constructor."""

    pool = functools.partial(ConnectionManager, None, VirtualClock(), GatewayPolicy())
    hub = functools.partial(
        StreamHub, None, "h", plans=None, schema=None, policy=GatewayPolicy()
    )

    @pytest.mark.parametrize(
        "kwargs",
        [
            (GatewayPolicy, {"query_cache_ttl": -1.0}),
            (GatewayPolicy, {"pool_max_per_source": 0}),
            (pool, {"idle_ttl": 0.0}),
            (GatewayPolicy, {"failure_retries": -1}),
            (Tracer, {"max_traces": 0}),
            (GatewayPolicy, {"event_fast_buffer_size": 0}),
            (GatewayPolicy, {"event_disk_buffer_size": -1}),
            (GatewayPolicy, {"history_max_rows_per_group": 0}),
            (GatewayPolicy, {"history_fsync_interval": 0}),
            (GatewayPolicy, {"history_checkpoint_interval": -1.0}),
            (GatewayPolicy, {"stream_sweep_period": 0.0}),
            (hub, {"replay_limit": 0}),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        build, kw = kwargs
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


def test_every_field_is_varied_by_a_caller():
    """The knob census: a field no shipped caller ever sets is a
    constant — delete it and put the value at its one reader.  Setters
    under ``tests/`` and ``examples/`` do not count: a knob only a test
    turns is a keyword of the component the test builds."""
    root = Path(__file__).resolve().parent.parent
    policy_py = root / "src" / "repro" / "core" / "policy.py"
    text = "\n".join(
        path.read_text()
        for top in ("src", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if path != policy_py
    )
    never_set = [
        f.name
        for f in dataclasses.fields(GatewayPolicy)
        if not re.search(rf"\b{f.name}\s*=[^=]", text)
    ]
    assert never_set == []
    assert len(dataclasses.fields(GatewayPolicy)) <= 32


def test_production_is_the_paper_policy_plus_the_six_planes():
    paper, prod = dataclasses.asdict(GatewayPolicy()), dataclasses.asdict(production())
    assert {k for k in paper if paper[k] != prod[k]} == {
        "history_durable",
        "streaming_enabled",
        "admission_enabled",
        "adaptive_concurrency",
        "hedge_enabled",
        "security_enabled",
    }
    assert not any(paper[k] for k in paper if paper[k] != prod[k])
    assert production(hedge_enabled=False).hedge_enabled is False
    with pytest.raises(PolicyError):
        production(retry_attempts=0)
