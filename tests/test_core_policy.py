"""Unit tests for gateway policy validation."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.errors import PolicyError
from repro.core.policy import FailureAction, GatewayPolicy


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
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query_cache_ttl": -1.0},
            {"pool_max_per_source": 0},
            {"pool_idle_ttl": 0.0},
            {"failure_retries": -1},
            {"trace_max_traces": 0},
            {"event_fast_buffer_size": 0},
            {"event_disk_buffer_size": -1},
            {"history_max_rows_per_group": 0},
            {"history_fsync_interval": 0},
            {"history_checkpoint_interval": -1.0},
            {"stream_sweep_period": 0.0},
            {"stream_replay_limit": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            GatewayPolicy(**kwargs)

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
    constant — delete it and put the value at its one reader."""
    root = Path(__file__).resolve().parent.parent
    policy_py = root / "src" / "repro" / "core" / "policy.py"
    text = "\n".join(
        path.read_text()
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((root / top).rglob("*.py"))
        if path != policy_py
    )
    never_set = [
        f.name
        for f in dataclasses.fields(GatewayPolicy)
        if not re.search(rf"\b{f.name}\s*=[^=]", text)
    ]
    assert never_set == []
