"""Unit tests for gateway policy validation."""

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
            {"session_ttl": 0.0},
            {"event_fast_buffer_size": 0},
            {"event_disk_buffer_size": -1},
            {"history_max_rows_per_group": 0},
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
