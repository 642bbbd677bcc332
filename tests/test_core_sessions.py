"""Unit tests for session management."""

import pytest

from repro.core.errors import SessionError
from repro.core.security import Principal
from repro.core.sessions import SESSION_TTL, SessionManager
from repro.simnet.clock import VirtualClock

USER = Principal.with_roles("u", "user")


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def sm(clock):
    return SessionManager(clock)


class TestLifecycle:
    def test_open_and_validate(self, sm):
        s = sm.open(USER)
        assert sm.validate(s.token).principal is USER

    def test_tokens_unique(self, sm):
        assert sm.open(USER).token != sm.open(USER).token

    def test_unknown_token_rejected(self, sm):
        with pytest.raises(SessionError):
            sm.validate("nope")

    def test_close(self, sm):
        s = sm.open(USER)
        assert sm.close(s.token)
        assert not sm.close(s.token)
        with pytest.raises(SessionError):
            sm.validate(s.token)

    def test_invalid_ttl_rejected(self, clock):
        """The idle TTL is a constant now, not a keyword to refuse: it
        meets the bound the constructor checked."""
        assert SESSION_TTL > 0


class TestExpiry:
    def test_expires_after_idle_ttl(self, sm, clock):
        s = sm.open(USER)
        clock.advance(SESSION_TTL + 1.0)
        with pytest.raises(SessionError):
            sm.validate(s.token)

    def test_validation_touches_idle_timer(self, sm, clock):
        s = sm.open(USER)
        clock.advance(0.9 * SESSION_TTL)
        sm.validate(s.token)
        clock.advance(0.9 * SESSION_TTL)
        sm.validate(s.token)  # still alive: touched at 0.9 TTL

    def test_sweep_removes_expired(self, sm, clock):
        sm.open(USER)
        sm.open(USER)
        clock.advance(SESSION_TTL + 1.0)
        live = sm.open(USER)
        assert sm.sweep() == 2
        assert sm.active_count() == 1
        sm.validate(live.token)
