"""Session management (paper Figure 2: "Session Management").

Clients authenticate once against the gateway and receive a token; every
subsequent ACIL call carries it.  Sessions expire after :data:`SESSION_TTL`
idle seconds, measured on the virtual clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.errors import SessionError
from repro.core.security import Principal
from repro.simnet.clock import VirtualClock

#: Idle time after which a session expires (s, virtual).
SESSION_TTL = 3600.0


@dataclass
class Session:
    """One authenticated client session."""

    token: str
    principal: Principal
    created: float
    last_used: float

    def touch(self, now: float) -> None:
        self.last_used = now


class SessionManager:
    """Creates, validates and expires sessions."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._sessions: dict[str, Session] = {}
        self._counter = itertools.count(1)

    def open(self, principal: Principal) -> Session:
        """Open a session for an already-authenticated principal."""
        now = self.clock.now()
        token = f"s{next(self._counter):08d}-{principal.name}"
        session = Session(
            token=token, principal=principal, created=now, last_used=now
        )
        self._sessions[token] = session
        return session

    def validate(self, token: str) -> Session:
        """Return the live session for ``token``; touch its idle timer."""
        session = self._sessions.get(token)
        if session is None:
            raise SessionError(f"no such session: {token!r}")
        now = self.clock.now()
        if now - session.last_used > SESSION_TTL:
            del self._sessions[token]
            raise SessionError(f"session expired: {token!r}")
        session.touch(now)
        return session

    def close(self, token: str) -> bool:
        return self._sessions.pop(token, None) is not None

    def sweep(self) -> int:
        """Drop all expired sessions; returns how many were removed."""
        now = self.clock.now()
        dead = [
            t for t, s in self._sessions.items() if now - s.last_used > SESSION_TTL
        ]
        for t in dead:
            del self._sessions[t]
        return len(dead)

    def active_count(self) -> int:
        return len(self._sessions)
