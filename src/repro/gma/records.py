"""GMA registration records."""

from __future__ import annotations

from dataclasses import dataclass


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
