"""Shared infrastructure for the experiment benchmarks (E1-E19, E26, A1-A2).

Each benchmark file reproduces one experiment from DESIGN.md §5.  Because
the paper publishes no measured numbers, every benchmark measures the
*virtual-time / protocol-level* quantity the claim is about (connection
setup RTTs saved, agent polls suppressed, events lost, ...), printing a
small table and asserting the expected shape.  E1-E13 and A1-A2 also
feed their CPU-bound kernel to pytest-benchmark for wall-time numbers;
E14-E19 and E26 time nothing, their wall costs being per-layer columns
of the one e2e harness (``benchmarks/e2e/run.py``).

The printed tables are emitted through ``report`` (bypassing capture), so
``python -m pytest benchmarks/ -q --benchmark-disable`` prints every
table; the run writes no tracked file.
"""

from __future__ import annotations

import pytest

from repro.core.policy import GatewayPolicy
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import Site, build_site


@pytest.fixture
def report(capsys):
    """Print lines straight to the terminal, uncaptured."""

    def _report(*lines: str) -> None:
        with capsys.disabled():
            print()
            for line in lines:
                print("    " + line)

    return _report


def fresh_site(
    *,
    name: str = "bench",
    n_hosts: int = 4,
    agents=("snmp", "ganglia"),
    seed: int = 0,
    policy: GatewayPolicy | None = None,
    warmup: float = 30.0,
    snmp_trap_threshold: float | None = None,
) -> Site:
    """A brand-new single-site rig (fresh clock + network every call)."""
    clock = VirtualClock()
    network = Network(clock, seed=seed)
    site = build_site(
        network,
        name=name,
        n_hosts=n_hosts,
        agents=agents,
        seed=seed,
        policy=policy,
        snmp_trap_threshold=snmp_trap_threshold,
    )
    clock.advance(warmup)
    return site


def fmt_table(headers: list[str], rows: list[list]) -> list[str]:
    """Render a small fixed-width table."""
    text_rows = [[f"{v:.4g}" if isinstance(v, float) else str(v) for v in r] for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "  ".join("-" * w for w in widths)
    out = [line, sep]
    for r in text_rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return out
