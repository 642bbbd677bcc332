"""Unit tests for the synthetic host model.

``python -m tests.test_host_model`` (repo root, ``PYTHONPATH`` on the
reference commit's ``src``) prints the digest :data:`GOLDEN_SNAPSHOTS`
pins.
"""

import hashlib
import math
import random

import pytest

from repro.agents import host_model
from repro.agents.host_model import DRAW_MEMO_SIZE, HostSpec, SimulatedHost
from repro.simnet.clock import VirtualClock


@pytest.fixture
def host():
    return SimulatedHost(HostSpec.generate("n0", "site-a", 42), VirtualClock())


class TestSpecGeneration:
    def test_deterministic(self):
        a = HostSpec.generate("n0", "s", 1)
        b = HostSpec.generate("n0", "s", 1)
        assert a == b

    def test_name_changes_spec(self):
        a = HostSpec.generate("n0", "s", 1)
        b = HostSpec.generate("n1", "s", 1)
        assert a.seed != b.seed

    def test_seed_changes_spec(self):
        a = HostSpec.generate("n0", "s", 1)
        b = HostSpec.generate("n0", "s", 2)
        assert a.seed != b.seed

    def test_plausible_hardware(self, host):
        s = host.spec
        assert s.cpu_count in (1, 2, 4, 8)
        assert s.ram_mb >= 256
        assert s.filesystems
        assert s.ip_address.startswith("192.168.")


class TestSnapshotInvariants:
    TIMES = [0.0, 37.5, 600.0, 3600.0, 90000.0]

    @pytest.mark.parametrize("t", TIMES)
    def test_utilization_bounded(self, host, t):
        cpu = host.snapshot(t)["cpu"]
        assert 0.0 <= cpu["utilization"] <= 100.0
        assert 0.0 <= cpu["idle"] <= 100.0
        assert cpu["user"] + cpu["system"] == pytest.approx(cpu["utilization"])

    @pytest.mark.parametrize("t", TIMES)
    def test_loads_non_negative(self, host, t):
        cpu = host.snapshot(t)["cpu"]
        assert cpu["load_1"] >= 0 and cpu["load_5"] >= 0 and cpu["load_15"] >= 0

    @pytest.mark.parametrize("t", TIMES)
    def test_memory_bounded(self, host, t):
        mem = host.snapshot(t)["memory"]
        assert 0 <= mem["ram_free_mb"] <= mem["ram_total_mb"]
        assert 0 <= mem["swap_free_mb"] <= mem["swap_total_mb"]

    @pytest.mark.parametrize("t", TIMES)
    def test_filesystem_bounded(self, host, t):
        for fs in host.snapshot(t)["filesystems"]:
            assert 0 <= fs["avail_mb"] <= fs["size_mb"]

    def test_network_counters_monotone(self, host):
        prev_rx = prev_tx = -1
        for t in self.TIMES:
            net = host.snapshot(t)["network"]
            assert net["bytes_rx"] >= prev_rx
            assert net["bytes_tx"] >= prev_tx
            prev_rx, prev_tx = net["bytes_rx"], net["bytes_tx"]

    def test_uptime_advances_with_clock(self, host):
        u0 = host.snapshot(0.0)["os"]["uptime_s"]
        u1 = host.snapshot(100.0)["os"]["uptime_s"]
        assert u1 - u0 == pytest.approx(100.0)

    def test_snapshot_pure_function_of_time(self, host):
        assert host.snapshot(123.4) == host.snapshot(123.4)

    def test_snapshot_defaults_to_clock_now(self, host):
        host.clock.advance(55.0)
        assert host.snapshot()["time"] == 55.0

    def test_process_count_positive(self, host):
        for t in self.TIMES:
            assert host.snapshot(t)["os"]["process_count"] >= 1

    def test_processes_have_expected_shape(self, host):
        procs = host.snapshot(60.0)["processes"]
        assert procs
        for p in procs:
            assert set(p) == {"pid", "name", "state", "cpu_percent", "mem_percent", "owner"}


class TestLoadDynamics:
    def test_load_varies_over_time(self, host):
        loads = {round(host.load_at(t), 6) for t in range(0, 3600, 120)}
        assert len(loads) > 5  # not constant

    def test_episodes_create_bursts(self):
        """Across many windows, at least one episode burst must appear."""
        host = SimulatedHost(HostSpec.generate("burst", "s", 3), VirtualClock())
        base = host.spec.base_load
        peak = max(host.load_at(t) for t in range(0, 36000, 60))
        assert peak > base  # bursts push above the baseline

    def test_load_average_smoother_than_instantaneous(self, host):
        import statistics

        inst = [host.load_at(float(t)) for t in range(0, 3600, 60)]
        avg15 = [host._load_avg(float(t), 900.0) for t in range(0, 3600, 60)]
        assert statistics.pstdev(avg15) <= statistics.pstdev(inst) + 1e-9


# ----------------------------------------------------------------------
# The per-host draw memo: same values, each seeded draw made once
# ----------------------------------------------------------------------
#: Three hosts of different CPU counts and sites.
SPECS = (("n0", "site-a", 42), ("site-b-n03", "site-b", 11), ("burst", "s", 3))


def _instants() -> list[float]:
    """500 distinct instants over two virtual hours: every knot and window
    edge in them (``k*60``, ``k*600``, ``k*3600``, each also +-1e-9; the
    last two are among the first) plus a seeded sweep."""
    horizon = 2 * 3600.0
    edges = {0.0}
    for step in (60.0, 600.0, 3600.0):
        for k in range(1, int(horizon / step) + 1):
            edges.update((k * step - 1e-9, k * step, k * step + 1e-9))
    rng = random.Random(2909)
    sweep = [rng.uniform(0.0, horizon) for _ in range(500 - len(edges))]
    return sorted(edges.union(sweep))


INSTANTS = _instants()


def snapshot_digest() -> str:
    """SHA-256 over ``repr(host.snapshot(t))`` for every spec and instant,
    each host fresh and sampled in instant order."""
    h = hashlib.sha256()
    for name, site, seed in SPECS:
        host = SimulatedHost(HostSpec.generate(name, site, seed), VirtualClock())
        for t in INSTANTS:
            h.update(repr(host.snapshot(t)).encode())
            h.update(b"\n")
    return h.hexdigest()


#: :func:`snapshot_digest` computed at commit ``a3fa139``, before hosts
#: remembered their draws (every knot and window re-seeded on each
#: snapshot).  The memo may change what a snapshot costs, never what it
#: says.
GOLDEN_SNAPSHOTS = "8e735cdfee23ea1b894773abc4483bd6f205a47e3feb7571577702d2e9d0755b"


def _seed(*parts) -> int:
    """Reference seed: the first 8 bytes of SHA-256 over the parts joined
    by ``|``, big-endian (written out here, not imported)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def ref_knot(host_seed: int, channel: str, i: int) -> float:
    return random.Random(_seed(host_seed, channel, i)).uniform(-1.0, 1.0)


def ref_noise(host, channel: str, t: float, knot: float = 60.0) -> float:
    k = math.floor(t / knot)
    frac = t / knot - k
    s = host.spec.seed
    return ref_knot(s, channel, k) * (1.0 - frac) + ref_knot(s, channel, k + 1) * frac


def ref_episode(host, t: float, window: float = 600.0) -> float:
    w = math.floor(t / window)
    rng = random.Random(_seed(host.spec.seed, "episode", w))
    if rng.random() >= 0.35:
        return 0.0
    intensity = rng.uniform(0.5, 2.0) * host.spec.cpu_count
    start = rng.uniform(0.0, 0.3) * window
    length = rng.uniform(0.3, 0.9) * window
    return intensity if start <= t - w * window <= start + length else 0.0


def ref_load(host, t: float) -> float:
    s = host.spec
    diurnal = s.diurnal_amplitude * math.sin(
        2 * math.pi * t / 3600.0 + (s.seed % 628) / 100.0
    )
    noise = 0.15 * s.cpu_count * ref_noise(host, "load", t)
    return max(0.0, s.base_load + diurnal + ref_episode(host, t) + noise)


@pytest.fixture
def hosts():
    return [
        SimulatedHost(HostSpec.generate(name, site, seed), VirtualClock())
        for name, site, seed in SPECS
    ]


class TestDrawMemo:
    def test_snapshots_match_the_golden_digest(self):
        """Every snapshot of three hosts over 500 instants, knot and window
        edges included, is byte-equal to the pre-memo model."""
        assert snapshot_digest() == GOLDEN_SNAPSHOTS

    def test_draws_match_an_independent_reference(self, hosts):
        """Knots, windows and load agree with a re-derivation that shares
        no code with the model; asked twice, so the second answer comes
        from the memo."""
        for host in hosts:
            for _ in range(2):
                for t in INSTANTS:
                    for channel in ("load", "mem", "proc", "users"):
                        assert host._value_noise(channel, t) == ref_noise(host, channel, t)
                    assert host._value_noise("fs:/", t, knot=3600.0) == ref_noise(
                        host, "fs:/", t, knot=3600.0
                    )
                    assert host._episode(t) == ref_episode(host, t)
                    assert host.load_at(t) == ref_load(host, t)

    def test_each_seeded_draw_is_made_once_per_host(self, hosts, monkeypatch):
        """A repeated snapshot seeds one RNG, its process list's; the knots
        and windows it samples are all remembered."""
        seeds = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(host_model.random, "Random", CountingRandom)
        host = hosts[0]
        host.snapshot(1234.5)
        first = len(seeds)
        assert first == len(set(seeds)) == len(host._draws) + 1
        host.snapshot(1234.5)
        assert len(seeds) == first + 1

    def test_memo_stays_within_its_bound(self, hosts):
        """Past more distinct keys than the bound the memo holds at most
        the bound, and an evicted draw is drawn again to the same value."""
        host = hosts[1]
        ts = [60.0 * i + 7.5 for i in range(DRAW_MEMO_SIZE + 500)]
        for t in ts:
            assert host._value_noise("load", t) == ref_noise(host, "load", t)
            assert len(host._draws) <= DRAW_MEMO_SIZE
        assert len(host._draws) == DRAW_MEMO_SIZE
        for t in ts[:50] + ts[-50:]:
            assert host._value_noise("load", t) == ref_noise(host, "load", t)
            assert host._episode(t) == ref_episode(host, t)
            assert len(host._draws) <= DRAW_MEMO_SIZE

    def test_hosts_from_equal_specs_keep_separate_memos(self):
        """Two hosts built from one spec share no memo: sampling one leaves
        the other cold, and both then answer alike."""
        spec = HostSpec.generate("twin", "s", 5)
        a = SimulatedHost(spec, VirtualClock())
        b = SimulatedHost(spec, VirtualClock())
        snap = a.snapshot(900.0)
        assert a._draws and not b._draws
        assert b.snapshot(900.0) == snap
        assert a._draws == b._draws and a._draws is not b._draws


if __name__ == "__main__":
    print(snapshot_digest())
