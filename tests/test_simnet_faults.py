"""Unit tests for the chaos plane (repro.simnet.faults)."""

import pytest

from repro.simnet.clock import VirtualClock
from repro.simnet.errors import (
    HostUnreachableError,
    PayloadCorruptedError,
    PortClosedError,
    TimeoutError_,
)
from repro.simnet.faults import FaultPlane
from repro.simnet.network import Address, Network


@pytest.fixture
def rig():
    clock = VirtualClock()
    network = Network(clock, seed=3)
    network.add_host("a", site="s1")
    network.add_host("b", site="s1")
    network.listen(Address("b", 9), lambda p, s: ("echo", p))
    plane = FaultPlane(network, seed=11)
    return network, plane


class TestLatencySpikes:
    def test_certain_spike_charged_as_service_time(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=1.0, extra=0.5)
        t0 = net.clock.now()
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        assert net.clock.now() - t0 >= 0.5
        assert plane.stats.spikes_injected == 1
        assert plane.stats.spike_seconds == pytest.approx(0.5)

    def test_zero_probability_never_fires(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=0.0, extra=5.0)
        for _ in range(20):
            net.request("a", Address("b", 9), "x")
        assert plane.stats.spikes_injected == 0

    def test_spike_exceeding_timeout_lands_on_deadline(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=1.0, extra=5.0)
        t0 = net.clock.now()
        with pytest.raises(TimeoutError_):
            net.request("a", Address("b", 9), "x", timeout=0.1)
        assert net.clock.now() - t0 == pytest.approx(0.1)

    def test_window_expires(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=1.0, extra=0.5, duration=1.0)
        net.request("a", Address("b", 9), "x")
        assert plane.stats.spikes_injected == 1
        net.clock.advance(2.0)
        net.request("a", Address("b", 9), "x")
        assert plane.stats.spikes_injected == 1  # window closed

    def test_window_starts_later(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=1.0, extra=0.5, start=10.0)
        net.request("a", Address("b", 9), "x")
        assert plane.stats.spikes_injected == 0
        net.clock.advance(10.0)
        net.request("a", Address("b", 9), "x")
        assert plane.stats.spikes_injected == 1

    def test_spikes_on_other_host_do_not_apply(self, rig):
        net, plane = rig
        plane.latency_spikes("a", prob=1.0, extra=5.0)
        t0 = net.clock.now()
        net.request("a", Address("b", 9), "x")
        assert net.clock.now() - t0 < 1.0


class TestFlakyPort:
    def test_certain_refusal(self, rig):
        net, plane = rig
        plane.flaky_port("b", prob=1.0)
        with pytest.raises(PortClosedError) as exc:
            net.request("a", Address("b", 9), "x")
        assert "flaky port" in str(exc.value)
        assert plane.stats.refusals == 1

    def test_port_specific_window_spares_other_ports(self, rig):
        net, plane = rig
        net.listen(Address("b", 10), lambda p, s: "ok")
        plane.flaky_port("b", 10, prob=1.0)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        with pytest.raises(PortClosedError):
            net.request("a", Address("b", 10), "x")

    def test_async_path_also_refused(self, rig):
        # The overlapped path — one request per concurrent branch — draws
        # a refusal per branch, raised in the branch that made the call.
        net, plane = rig
        plane.flaky_port("b", prob=1.0)
        with net.clock.concurrent() as scope:
            for _ in range(2):
                with scope.branch():
                    with pytest.raises(PortClosedError, match="flaky port"):
                        net.request("a", Address("b", 9), "x")
        assert plane.stats.refusals == 2


class TestCorruption:
    def test_certain_corruption_after_full_round_trip(self, rig):
        net, plane = rig
        plane.corrupt_payloads("b", prob=1.0)
        t0 = net.clock.now()
        with pytest.raises(PayloadCorruptedError):
            net.request("a", Address("b", 9), "x")
        # The response travelled the wire before failing its checksum.
        assert net.clock.now() > t0
        assert plane.stats.corruptions == 1

    def test_async_path_corruption(self, rig):
        # Overlapped branches each pay the full round trip before the
        # checksum fails; the join lands on the slower of the two.
        net, plane = rig
        plane.corrupt_payloads("b", prob=1.0)
        t0 = net.clock.now()
        ends = []
        with net.clock.concurrent() as scope:
            for _ in range(2):
                with scope.branch():
                    with pytest.raises(PayloadCorruptedError):
                        net.request("a", Address("b", 9), "x")
                    ends.append(net.clock.now())
        assert plane.stats.corruptions == 2
        assert net.clock.now() == max(ends) > t0


class TestSlowHost:
    def test_applies_and_restores(self, rig):
        net, plane = rig
        plane.slow_host("b", factor=4.0, service_time=0.1, duration=5.0)
        assert net.slowdown("b") == 4.0
        assert net.service_time("b") == 0.1
        assert plane.stats.slowdowns == 1
        net.clock.advance(5.0)
        assert net.slowdown("b") == 1.0
        assert net.service_time("b") == 0.0

    def test_scheduled_start(self, rig):
        net, plane = rig
        plane.slow_host("b", factor=2.0, start=10.0)
        assert net.slowdown("b") == 1.0
        net.clock.advance(10.0)
        assert net.slowdown("b") == 2.0


class TestFlapHost:
    def test_single_flap_down_then_up(self, rig):
        net, plane = rig
        plane.flap_host("b", down_at=1.0, down_for=0.5)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        net.clock.advance(1.0 - (net.clock.now() % 1.0) + 0.1)  # into the window
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.05)
        net.clock.advance(0.5)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        assert plane.stats.flaps == 1

    def test_repeated_flaps(self, rig):
        net, plane = rig
        plane.flap_host("b", down_at=1.0, down_for=0.5, times=2, period=2.0)
        net.clock.advance(1.1)  # first window [1.0, 1.5)
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.05)
        net.clock.advance(0.5)  # healed
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        net.clock.advance(3.1 - net.clock.now())  # second window [3.0, 3.5)
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.05)
        net.clock.advance(0.5)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        assert plane.stats.flaps == 2

    def test_times_validation(self, rig):
        _, plane = rig
        with pytest.raises(ValueError):
            plane.flap_host("b", down_at=1.0, down_for=0.5, times=0)


class TestPartition:
    def test_timed_partition_auto_heals(self, rig):
        net, plane = rig
        plane.partition_between({"a"}, {"b"}, start=1.0, duration=1.0)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        net.clock.advance(1.1 - net.clock.now())
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.05)
        net.clock.advance(1.0)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        assert plane.stats.partitions == 1
        assert plane.stats.heals == 1


class TestDeterminism:
    def _run(self, seed):
        clock = VirtualClock()
        net = Network(clock, seed=3)
        net.add_host("a", site="s1")
        net.add_host("b", site="s1")
        net.listen(Address("b", 9), lambda p, s: p)
        plane = FaultPlane(net, seed=seed)
        plane.latency_spikes("b", prob=0.5, extra=0.3)
        plane.flaky_port("b", prob=0.2)
        plane.corrupt_payloads("b", prob=0.2)
        outcomes = []
        for i in range(30):
            try:
                outcomes.append(net.request("a", Address("b", 9), i, timeout=1.0))
            except Exception as exc:  # noqa: BLE001 - recording the shape
                outcomes.append(type(exc).__name__)
            clock.advance(1.0)
        return repr(outcomes), clock.now(), plane.stats.as_dict()

    def test_same_seed_replays_identically(self):
        assert self._run(7) == self._run(7)

    def test_different_seed_differs(self):
        assert self._run(7) != self._run(8)


class TestValidationAndObservability:
    def test_window_validation(self, rig):
        _, plane = rig
        with pytest.raises(ValueError):
            plane.latency_spikes("b", prob=1.5, extra=1.0)
        with pytest.raises(ValueError):
            plane.latency_spikes("b", prob=0.5, extra=-1.0)
        with pytest.raises(ValueError):
            plane.latency_spikes("b", prob=0.5, extra=1.0, start=-1.0)
        with pytest.raises(ValueError):
            plane.latency_spikes("b", prob=0.5, extra=1.0, duration=0.0)

    def test_active_faults_lists_windows_and_slowdowns(self, rig):
        net, plane = rig
        plane.latency_spikes("b", prob=0.5, extra=1.0)
        plane.slow_host("b", factor=3.0, service_time=0.05)
        lines = plane.active_faults()
        assert any(line.startswith("spike b") for line in lines)
        assert any("slow b x3" in line for line in lines)

    def test_inactive_windows_not_listed(self, rig):
        _, plane = rig
        plane.latency_spikes("b", prob=0.5, extra=1.0, start=100.0)
        assert plane.active_faults() == []

    def test_schedule_log_records_clock_driven_faults(self, rig):
        _, plane = rig
        plane.flap_host("b", down_at=5.0, down_for=1.0)
        plane.partition_between({"a"}, {"b"}, start=2.0, duration=1.0)
        plane.slow_host("b", factor=2.0, start=1.0, duration=1.0)
        log = plane.schedule_log()
        assert len(log) == 3
        assert log[0].startswith("flap_host b")
        assert log[1].startswith("partition")
        assert log[2].startswith("slow_host b")

    def test_seed_exposed_for_reporting(self, rig):
        _, plane = rig
        assert plane.seed == 11

    def test_stats_as_dict_keys(self, rig):
        _, plane = rig
        d = plane.stats.as_dict()
        assert set(d) == {
            "spikes_injected",
            "spike_seconds",
            "refusals",
            "corruptions",
            "flaps",
            "slowdowns",
            "partitions",
            "heals",
            "disk_crashes",
            "torn_writes",
            "bit_flips",
        }


class TestDiskFaults:
    def test_crash_disk_drops_unsynced_writes(self, rig):
        from repro.storage.simdisk import SimDisk

        net, plane = rig
        disk = SimDisk(clock=net.clock)
        disk.create("f")
        disk.append("f", b"durable")
        disk.fsync("f")
        disk.append("f", b"lost")
        plane.crash_disk(disk, torn=False)
        net.clock.advance(0.0)
        assert disk.read("f") == b"durable"
        assert plane.stats.disk_crashes == 1
        assert plane.stats.torn_writes == 0

    def test_torn_crash_keeps_strict_partial_fragment(self, rig):
        net, plane = rig
        from repro.storage.simdisk import SimDisk

        disk = SimDisk(clock=net.clock)
        torn = 0
        for i in range(20):
            disk.create(f"f{i}")
            disk.append(f"f{i}", b"0123456789" * 4)
            plane.crash_disk(disk)
            net.clock.advance(0.0)
            kept = len(disk.read(f"f{i}"))
            assert 0 <= kept < 40  # never the full chunk
            torn += kept > 0
        assert plane.stats.disk_crashes == 20
        assert plane.stats.torn_writes == torn
        assert torn > 0  # seeded RNG tears at least once in 20

    def test_scheduled_crash_fires_on_clock(self, rig):
        net, plane = rig
        from repro.storage.simdisk import SimDisk

        disk = SimDisk(clock=net.clock)
        disk.create("f")
        disk.append("f", b"x")
        plane.crash_disk(disk, at=5.0, torn=False)
        net.clock.advance(4.0)
        assert plane.stats.disk_crashes == 0
        net.clock.advance(2.0)
        assert plane.stats.disk_crashes == 1

    def test_flip_segment_bit_targets_named_path(self, rig):
        net, plane = rig
        from repro.storage.simdisk import SimDisk

        disk = SimDisk(clock=net.clock)
        disk.create("seg/g/00000001.seg")
        disk.append("seg/g/00000001.seg", b"\x00\x00")
        disk.fsync("seg/g/00000001.seg")
        plane.flip_segment_bit(disk, path="seg/g/00000001.seg")
        net.clock.advance(0.0)
        assert disk.read("seg/g/00000001.seg") != b"\x00\x00"
        assert plane.stats.bit_flips == 1

    def test_flip_segment_bit_noop_without_segments(self, rig):
        net, plane = rig
        from repro.storage.simdisk import SimDisk

        disk = SimDisk(clock=net.clock)
        plane.flip_segment_bit(disk)
        net.clock.advance(0.0)
        assert plane.stats.bit_flips == 0

    def test_disk_faults_logged(self, rig):
        net, plane = rig
        from repro.storage.simdisk import SimDisk

        disk = SimDisk(clock=net.clock)
        plane.crash_disk(disk, at=1.0)
        plane.flip_segment_bit(disk, at=2.0)
        log = plane.schedule_log()
        assert any(line.startswith("crash_disk") for line in log)
        assert any(line.startswith("flip_segment_bit") for line in log)
