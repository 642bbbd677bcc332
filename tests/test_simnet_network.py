"""Unit tests for the simulated network."""

import pytest

from repro.simnet.clock import VirtualClock
from repro.simnet.errors import (
    HostUnreachableError,
    NetworkError,
    PortClosedError,
    TimeoutError_,
)
from repro.simnet.link import LAN, WAN, LinkModel
from repro.simnet.network import Address, Network


def make_net():
    clock = VirtualClock()
    network = Network(clock, seed=3)
    network.add_host("a", site="s1")
    network.add_host("b", site="s1")
    network.add_host("c", site="s2")
    return network


@pytest.fixture
def net():
    return make_net()


def echo(payload, src):
    return ("echo", payload)


def overlapped(net, calls):
    """One ``request`` from host ``a`` per ``(dst, payload, timeout)``,
    each in its own ``clock.concurrent()`` branch: the replies, or the
    typed error a branch ended with, in launch order."""
    out = []
    with net.clock.concurrent() as scope:
        for dst, payload, timeout in calls:
            with scope.branch():
                try:
                    out.append(net.request("a", dst, payload, timeout=timeout))
                except NetworkError as exc:
                    out.append(exc)
    return out


class TestTopology:
    def test_add_host_idempotent_same_site(self, net):
        net.add_host("a", site="s1")  # no error

    def test_add_host_conflicting_site_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_host("a", site="other")

    def test_hosts_filter_by_site(self, net):
        assert net.hosts(site="s1") == ["a", "b"]
        assert net.hosts(site="s2") == ["c"]

    def test_site_of(self, net):
        assert net.site_of("c") == "s2"

    def test_unknown_host_raises_keyerror(self, net):
        with pytest.raises(KeyError):
            net.site_of("nope")

    def test_double_bind_rejected(self, net):
        net.listen(Address("a", 1), echo)
        with pytest.raises(ValueError):
            net.listen(Address("a", 1), echo)

    def test_close_unbinds(self, net):
        net.listen(Address("a", 1), echo)
        net.close(Address("a", 1))
        assert not net.is_listening(Address("a", 1))

    def test_listen_requires_existing_host(self, net):
        with pytest.raises(KeyError):
            net.listen(Address("ghost", 1), echo)


class TestRequest:
    def test_roundtrip(self, net):
        net.listen(Address("b", 9), echo)
        assert net.request("a", Address("b", 9), "hi") == ("echo", "hi")

    def test_request_advances_clock(self, net):
        net.listen(Address("b", 9), echo)
        before = net.clock.now()
        net.request("a", Address("b", 9), "hi")
        assert net.clock.now() > before

    def test_intersite_slower_than_intrasite(self, net):
        net.listen(Address("b", 9), echo)
        net.listen(Address("c", 9), echo)
        t0 = net.clock.now()
        net.request("a", Address("b", 9), "x")
        lan_cost = net.clock.now() - t0
        t1 = net.clock.now()
        net.request("a", Address("c", 9), "x")
        wan_cost = net.clock.now() - t1
        assert wan_cost > lan_cost * 10

    def test_unknown_destination_unreachable(self, net):
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("ghost", 9), "x", timeout=0.1)

    def test_unreachable_costs_full_timeout(self, net):
        t0 = net.clock.now()
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("ghost", 9), "x", timeout=0.5)
        assert net.clock.now() - t0 == pytest.approx(0.5)

    def test_down_host_unreachable(self, net):
        net.listen(Address("b", 9), echo)
        net.set_host_up("b", False)
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.1)

    def test_revived_host_answers_again(self, net):
        net.listen(Address("b", 9), echo)
        net.set_host_up("b", False)
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.1)
        net.set_host_up("b", True)
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")

    def test_closed_port_refused(self, net):
        with pytest.raises(PortClosedError):
            net.request("a", Address("b", 12345), "x")

    def test_lossy_host_times_out_eventually(self, net):
        net.listen(Address("b", 9), echo)
        net.set_extra_loss("b", 0.9)
        with pytest.raises(TimeoutError_):
            for _ in range(200):
                net.request("a", Address("b", 9), "x", timeout=0.05)

    def test_stats_count_requests(self, net):
        net.listen(Address("b", 9), echo)
        net.stats.reset()
        net.request("a", Address("b", 9), "x")
        net.request("a", Address("b", 9), "x")
        assert net.stats.requests == 2
        assert net.stats.bytes_sent > 0


class TestPartition:
    def test_partition_blocks_cross_group(self, net):
        net.listen(Address("c", 9), echo)
        net.partition({"a", "b"}, {"c"})
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("c", 9), "x", timeout=0.1)

    def test_partition_allows_within_group(self, net):
        net.listen(Address("b", 9), echo)
        net.partition({"a", "b"}, {"c"})
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")

    def test_heal_restores_connectivity(self, net):
        net.listen(Address("c", 9), echo)
        net.partition({"a", "b"}, {"c"})
        net.heal()
        assert net.request("a", Address("c", 9), "x") == ("echo", "x")

    def test_unlisted_host_isolated(self, net):
        net.listen(Address("b", 9), echo)
        net.partition({"a"})
        with pytest.raises(HostUnreachableError):
            net.request("a", Address("b", 9), "x", timeout=0.1)


class TestDatagram:
    def test_delivery_after_delay(self, net):
        got = []
        net.listen(Address("b", 5), echo, datagram_handler=lambda p, s: got.append(p))
        net.send("a", Address("b", 5), "trap")
        assert got == []  # in flight
        net.clock.advance(1.0)
        assert got == ["trap"]

    def test_send_to_down_host_dropped_silently(self, net):
        net.set_host_up("b", False)
        net.send("a", Address("b", 5), "trap")
        net.clock.advance(1.0)
        assert net.stats.drops == 1

    def test_send_to_unbound_port_dropped_at_delivery(self, net):
        net.send("a", Address("b", 5), "trap")
        net.clock.advance(1.0)
        assert net.stats.drops == 1

    def test_host_dying_in_flight_drops(self, net):
        got = []
        net.listen(Address("b", 5), echo, datagram_handler=lambda p, s: got.append(p))
        net.send("a", Address("b", 5), "trap")
        net.set_host_up("b", False)
        net.clock.advance(1.0)
        assert got == []


class TestLinkModel:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(base_latency=-1)
        with pytest.raises(ValueError):
            LinkModel(loss=1.0)
        with pytest.raises(ValueError):
            LinkModel(jitter=-0.1)

    def test_bandwidth_charges_large_payloads(self, net):
        import random

        link = LinkModel(base_latency=0.001, bandwidth=1000.0)
        rng = random.Random(0)
        small = link.delay(10, rng)
        large = link.delay(10_000, rng)
        assert large > small + 9.0  # ~10s extra at 1000 B/s

    def test_link_for_same_site_is_lan(self, net):
        assert net.link_for("a", "b") is LAN
        assert net.link_for("a", "c") is WAN

    def test_determinism_same_seed(self):
        def run(seed):
            clock = VirtualClock()
            n = Network(clock, seed=seed)
            n.add_host("x", site="s")
            n.add_host("y", site="s")
            n.listen(Address("y", 1), echo)
            for _ in range(10):
                n.request("x", Address("y", 1), "p")
            return clock.now()

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestDeferredRpc:
    """Overlapped RPC: ``request`` inside ``clock.concurrent()`` branches
    is the one way round-trips overlap in virtual time.

    The class and test names predate the deletion of the deferred-RPC
    stack (``request_async`` / ``NetFuture`` / ``gather``); each keeps
    its id and checks the same property on the surviving path.
    """

    def test_request_async_matches_sync_result(self):
        def run(in_branch):
            net = make_net()
            net.listen(Address("b", 9), echo)
            if in_branch:
                (reply,) = overlapped(net, [(Address("b", 9), "hello", None)])
            else:
                reply = net.request("a", Address("b", 9), "hello")
            return reply, net.clock.now(), net.stats.as_dict()

        # Same seed: a lone branch is the sequential call, reply for
        # reply, instant for instant, byte for byte.
        assert run(True) == run(False)
        assert run(True)[0] == ("echo", "hello")

    def test_gather_overlaps_round_trips(self, net):
        net.listen(Address("b", 9), echo)
        t0 = net.clock.now()
        for i in range(4):
            net.request("a", Address("b", 9), i)
        serial = net.clock.now() - t0
        net.stats.reset()
        t0 = net.clock.now()
        overlapped(net, [(Address("b", 9), i, None) for i in range(4)])
        # Four overlapped round-trips cost about one round-trip, far less
        # than four serial ones — and are still four requests.
        assert net.clock.now() - t0 < serial / 2
        assert net.stats.requests == 4

    def test_gather_preserves_order(self, net):
        net.listen(Address("b", 9), echo)
        calls = [(Address("b", 9), i, None) for i in range(5)]
        assert overlapped(net, calls) == [("echo", i) for i in range(5)]

    def test_async_failure_surfaces_on_result(self, net):
        t0 = net.clock.now()
        with net.clock.concurrent() as scope:
            with scope.branch():
                # Raised in the branch that made the call, not at the join.
                with pytest.raises(PortClosedError):
                    net.request("a", Address("b", 777), "x")  # port closed
                assert net.clock.in_concurrent_branch
        assert not net.clock.in_concurrent_branch
        # A refusal is an answer: it costs the send delay, not the timeout.
        assert 0 < net.clock.now() - t0 < 0.01

    def test_gather_return_exceptions(self, net):
        net.listen(Address("b", 9), echo)
        good, bad = overlapped(
            net, [(Address("b", 9), "ok", None), (Address("b", 777), "x", None)]
        )
        assert good == ("echo", "ok")
        assert isinstance(bad, PortClosedError)

    def test_async_to_dead_host_times_out(self, net):
        net.listen(Address("b", 9), echo)
        net.listen(Address("c", 9), echo)
        net.set_host_up("b", False)
        t0 = net.clock.now()
        dead, alive = overlapped(
            net, [(Address("b", 9), "x", 0.5), (Address("c", 9), "y", None)]
        )
        assert isinstance(dead, HostUnreachableError)
        assert alive == ("echo", "y")
        # The join waits out the dead branch's timeout, exactly.
        assert net.clock.now() - t0 == pytest.approx(0.5)


class TestTimeoutBudget:
    """``request`` enforces ``timeout`` against accumulated virtual time."""

    def test_service_time_exceeding_budget_times_out(self, net):
        net.listen(Address("b", 9), echo)
        net.set_service_time("b", 10.0)
        with pytest.raises(TimeoutError_):
            net.request("a", Address("b", 9), "x", timeout=0.5)

    def test_timeout_lands_exactly_on_deadline_instant(self, net):
        net.listen(Address("b", 9), echo)
        net.set_service_time("b", 10.0)
        t0 = net.clock.now()
        with pytest.raises(TimeoutError_):
            net.request("a", Address("b", 9), "x", timeout=0.5)
        # The clock advances to exactly t0 + timeout — a slow chain can
        # never exceed its deadline and still return.
        assert net.clock.now() - t0 == pytest.approx(0.5)

    def test_service_time_within_budget_is_charged(self, net):
        net.listen(Address("b", 9), echo)
        net.set_service_time("b", 0.2)
        t0 = net.clock.now()
        assert net.request("a", Address("b", 9), "x") == ("echo", "x")
        assert net.clock.now() - t0 >= 0.2

    def test_slowdown_scales_round_trip(self):
        def run(factor):
            clock = VirtualClock()
            n = Network(clock, seed=3)
            n.add_host("x", site="s")
            n.add_host("y", site="s")
            n.listen(Address("y", 1), echo)
            n.set_slowdown("y", factor)
            t0 = clock.now()
            n.request("x", Address("y", 1), "p")
            return clock.now() - t0

        # Same seed => same link draws, so the ratio is exact.
        assert run(10.0) == pytest.approx(run(1.0) * 10.0)

    def test_slow_host_misses_deadline(self, net):
        net.listen(Address("b", 9), echo)
        net.set_slowdown("b", 100_000.0)
        t0 = net.clock.now()
        with pytest.raises(TimeoutError_):
            net.request("a", Address("b", 9), "x", timeout=0.5)
        assert net.clock.now() - t0 == pytest.approx(0.5)

    def test_handler_compute_not_charged_against_budget(self, net):
        # End-to-end budgets across multi-hop chains belong to the core
        # layer's Deadline; the transport timeout covers wire + service
        # time of *this* hop only, so a nested slow RPC inside the
        # handler must not expire the outer request.
        net.listen(Address("c", 9), echo)

        def relay(payload, src):
            return net.request("b", Address("c", 9), payload)  # slow WAN hop

        net.listen(Address("b", 9), relay)
        t0 = net.clock.now()
        result = net.request("a", Address("b", 9), "x", timeout=0.01)
        assert result == ("echo", "x")
        # The nested WAN round-trip dwarfed the outer 10 ms budget.
        assert net.clock.now() - t0 > 0.01

    def test_fault_knob_validation(self, net):
        with pytest.raises(ValueError):
            net.set_service_time("b", -1.0)
        with pytest.raises(ValueError):
            net.set_slowdown("b", 0.0)
        with pytest.raises(ValueError):
            net.set_extra_loss("b", 1.0)

    def test_service_time_accessors(self, net):
        net.set_service_time("b", 0.25)
        net.set_slowdown("b", 2.0)
        assert net.service_time("b") == 0.25
        assert net.slowdown("b") == 2.0


class TestAsyncMidFlightDeath:
    """A host lost while sibling requests are in flight surfaces at
    send-time + timeout: every branch's budget starts at the scope's
    opening instant, not where an earlier branch left the clock."""

    def _lost_between_branches(self, net, dst, lose):
        net.listen(dst, echo)
        t0 = net.clock.now()
        with net.clock.concurrent() as scope:
            with scope.branch():
                assert net.request("a", dst, "x") == ("echo", "x")
                assert net.clock.now() > t0
            lose()  # while the first request is still in flight
            with scope.branch():
                with pytest.raises(HostUnreachableError) as exc:
                    net.request("a", dst, "x", timeout=0.5)
        # Not first-branch-end + timeout: the deadline was fixed at send.
        assert net.clock.now() == pytest.approx(t0 + 0.5)
        return str(exc.value)

    def test_death_mid_flight_surfaces_at_send_plus_timeout(self, net):
        message = self._lost_between_branches(
            net, Address("b", 9), lambda: net.set_host_up("b", False)
        )
        assert "host down" in message

    def test_partition_mid_flight_surfaces_at_send_plus_timeout(self, net):
        message = self._lost_between_branches(
            net, Address("c", 9), lambda: net.partition({"a", "b"}, {"c"})
        )
        assert "no route" in message

    def test_already_dead_host_fails_at_deadline(self, net):
        net.listen(Address("b", 9), echo)
        net.set_host_up("b", False)
        t0 = net.clock.now()
        (failure,) = overlapped(net, [(Address("b", 9), "x", 0.25)])
        assert isinstance(failure, HostUnreachableError)
        assert "host down" in str(failure)
        assert net.clock.now() == pytest.approx(t0 + 0.25)


class TestGatherAllFail:
    """Every branch of a scope fails, each in its own way."""

    DOOMED = [
        (Address("ghost", 9), "x", 0.2),  # no route
        (Address("b", 777), "x", 0.2),  # refused
        (Address("c", 9), "x", 0.3),  # host down
        (Address("d", 9), "x", 0.1),  # every packet lost
    ]

    def _doom(self, net):
        net.listen(Address("c", 9), echo)
        net.set_host_up("c", False)
        net.add_host("d", site="s1")
        net.listen(Address("d", 9), echo)
        net.set_extra_loss("d", 0.9999999)

    def test_ordering_and_exception_types_preserved(self, net):
        self._doom(net)
        t0 = net.clock.now()
        results = overlapped(net, self.DOOMED)
        assert [type(r) for r in results] == [
            HostUnreachableError,
            PortClosedError,
            HostUnreachableError,
            TimeoutError_,
        ]
        assert "no route" in str(results[0])
        assert "host down" in str(results[2])
        assert "lost" in str(results[3])
        # The join lands on the slowest failure, not on the sum.
        assert net.clock.now() == pytest.approx(t0 + 0.3)
        assert net.stats.requests == 4

    def test_without_flag_first_failure_raises(self, net):
        self._doom(net)
        t0 = net.clock.now()
        launched = 0
        # Nobody catches inside the branch: the first failure leaves the
        # scope as itself, later branches never launch, and the clock is
        # back on the shared timeline at the failed branch's end.
        with pytest.raises(HostUnreachableError, match="no route"):
            with net.clock.concurrent() as scope:
                for dst, payload, timeout in self.DOOMED:
                    with scope.branch():
                        launched += 1
                        net.request("a", dst, payload, timeout=timeout)
        assert launched == 1
        assert not net.clock.in_concurrent_branch and net.clock.lane == ()
        assert net.clock.now() == pytest.approx(t0 + 0.2)


class TestPendingFutures:
    """``request`` leaves nothing outstanding: it schedules no timer, so
    there is nothing a drain could find stuck.  Datagrams are the only
    deliveries that wait on the clock's schedule."""

    def test_counts_outstanding_and_drains_to_zero(self, net):
        got = []
        net.listen(
            Address("b", 9), echo, datagram_handler=lambda p, src: got.append(p)
        )
        overlapped(net, [(Address("b", 9), i, None) for i in range(3)])
        assert net.clock.pending() == 0
        for i in range(3):
            net.send("a", Address("b", 9), i)
        assert net.clock.pending() == 3 and got == []
        net.clock.advance(1.0)
        assert net.clock.pending() == 0 and sorted(got) == [0, 1, 2]

    def test_failed_futures_drain_via_deadline_guard(self, net):
        net.set_host_up("b", False)
        t0 = net.clock.now()
        (failure,) = overlapped(net, [(Address("b", 9), "x", 0.2)])
        assert isinstance(failure, HostUnreachableError)
        # The failure landed on its deadline and left no guard behind:
        # sweeping past it fires nothing.
        assert net.clock.now() == pytest.approx(t0 + 0.2)
        assert net.clock.pending() == 0
        before = net.stats.as_dict()
        net.clock.advance(0.25)
        assert net.stats.as_dict() == before


class TestPayloadSize:
    """_payload_size: bytes count themselves, text its UTF-8 length, and
    every structured payload exactly ``len(repr(payload))``.

    The charged size feeds every virtual transfer time; if it drifts for
    any payload shape, golden traces and replay signatures shift.
    """

    @staticmethod
    def expected(payload):
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, str):
            return len(payload.encode("utf-8"))
        return len(repr(payload))

    def random_payload(self, rng, depth=0):
        roll = rng.randrange(10 if depth < 4 else 6)
        if roll < 2:
            return rng.randrange(-(10 ** 6), 10 ** 6)
        if roll < 3:
            return rng.choice([None, True, False])
        if roll < 4:
            return rng.random() * rng.choice([1, 1e6, -1])
        if roll < 5:
            return "".join(
                rng.choice("abc XY'\"\\0\u00e9")
                for _ in range(rng.randrange(0, 8))
            )
        if roll < 6:
            return rng.randbytes(rng.randrange(0, 5))
        n = rng.randrange(0, 4)
        children = [self.random_payload(rng, depth + 1) for _ in range(n)]
        if roll < 8:
            return children
        if roll < 9:
            return tuple(children)
        return {f"k{i}": c for i, c in enumerate(children)}

    def test_structural_size_matches_repr_exactly(self):
        import random

        from repro.simnet.network import _payload_size

        rng = random.Random(4242)
        containers = 0
        for _ in range(500):
            payload = self.random_payload(rng)
            containers += isinstance(payload, (list, tuple, dict))
            assert _payload_size(payload) == self.expected(payload), repr(payload)
        assert containers > 100

    def test_hand_picked_shapes(self):
        from repro.simnet.network import _payload_size

        for payload in (
            [],
            (),
            {},
            [[]],
            (1,),
            (1, 2),
            {"a": [1, (2,)], "b": {"c": None}},
            [["h1", 0.5, None], ["h2", 1024, "x"]],
            [b"\x00\xff", "caf\u00e9", float("inf")],
        ):
            assert _payload_size(payload) == len(repr(payload))
        assert _payload_size(b"\x00\xff\x10") == 3
        assert _payload_size(bytearray(b"abcd")) == 4
        assert _payload_size("caf\u00e9 \u2603") == 9  # 2- and 3-byte code points
        assert _payload_size("") == 0

    def test_deep_nesting_falls_back_to_repr(self):
        from repro.simnet.network import _payload_size

        deep = [1]
        for _ in range(30):
            deep = [deep]
        assert _payload_size(deep) == len(repr(deep))

    def test_batched_rows_cheaper_than_dicts(self):
        from repro.simnet.network import _payload_size

        keys = ["url", "ok", "rows", "from_cache", "error"]
        dicts = [
            {"url": f"jdbc:snmp://h{i}/x", "ok": True, "rows": i,
             "from_cache": False, "error": None}
            for i in range(8)
        ]
        batched = {
            "status_keys": keys,
            "status_rows": [[d[k] for k in keys] for d in dicts],
        }
        assert _payload_size(batched) < _payload_size({"statuses": dicts})
