"""The virtual-lane race detector: happens-before, disciplines, hooks."""

import pytest

from repro.analysis import races
from repro.analysis.races import Discipline, RaceDetector, unordered
from repro.simnet.clock import VirtualClock


@pytest.fixture
def clock():
    return VirtualClock()


class TestUnordered:
    def test_sibling_branches_are_unordered(self):
        assert unordered(((1, 0),), ((1, 1),))

    def test_same_lane_is_ordered(self):
        assert not unordered(((1, 0),), ((1, 0),))

    def test_prefix_is_enclosing_context(self):
        assert not unordered(((1, 0),), ((1, 0), (2, 1)))
        assert not unordered((), ((1, 0),))

    def test_different_scopes_are_ordered(self):
        # Scope 2 can only open after scope 1 joined (ids are global).
        assert not unordered(((1, 0),), ((2, 0),))

    def test_nested_siblings_are_unordered(self):
        assert unordered(((1, 0), (2, 0)), ((1, 0), (2, 1)))

    def test_outer_sibling_dominates_inner_frames(self):
        assert unordered(((1, 0), (2, 0)), ((1, 1), (3, 0)))


class TestLanePlumbing:
    def test_sequential_lane_is_empty(self, clock):
        assert clock.lane == ()

    def test_branch_pushes_one_frame(self, clock):
        with clock.concurrent() as scope:
            with scope.branch():
                assert clock.lane == ((scope.scope_id, 0),)
            with scope.branch():
                assert clock.lane == ((scope.scope_id, 1),)
        assert clock.lane == ()

    def test_nested_scopes_stack_frames(self, clock):
        with clock.concurrent() as outer:
            with outer.branch():
                with clock.concurrent() as inner:
                    with inner.branch():
                        assert clock.lane == (
                            (outer.scope_id, 0),
                            (inner.scope_id, 0),
                        )


class TestDetector:
    def detect(self, clock, discipline, accesses):
        """Run ``accesses`` [(kind, digest)] as sibling branches."""
        det = RaceDetector(clock)
        det.register("s", discipline)
        with clock.concurrent() as scope:
            for kind, digest in accesses:
                with scope.branch():
                    det.note("s", "k", kind, digest=digest)
        return det

    def test_exclusive_write_write_is_grm551(self, clock):
        det = self.detect(clock, Discipline.EXCLUSIVE, [("w", None), ("w", None)])
        assert [f.rule_id for f in det.findings] == ["GRM551"]
        assert det.findings[0].path == "state://s"
        assert det.findings[0].symbol == "k"

    def test_exclusive_read_write_is_grm552(self, clock):
        det = self.detect(clock, Discipline.EXCLUSIVE, [("r", None), ("w", None)])
        assert [f.rule_id for f in det.findings] == ["GRM552"]

    def test_read_read_never_flagged(self, clock):
        det = self.detect(clock, Discipline.EXCLUSIVE, [("r", None), ("r", None)])
        assert det.findings == []

    def test_commutative_writes_pass_but_read_flagged(self, clock):
        det = self.detect(clock, Discipline.COMMUTATIVE, [("w", None), ("w", None)])
        assert det.findings == []
        det = self.detect(clock, Discipline.COMMUTATIVE, [("w", None), ("r", None)])
        assert [f.rule_id for f in det.findings] == ["GRM552"]

    def test_value_discipline_compares_digests(self, clock):
        det = self.detect(clock, Discipline.VALUE, [("w", "aa"), ("w", "aa")])
        assert det.findings == []
        det = self.detect(clock, Discipline.VALUE, [("w", "aa"), ("w", "bb")])
        assert [f.rule_id for f in det.findings] == ["GRM551"]
        det = self.detect(clock, Discipline.VALUE, [("r", None), ("w", "aa")])
        assert det.findings == []

    def test_unregistered_state_defaults_exclusive(self, clock):
        det = RaceDetector(clock)
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("mystery", "k", "w")
            with scope.branch():
                det.note("mystery", "k", "w")
        assert [f.rule_id for f in det.findings] == ["GRM551"]

    def test_sequential_access_resets_the_cell(self, clock):
        det = RaceDetector(clock)
        det.register("s", Discipline.EXCLUSIVE)
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "k", "w")
        det.note("s", "k", "w")  # joined: happens-after the branch write
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "k", "w")
        assert det.findings == []

    def test_sequential_writes_never_race(self, clock):
        det = RaceDetector(clock)
        det.register("s", Discipline.EXCLUSIVE)
        det.note("s", "k", "w")
        det.note("s", "k", "w")
        assert det.findings == []

    def test_distinct_keys_do_not_interact(self, clock):
        det = RaceDetector(clock)
        det.register("s", Discipline.EXCLUSIVE)
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "a", "w")
            with scope.branch():
                det.note("s", "b", "w")
        assert det.findings == []

    def test_findings_deduped_per_state_key(self, clock):
        det = RaceDetector(clock)
        det.register("s", Discipline.EXCLUSIVE)
        for _ in range(3):
            with clock.concurrent() as scope:
                with scope.branch():
                    det.note("s", "k", "w")
                with scope.branch():
                    det.note("s", "k", "w")
        assert len(det.findings) == 1

    def test_message_names_lanes_and_sites(self, clock):
        det = RaceDetector(clock)
        det.register("s", Discipline.EXCLUSIVE)
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "k", "w", site="writer-a")
            with scope.branch():
                det.note("s", "k", "w", site="writer-b")
        (f,) = det.findings
        sid = scope.scope_id
        assert f"s{sid}b0" in f.message and f"s{sid}b1" in f.message
        assert "writer-a vs writer-b" in f.message

    def test_accesses_noted_counts_everything(self, clock):
        det = RaceDetector(clock)
        det.note("s", "k", "w")
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "k", "r")
        assert det.accesses_noted == 2

    def test_reset_window_keeps_findings(self, clock):
        det = self.detect(clock, Discipline.EXCLUSIVE, [("w", None), ("w", None)])
        det.reset_window()
        assert len(det.findings) == 1
        # Fresh window: the old branch accesses no longer pair up.
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("s", "k2", "w")
        assert len(det.findings) == 1

    def test_report_is_a_sorted_analysis_report(self, clock):
        det = RaceDetector(clock)
        with clock.concurrent() as scope:
            with scope.branch():
                det.note("zz", "k", "w")
                det.note("aa", "k", "w")
            with scope.branch():
                det.note("zz", "k", "w")
                det.note("aa", "k", "w")
        report = det.report()
        assert [f.path for f in report.findings] == ["state://aa", "state://zz"]


class TestAmbientHook:
    def test_note_without_active_detector_is_noop(self, clock):
        races.note("s", "k", "w")  # must not raise, nothing active

    def test_activate_installs_and_restores(self, clock):
        det = RaceDetector(clock)
        assert races.ACTIVE is None
        with races.activate(det) as active:
            assert active is det and races.ACTIVE is det
            races.note("s", "k", "w")
        assert races.ACTIVE is None
        assert det.accesses_noted == 1

    def test_activate_restores_on_error(self, clock):
        det = RaceDetector(clock)
        with pytest.raises(RuntimeError):
            with races.activate(det):
                raise RuntimeError("boom")
        assert races.ACTIVE is None


def _subscribed_hub():
    """A gateway's stream hub with one subscription, and a consumer
    host that controls it over the network."""
    from repro.gma.streams import StreamConsumer
    from repro.testbed import build_testbed

    network, (site,) = build_testbed(n_hosts=1, agents=("snmp",), seed=7)
    network.add_host("viewer", site="elsewhere")
    consumer = StreamConsumer(network, "viewer")
    hub = site.gateway.streams
    cq = consumer.register(hub.address, "SELECT HostName FROM Processor")
    return network.clock, consumer, hub, cq


class TestInjectionAcceptance:
    """A deliberately injected unordered-branch access to EXCLUSIVE state
    is caught by the detector through the real ambient hooks.  The
    injections used to target a breaker; since the health tracker settles
    branch outcomes at the outermost join it admits no unordered write,
    so they target a stream subscription's lifecycle, which two branches
    can still write."""

    def test_injected_unordered_gauge_writes_are_caught(self):
        """Two branches each write one subscription's lifecycle state
        (pause, renew) through the hub's control wire: GRM551."""
        clock, consumer, hub, cq = _subscribed_hub()
        det = RaceDetector.standard(clock)
        with races.activate(det):
            with clock.concurrent() as scope:
                with scope.branch():
                    assert consumer.pause(hub.address, cq)
                with scope.branch():
                    assert consumer.renew(hub.address, cq, 300.0)
        assert [f.rule_id for f in det.findings] == ["GRM551"]
        assert det.findings[0].path == "state://stream.subs"
        assert det.findings[0].symbol == str(cq)

    def test_injected_unordered_health_write_read_is_caught(self):
        """One branch writes the subscription (a pause over the wire),
        a sibling reads it through the ambient hook: GRM552."""
        clock, consumer, hub, cq = _subscribed_hub()
        det = RaceDetector.standard(clock)
        with races.activate(det):
            with clock.concurrent() as scope:
                with scope.branch():
                    assert consumer.pause(hub.address, cq)
                with scope.branch():
                    races.note("stream.subs", str(cq), "r", site="injected read")
        assert [f.rule_id for f in det.findings] == ["GRM552"]
        assert det.findings[0].symbol == str(cq)

    def test_pinned_admission_does_not_race(self, clock):
        """The production idiom without a pin: one branch records a
        failure, its sibling consults the breaker; the failure settles at
        the join, so neither access races and the sibling read the
        breaker as it stood when the scope opened."""
        from repro.core.health import HealthTracker
        from repro.core.policy import GatewayPolicy

        health = HealthTracker(clock, GatewayPolicy())
        det = RaceDetector.standard(clock)
        url = "jdbc:snmp://h1"
        with races.activate(det):
            with clock.concurrent() as scope:
                with scope.branch():
                    health.record_failure(url, "timeout")
                with scope.branch():
                    assert health.allow_request(url)
                    assert url not in health.scoreboard()
        assert det.findings == []
        # The held observation landed when the scope joined.
        assert health.scoreboard()[url]["total_failures"] == 1


class TestGatewayAnalyzeMerge:
    def test_attached_detector_findings_flow_into_analyze(self):
        from repro.testbed import build_testbed

        network, (site,) = build_testbed(n_hosts=1, agents=("snmp",), seed=7)
        gw = site.gateway
        det = RaceDetector.standard(network.clock)
        with races.activate(det):
            with network.clock.concurrent() as scope:
                with scope.branch():
                    det.note("health", "jdbc:snmp://x", "w")
                with scope.branch():
                    det.note("health", "jdbc:snmp://x", "w")
        gw.race_detector = det
        report = gw.analyze()
        assert "GRM551" in {f.rule_id for f in report.findings}
