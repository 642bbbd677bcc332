"""Cross-feature tests: compositions of independently tested subsystems.

Each test exercises a pair of features that could plausibly interact
badly: remote routing x multi-group joins, alerts x multi-group SQL,
archiver x alert hysteresis, servlet x remote URLs, history x joins x
roll-ups.
"""

import pytest

from repro.core.alerts import AlertRule
from repro.core.request_manager import QueryMode
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site


@pytest.fixture
def fabric():
    clock = VirtualClock()
    network = Network(clock, seed=121)
    a = build_site(network, name="xa", n_hosts=2, agents=("snmp", "ganglia"), seed=1)
    b = build_site(network, name="xb", n_hosts=2, agents=("snmp", "ganglia"), seed=2)
    clock.advance(20.0)
    directory = GMADirectory(network)
    gla = GlobalLayer(a.gateway, directory)
    glb = GlobalLayer(b.gateway, directory)
    return network, a, b, gla, glb


class TestRemoteJoins:
    def test_multi_group_join_through_global_layer(self, fabric):
        """A join query on a remote site's URL: the remote gateway runs
        the join, the local gateway just forwards."""
        network, a, b, *_ = fabric
        url = b.url_for("ganglia")
        result = a.gateway.query(
            url,
            "SELECT HostName, CPUCount, RAMSizeMB FROM Processor, MainMemory "
            "ORDER BY HostName",
            mode=QueryMode.REALTIME,
        )
        assert len(result.rows) == 2
        for row in result.dicts():
            assert row["CPUCount"] is not None and row["RAMSizeMB"] is not None

    def test_join_mixing_local_and_remote_sources(self, fabric):
        """One join over sources from two sites: each group sub-query
        fans out, remote legs route via GMA, and the join still keys
        rows correctly by HostName."""
        network, a, b, *_ = fabric
        urls = [a.url_for("ganglia"), b.url_for("ganglia")]
        result = a.gateway.query(
            urls,
            "SELECT HostName, SiteName, LoadAverage1Min, RAMAvailableMB "
            "FROM Processor, MainMemory",
            mode=QueryMode.REALTIME,
        )
        sites = {r["SiteName"] for r in result.dicts()}
        assert sites == {"xa", "xb"}
        assert len(result.rows) == 4  # 2 hosts per site, joined 1:1


class TestAlertsOnJoins:
    def test_alert_rule_with_multi_group_predicate(self, fabric):
        """Threshold rules can span groups: memory pressure relative to
        load needs Processor AND MainMemory."""
        network, a, *_ = fabric
        got = []
        a.gateway.events.register_listener(
            lambda e: got.append(e) if e.name.startswith("alert.") else None
        )
        a.gateway.alerts.add_rule(
            AlertRule(
                name="mem-per-load",
                urls=[a.url_for("ganglia")],
                sql="SELECT HostName, RAMAvailableMB, LoadAverage1Min "
                    "FROM Processor, MainMemory "
                    "WHERE RAMAvailableMB >= 0 AND LoadAverage1Min >= 0",
                period=15.0,
                use_cache=False,
                rearm_after=0.0,
            )
        )
        network.clock.advance(16.0)
        assert len(got) == 2  # both hosts match the always-true predicate
        assert "RAMAvailableMB" in got[0].fields


class TestServletRemote:
    def test_servlet_query_routes_remote_urls(self, fabric):
        """A dashboard hitting gateway A's servlet can name a site-b URL."""
        from repro.web.servlet import GatewayServlet, http_get

        network, a, b, *_ = fabric
        servlet = GatewayServlet(a.gateway, port=8085)
        url = b.url_for("snmp").replace(":", "%3A").replace("/", "%2F")
        code, body = http_get(
            network,
            a.host_names()[0],
            servlet.address,
            f"/query?url={url}&sql=SELECT%20HostName,%20SiteName%20FROM%20Host",
        )
        assert code == 200
        assert "xb" in body


class TestHistoryJoinRollup:
    def test_rollup_over_history_fed_by_joined_polls(self, fabric):
        network, a, *_ = fabric
        gw = a.gateway
        for _ in range(6):
            gw.query(a.url_for("ganglia"), "SELECT * FROM Processor")
            network.clock.advance(10.0)
        # ``HistoryStore.rollup`` is gone; the window aggregate is a
        # HISTORY query.  6 polls x 2 hosts = 12 samples.
        [[n, low, avg, high]] = gw.query(
            a.url_for("ganglia"),
            "SELECT COUNT(*), MIN(LoadAverage1Min), AVG(LoadAverage1Min), "
            "MAX(LoadAverage1Min) FROM Processor",
            mode=QueryMode.HISTORY,
        ).rows
        assert n == 12
        assert low <= avg <= high


class TestNaturalJoinLaws:
    from hypothesis import given, strategies as st

    rel = st.lists(
        st.fixed_dictionaries(
            {"k": st.integers(0, 3), "v": st.integers(0, 9)}
        ),
        max_size=6,
    )

    @given(left=rel, right=rel)
    def test_join_size_bounds(self, left, right):
        """|A join B| <= |A| * |B| and every output row's key appears in
        both inputs."""
        from tests.reference_sql import natural_join

        right_renamed = [{"k": r["k"], "w": r["v"]} for r in right]
        columns, rows = natural_join(
            [(["k", "v"], left), (["k", "w"], right_renamed)]
        )
        assert len(rows) <= len(left) * len(right)
        left_keys = {r["k"] for r in left}
        right_keys = {r["k"] for r in right}
        for row in rows:
            assert row["k"] in left_keys and row["k"] in right_keys

    @given(left=rel)
    def test_join_with_self_keys(self, left):
        """Joining a keyed relation with its own key projection preserves
        the rows (key multiplicity permitting)."""
        from tests.reference_sql import natural_join

        keys = [{"k": r["k"]} for r in {r["k"]: r for r in left}.values()]
        columns, rows = natural_join([(["k", "v"], left), (["k"], keys)])
        assert sorted((r["k"], r["v"]) for r in rows) == sorted(
            (r["k"], r["v"]) for r in left
        )
