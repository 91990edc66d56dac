"""Unit tests for topology builders, path queries, and host dispatch."""

import math

import pytest

from repro.net import (
    Network,
    NodeError,
    Packet,
    Path,
    build_line,
    build_paper_topology,
    build_star,
    build_two_tier,
)
from repro.sim import Timeout


class TestBuilders:
    def test_paper_topology_shape(self, sim):
        net = build_paper_topology(sim)
        assert len(net.switches) == 4
        assert {h.name for h in net.hosts} == {"driver", "resp1", "resp2"}
        # Ring + chord = 5 switch-switch links + 3 host links.
        assert len(net.links) == 8

    def test_paper_topology_with_controller(self, sim):
        net = build_paper_topology(sim, with_controller_host=True)
        assert "controller" in {h.name for h in net.hosts}

    def test_star(self, sim):
        net = build_star(sim, 5)
        assert len(net.hosts) == 5
        assert len(net.switches) == 1
        assert all(net.path(f"h{i}", f"h{j}").hops == 2
                   for i in range(5) for j in range(5) if i != j)

    def test_line_diameter(self, sim):
        net = build_line(sim, 4)
        assert net.path("h0_0", "h3_0").hops == 5  # host+3 switch hops+host

    def test_two_tier_any_pair_within_four_hops(self, sim):
        net = build_two_tier(sim, n_leaves=3, hosts_per_leaf=2)
        hosts = [h.name for h in net.hosts]
        for a in hosts:
            for b in hosts:
                if a != b:
                    assert net.path(a, b).hops <= 4

    def test_builder_validation(self, sim):
        with pytest.raises(ValueError):
            build_star(sim, 0)
        with pytest.raises(ValueError):
            build_line(sim, 0)
        with pytest.raises(ValueError):
            build_two_tier(sim, 0, 1)


class TestNetworkQueries:
    def test_duplicate_names_rejected(self, sim):
        net = Network(sim)
        net.add_host("a")
        with pytest.raises(NodeError):
            net.add_host("a")

    def test_unknown_node(self, sim):
        net = Network(sim)
        with pytest.raises(NodeError):
            net.node("ghost")

    def test_host_switch_type_guards(self, sim):
        net = Network(sim)
        net.add_host("h")
        net.add_switch("s")
        with pytest.raises(NodeError):
            net.switch("h")
        with pytest.raises(NodeError):
            net.host("s")

    def test_hop_distance_identity(self, sim):
        net = build_star(sim, 2)
        assert net.path("h0", "h0") == Path(0, 0.0, math.inf)

    def test_hop_distance_no_path(self, sim):
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(NodeError):
            net.path("a", "b")

    def test_paper_topology_distances(self, sim):
        net = build_paper_topology(sim)
        assert net.path("driver", "resp1").hops == 3  # via the s1-s3 chord
        assert net.path("driver", "resp2").hops == 3

    def test_path_endpoints(self, sim):
        # Either endpoint may root the walk: three 5 us, 10 Gbps links.
        net = build_paper_topology(sim)
        assert net.path("driver", "resp1") == Path(3, 15.0, 10.0)
        assert net.path("resp1", "driver") == Path(3, 15.0, 10.0)

    def test_port_toward_reaches_target(self, sim):
        net = build_paper_topology(sim)
        # Following port_toward from any switch must converge on resp1.
        for switch in net.switches:
            port = net.port_toward(switch.name, "resp1")
            neighbor = switch.neighbor(port)
            assert (net.path(neighbor.name, "resp1").hops
                    < net.path(switch.name, "resp1").hops)

    def test_port_toward_self_rejected(self, sim):
        net = build_paper_topology(sim)
        with pytest.raises(NodeError):
            net.port_toward("s1", "s1")

    def test_path_latency_sums_the_links_of_the_path(self, sim):
        # The bandwidth is the slowest link's, wherever on the path it is.
        net = build_line(sim, 3, default_latency_us=5.0)
        net.add_host("far")
        net.connect("far", "s2", bandwidth_gbps=0.5, latency_us=200.0)
        assert net.path("h0_0", "far") == Path(4, 215.0, 0.5)
        assert net.path("far", "h0_0") == Path(4, 215.0, 0.5)
        assert net.path("h0_0", "h2_0") == Path(4, 20.0, 10.0)
        assert net.path("far", "far") == Path(0, 0.0, math.inf)


def _answers(net, a, b, switch):
    return net.path(a, b), net.port_toward(switch, b)


class TestPathTable:
    """Every path query reads one lazily filled table; a topology change
    must drop it, or the answers below go stale."""

    def test_one_walk_per_root_serves_every_query(self, sim):
        net = build_paper_topology(sim)
        walks = []
        bfs = net._bfs
        net._bfs = lambda root: walks.append(root) or bfs(root)
        for _ in range(3):
            _answers(net, "driver", "resp1", "s1")
            net.path("resp2", "resp1")
        assert walks == ["resp1"]

    def test_new_host_is_reachable_after_earlier_queries(self, sim):
        net = build_star(sim, 2)
        assert _answers(net, "h0", "h1", "s0") == (Path(2, 10.0, 10.0), 1)
        version = net.version
        net.add_host("h2")
        with pytest.raises(NodeError):
            net.path("h0", "h2")  # registered, not yet linked
        net.connect("h2", "s0", latency_us=7.0)
        assert net.version > version
        assert _answers(net, "h0", "h2", "s0") == (Path(2, 12.0, 10.0), 2)

    def test_shortcut_link_changes_every_answer(self, sim):
        net = build_line(sim, 4, default_latency_us=5.0)
        before = _answers(net, "h0_0", "h3_0", "s0")
        assert before == (Path(5, 25.0, 10.0), net.port_toward("s0", "s1"))
        net.connect("s0", "s3", latency_us=1.0)
        after = _answers(net, "h0_0", "h3_0", "s0")
        assert after == (Path(3, 11.0, 10.0), net.port_toward("s0", "s3"))
        assert after[1] != before[1]

    def test_a_latency_change_changes_every_answer(self, sim):
        """Assigning a link's latency moves the version and drops the
        table, and ``net.path`` is a new object for the new topology."""
        net = build_line(sim, 2, default_latency_us=5.0)
        path, version = net.path, net.version
        assert path("h0_0", "h1_0") == Path(3, 15.0, 10.0)
        assert net.path is path  # one object while the topology holds
        net.link_between("s0", "s1").latency_us = 40.0
        assert net.version > version
        assert net.path is not path
        assert net.path("h0_0", "h1_0") == Path(3, 50.0, 10.0)
        assert path("h1_0", "h0_0") == Path(3, 50.0, 10.0)

    def test_a_link_bandwidth_cannot_change(self, sim):
        """The wire rate and every path's bottleneck are computed from
        ``bandwidth_gbps`` once, so assigning it would change neither:
        it raises, naming ``latency_us`` as what a live link changes."""
        net = build_star(sim, 2)
        link = net.link_between("h0", "s0")
        path, version = net.path, net.version
        with pytest.raises(AttributeError, match="latency_us"):
            link.bandwidth_gbps = 1.0
        assert link.bandwidth_gbps == 10.0
        assert link._bytes_per_us == 1250.0
        assert (net.path, net.version) == (path, version)
        assert net.path("h0", "h1") == Path(2, 10.0, 10.0)

    def test_unreachable_pairs_still_raise(self, sim):
        net = build_star(sim, 2)
        net.add_switch("island")
        net.path("h0", "h1")  # fill the table first
        with pytest.raises(NodeError):
            net.path("h0", "island")
        with pytest.raises(NodeError):
            net.path("island", "h0")
        with pytest.raises(NodeError):
            net.port_toward("island", "h0")
        with pytest.raises(NodeError):
            net.path("h0", "nowhere")


class TestHostDispatch:
    def test_handler_dispatch_by_kind(self, sim):
        net = build_star(sim, 2)
        got_a, got_b = [], []
        net.host("h1").on("a", lambda p: got_a.append(p))
        net.host("h1").on("b", lambda p: got_b.append(p))

        def proc():
            net.host("h0").send(Packet(kind="a", src="h0", dst="h1"))
            net.host("h0").send(Packet(kind="b", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got_a) == 1 and len(got_b) == 1

    def test_duplicate_handler_rejected(self, sim):
        net = build_star(sim, 1)
        net.host("h0").on("k", lambda p: None)
        with pytest.raises(NodeError):
            net.host("h0").on("k", lambda p: None)

    def test_unhandled_packets_queued(self, sim):
        net = build_star(sim, 2)

        def proc():
            net.host("h0").send(Packet(kind="mystery", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        host = net.host("h1")
        assert len(host.unhandled) == 1
        assert host.tracer.counters["host.unhandled"] == 1

    def test_send_requires_attachment(self, sim):
        from repro.net.host import Host

        lonely = Host(sim, "lonely")
        with pytest.raises(NodeError):
            lonely.send(Packet(kind="x", src="lonely", dst="y"))

    def test_broadcast_loop_suppression_in_paper_topology(self, sim):
        net = build_paper_topology(sim)
        got = []
        net.host("resp1").on("who", lambda p: got.append(p))

        def proc():
            net.host("driver").broadcast("who")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got) == 1  # exactly one copy despite the loops

    def test_own_broadcast_not_delivered_back(self, sim):
        net = build_paper_topology(sim)
        got = []
        net.host("driver").on("who", lambda p: got.append(p))

        def proc():
            net.host("driver").broadcast("who")
            yield Timeout(1000)

        sim.run_process(proc())
        assert got == []
