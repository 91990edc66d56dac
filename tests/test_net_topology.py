"""Unit tests for topology builders, path queries, and host dispatch."""

import pytest

from repro.net import (
    Network,
    NodeError,
    Packet,
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
        assert all(net.hop_distance(f"h{i}", f"h{j}") == 2
                   for i in range(5) for j in range(5) if i != j)

    def test_line_diameter(self, sim):
        net = build_line(sim, 4, hosts_per_switch=1)
        assert net.hop_distance("h0_0", "h3_0") == 5  # host+3 switch hops+host

    def test_two_tier_any_pair_within_four_hops(self, sim):
        net = build_two_tier(sim, n_leaves=3, hosts_per_leaf=2)
        hosts = [h.name for h in net.hosts]
        for a in hosts:
            for b in hosts:
                if a != b:
                    assert net.hop_distance(a, b) <= 4

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
        assert net.hop_distance("h0", "h0") == 0

    def test_hop_distance_no_path(self, sim):
        net = Network(sim)
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(NodeError):
            net.hop_distance("a", "b")

    def test_paper_topology_distances(self, sim):
        net = build_paper_topology(sim)
        assert net.hop_distance("driver", "resp1") == 3  # via the s1-s3 chord
        assert net.hop_distance("driver", "resp2") == 3

    def test_path_endpoints(self, sim):
        net = build_paper_topology(sim)
        path = net.path("driver", "resp1")
        assert path[0] == "driver"
        assert path[-1] == "resp1"
        assert len(path) == net.hop_distance("driver", "resp1") + 1

    def test_port_toward_reaches_target(self, sim):
        net = build_paper_topology(sim)
        # Following port_toward from any switch must converge on resp1.
        for switch in net.switches:
            port = net.port_toward(switch.name, "resp1")
            neighbor = switch.neighbor(port)
            assert (net.hop_distance(neighbor.name, "resp1")
                    < net.hop_distance(switch.name, "resp1"))

    def test_port_toward_self_rejected(self, sim):
        net = build_paper_topology(sim)
        with pytest.raises(NodeError):
            net.port_toward("s1", "s1")

    def test_path_latency_sums_the_links_of_the_path(self, sim):
        net = build_line(sim, 3, default_latency_us=5.0)
        net.add_host("far")
        net.connect("far", "s2", latency_us=200.0)
        assert net.path("h0_0", "far") == ["h0_0", "s0", "s1", "s2", "far"]
        assert net.path_latency_us("h0_0", "far") == 5.0 + 5.0 + 5.0 + 200.0
        assert net.path_latency_us("far", "far") == 0.0


def _answers(net, a, b, switch):
    return (net.hop_distance(a, b), net.path(a, b), net.path_latency_us(a, b),
            net.port_toward(switch, b))


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
            net.hop_distance("resp2", "resp1")
        assert walks == ["resp1"]

    def test_new_host_is_reachable_after_earlier_queries(self, sim):
        net = build_star(sim, 2)
        assert _answers(net, "h0", "h1", "s0") == (2, ["h0", "s0", "h1"], 10.0, 1)
        version = net.version
        net.add_host("h2")
        with pytest.raises(NodeError):
            net.hop_distance("h0", "h2")  # registered, not yet linked
        net.connect("h2", "s0", latency_us=7.0)
        assert net.version > version
        assert _answers(net, "h0", "h2", "s0") == (2, ["h0", "s0", "h2"], 12.0, 2)

    def test_shortcut_link_changes_every_answer(self, sim):
        net = build_line(sim, 4, default_latency_us=5.0)
        before = _answers(net, "h0_0", "h3_0", "s0")
        assert before == (
            5, ["h0_0", "s0", "s1", "s2", "s3", "h3_0"], 25.0,
            net.port_toward("s0", "s1"))
        net.connect("s0", "s3", latency_us=1.0)
        after = _answers(net, "h0_0", "h3_0", "s0")
        assert after == (3, ["h0_0", "s0", "s3", "h3_0"], 11.0,
                         net.port_toward("s0", "s3"))
        assert after[3] != before[3]

    def test_unreachable_pairs_still_raise(self, sim):
        net = build_star(sim, 2)
        net.add_switch("island")
        net.hop_distance("h0", "h1")  # fill the table first
        for query in (net.hop_distance, net.path, net.path_latency_us):
            with pytest.raises(NodeError):
                query("h0", "island")
            with pytest.raises(NodeError):
                query("island", "h0")
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
