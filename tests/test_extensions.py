"""Tests for later-wave mechanisms: coherence upgrades, promiscuous
hosts, switch services plumbing, latency-weighted paths, and fetch
estimates."""

import pytest

from repro.core import CostModel, IDAllocator
from repro.memproto import CoherenceAgent, PERM_MODIFIED, PERM_SHARED
from repro.net import Network, Packet, build_star
from repro.sim import Simulator, Timeout

from .paths import uniform


class TestCoherenceUpgrade:
    def _cluster(self, seed=81):
        sim = Simulator(seed=seed)
        net = build_star(sim, 3)
        home_map = {}
        agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
                  for i in range(3)}
        oid = IDAllocator(seed=seed).allocate()
        agents["h0"].host_object(oid, b"base-data-here--")
        return sim, agents, oid

    def test_shared_copy_upgrades_without_data(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].read(oid, 0, 4)
            assert agents["h1"].cached_perm(oid) == PERM_SHARED
            yield from agents["h1"].write(oid, 0, b"UP")
            return agents["h1"].cached_perm(oid)

        assert sim.run_process(proc()) == PERM_MODIFIED
        assert agents["h1"].tracer.counters["coherence.upgrade"] == 1
        assert agents["h0"].tracer.counters["coherence.upgrade_ack"] == 1

    def test_upgrade_preserves_local_data(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].read(oid, 0, 16)
            yield from agents["h1"].write(oid, 0, b"XY")
            data = yield from agents["h1"].read(oid, 0, 16)
            return data

        assert sim.run_process(proc()) == b"XYse-data-here--"

    def test_upgrade_invalidates_other_sharers(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].read(oid, 0, 4)
            yield from agents["h2"].read(oid, 0, 4)
            yield from agents["h1"].write(oid, 0, b"ZZ")
            assert agents["h2"].cached_perm(oid) is None
            data = yield from agents["h2"].read(oid, 0, 2)
            return data

        assert sim.run_process(proc()) == b"ZZ"

    def test_upgraded_writer_dirty_data_recalled(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].read(oid, 0, 4)
            yield from agents["h1"].write(oid, 0, b"DIRTY")
            data = yield from agents["h0"].read(oid, 0, 5)
            return data

        assert sim.run_process(proc()) == b"DIRTY"


class TestHostExtensions:
    def test_promiscuous_host_sees_foreign_unicast(self, sim):
        net = build_star(sim, 3)
        seen = []
        spy = net.host("h2")
        spy.promiscuous = True
        spy.on("m", lambda p: seen.append(p.dst))

        def proc():
            # Unknown unicast floods; the promiscuous host keeps the copy.
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert seen == ["h1"]
        assert spy.tracer.counters["host.promiscuous_rx"] == 1

    def test_default_handler_catches_unknown_kinds(self, sim):
        net = build_star(sim, 2)
        caught = []
        net.host("h1").set_default_handler(lambda p: caught.append(p.kind))

        def proc():
            net.host("h0").send(Packet(kind="weird.kind", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert caught == ["weird.kind"]
        assert len(net.host("h1").unhandled) == 0

    def test_specific_handler_wins_over_default(self, sim):
        net = build_star(sim, 2)
        specific, default = [], []
        host = net.host("h1")
        host.on("known", lambda p: specific.append(p))
        host.set_default_handler(lambda p: default.append(p))

        def proc():
            net.host("h0").send(Packet(kind="known", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(specific) == 1
        assert default == []


class TestSwitchServices:
    def test_unknown_service_kind_counted(self, sim):
        net = build_star(sim, 1)

        def proc():
            net.host("h0").send(Packet(kind="no.such.service", src="h0",
                                       dst="s0"))
            yield Timeout(100)

        sim.run_process(proc())
        assert net.switch("s0").tracer.counters["switch.service_unknown"] == 1

    def test_service_reply_floods_for_unknown_destination(self, sim):
        net = build_star(sim, 2)
        switch = net.switch("s0")
        got = []
        net.host("h1").on("pong", lambda p: got.append(p))

        def handler(packet):
            switch.send_from_service(Packet(
                kind="pong", src=switch.name, dst="h1"))

        switch.register_service("ping", handler)

        def proc():
            # h1 has never transmitted: the reply must flood to reach it.
            net.host("h0").send(Packet(kind="ping", src="h0", dst="s0"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1


class TestPathLatency:
    def test_sums_link_latencies(self, sim):
        net = Network(sim)
        net.add_switch("sw")
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "sw", latency_us=100.0)
        net.connect("b", "sw", latency_us=7.0)
        # Both links, and the switch's 0.5 us pipeline between them.
        assert net.path("a", "b").latency_us == pytest.approx(107.5)

    def test_zero_for_self(self, sim):
        net = build_star(sim, 1)
        assert net.path("h0", "h0").latency_us == 0.0


class TestFetchTransfer:
    def test_includes_request_leg(self):
        # Three 2 us, 100 Gbps links: every link serialises the megabyte
        # again (80 us each), and the pull first sends an empty request.
        model = CostModel()
        path = uniform(3)
        push = model.object_transfer(1_000_000, path)
        pull = model.fetch_transfer(1_000_000, path)
        assert push.transfer_us == pytest.approx(6.0 + 240.0)
        assert pull.transfer_us == pytest.approx(6.0 + 6.0 + 240.0)
        assert pull.total_us == pytest.approx(push.total_us + path.latency_us)

    def test_same_bytes_moved(self):
        model = CostModel()
        assert model.fetch_transfer(5000, uniform(1)).bytes_moved == 5000


class TestCoherenceDowngrade:
    def _cluster(self, seed=85):
        sim = Simulator(seed=seed)
        net = build_star(sim, 3)
        home_map = {}
        agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
                  for i in range(3)}
        oid = IDAllocator(seed=seed).allocate()
        agents["h0"].host_object(oid, b"shared-state----")
        return sim, agents, oid

    def test_reader_downgrades_owner_instead_of_invalidating(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].write(oid, 0, b"MOD")
            assert agents["h1"].cached_perm(oid) == PERM_MODIFIED
            data = yield from agents["h2"].read(oid, 0, 3)
            # The ex-owner kept a Shared copy (M -> S, not M -> I).
            assert agents["h1"].cached_perm(oid) == PERM_SHARED
            return data

        assert sim.run_process(proc()) == b"MOD"
        assert agents["h1"].tracer.counters["coherence.downgraded"] == 1

    def test_downgraded_owner_reads_locally(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].write(oid, 0, b"XYZ")
            yield from agents["h2"].read(oid, 0, 3)
            hits_before = agents["h1"].tracer.counters["coherence.cache_hit"]
            data = yield from agents["h1"].read(oid, 0, 3)
            hits_after = agents["h1"].tracer.counters["coherence.cache_hit"]
            return data, hits_after - hits_before

        data, new_hits = sim.run_process(proc())
        assert data == b"XYZ"
        assert new_hits == 1  # served from the retained Shared copy

    def test_writer_still_invalidates_everyone(self):
        sim, agents, oid = self._cluster()

        def proc():
            yield from agents["h1"].write(oid, 0, b"AA")
            yield from agents["h2"].read(oid, 0, 2)   # h1 downgrades to S
            yield from agents["h2"].write(oid, 0, b"BB")  # upgrade: invalidates h1
            assert agents["h1"].cached_perm(oid) is None
            data = yield from agents["h1"].read(oid, 0, 2)
            return data

        assert sim.run_process(proc()) == b"BB"
