"""Unit tests for the match-action pipeline model and the switch."""

import pytest

from repro.core import ObjectID
from repro.net import (
    MISS_PUNT,
    MatchActionTable,
    Packet,
    SramModel,
    TableFullError,
    TOFINO_SRAM,
    build_star,
)
from repro.sim import Timeout


class TestSramModel:
    def test_paper_capacity_64_bit(self):
        # §3.2: ~1.8M exact entries with 64-bit ID fields.
        assert TOFINO_SRAM.capacity(64) == pytest.approx(1_800_000, rel=0.02)

    def test_paper_capacity_128_bit(self):
        # §3.2: ~850K with 128-bit IDs.
        assert TOFINO_SRAM.capacity(128) == pytest.approx(850_000, rel=0.02)

    def test_ratio_roughly_two(self):
        ratio = TOFINO_SRAM.capacity(64) / TOFINO_SRAM.capacity(128)
        assert 1.8 < ratio < 2.4

    def test_words_per_entry(self):
        assert TOFINO_SRAM.words_per_entry(64) == 1
        assert TOFINO_SRAM.words_per_entry(128) == 2

    def test_wider_keys_never_increase_capacity(self):
        caps = [TOFINO_SRAM.capacity(bits) for bits in (16, 64, 128, 256)]
        assert caps == sorted(caps, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            SramModel(total_words=0)
        with pytest.raises(ValueError):
            TOFINO_SRAM.words_per_entry(0)


class TestMatchActionTable:
    def test_install_lookup(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=4)
        table.install("k", 7)
        assert table.lookup("k") == 7
        assert table.hits == 1

    def test_miss_counted(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=4)
        assert table.lookup("ghost") is None
        assert table.misses == 1

    def test_capacity_enforced(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=2)
        table.install("a", 1)
        table.install("b", 2)
        with pytest.raises(TableFullError):
            table.install("c", 3)
        assert table.insert_failures == 1

    def test_update_existing_never_fails(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=1)
        table.install("a", 1)
        table.install("a", 2)  # update in place
        assert table.lookup("a") == 2

    def test_try_install(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=1)
        assert table.try_install("a", 1)
        assert not table.try_install("b", 2)

    def test_remove(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=2)
        table.install("a", 1)
        assert table.remove("a")
        assert not table.remove("a")
        assert "a" not in table

    def test_occupancy(self):
        table = MatchActionTable("t", key_bits=64, capacity_override=4)
        table.install("a", 1)
        assert table.occupancy == 0.25

    def test_default_capacity_from_sram(self):
        table = MatchActionTable("t", key_bits=128)
        assert table.capacity == TOFINO_SRAM.capacity(128)


class TestSwitchForwarding:
    def test_learning_then_unicast(self, sim):
        net = build_star(sim, 3)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))

        def proc():
            # h1 talks first so s0 learns its port.
            net.host("h1").send(Packet(kind="m", src="h1", dst="h0"))
            yield Timeout(100)
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1
        switch = net.switch("s0")
        assert switch.tracer.counters["switch.tx"] >= 1

    def test_unknown_unicast_floods(self, sim):
        net = build_star(sim, 3)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1
        assert net.switch("s0").tracer.counters["switch.unknown_unicast"] == 1

    def test_flood_filtered_at_wrong_hosts(self, sim):
        net = build_star(sim, 3)
        wrong = []
        net.host("h2").on("m", lambda p: wrong.append(p))

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert wrong == []  # h2's NIC filter dropped the flooded copy
        assert net.host("h2").tracer.counters["host.filtered"] == 1

    def test_ttl_expiry_drops(self, sim):
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1", ttl=0))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == []
        assert net.switch("s0").tracer.counters["switch.ttl_expired"] == 1

    def test_identity_routing_hit(self, sim):
        net = build_star(sim, 3)
        oid = ObjectID(42)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))
        switch = net.switch("s0")
        # Teach the switch where h1 is, then install the identity route.
        def proc():
            net.host("h1").send(Packet(kind="m", src="h1", dst="h0"))
            yield Timeout(100)
            switch.install_identity_route(oid, net.port_toward("s0", "h1"))
            net.host("h0").send(Packet(kind="m", src="h0", dst=None, oid=oid))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1
        assert switch.tracer.counters["switch.tx_identity"] == 1

    def test_identity_miss_drop_behavior(self, sim):
        # A punting switch with no controller attached has nowhere to
        # send an identity miss: it drops the packet and counts it.
        from repro.net import Network

        net = Network(sim)
        net.add_switch("sw", miss_behavior=MISS_PUNT)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "sw")
        net.connect("b", "sw")
        got = []
        net.host("b").on("m", lambda p: got.append(p))

        def proc():
            net.host("a").send(Packet(kind="m", src="a", dst=None, oid=ObjectID(1)))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == []
        assert net.switch("sw").tracer.counters["switch.identity_drop"] == 1

    def test_identity_miss_punt_behavior(self, sim):
        from repro.net import Network

        net = Network(sim)
        switch = net.add_switch("sw", miss_behavior=MISS_PUNT)
        net.add_host("a")
        net.connect("a", "sw")
        punted = []
        switch.set_punt_handler(lambda packet, port: punted.append(packet))

        def proc():
            net.host("a").send(Packet(kind="m", src="a", dst=None, oid=ObjectID(1)))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(punted) == 1

    def test_multicast_identity_route(self, sim):
        net = build_star(sim, 4)
        oid = ObjectID(9)
        got = {name: [] for name in ("h1", "h2", "h3")}
        for name in got:
            net.host(name).on("m", lambda p, n=name: got[n].append(p))
        switch = net.switch("s0")
        ports = tuple(net.port_toward("s0", name) for name in ("h1", "h2"))
        switch.install_identity_route(oid, ports)

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst=None, oid=oid))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got["h1"]) == 1
        assert len(got["h2"]) == 1
        assert got["h3"] == []

    def test_route_removal(self, sim):
        net = build_star(sim, 2)
        switch = net.switch("s0")
        oid = ObjectID(3)
        switch.install_identity_route(oid, 0)
        assert switch.remove_identity_route(oid)
        assert not switch.remove_identity_route(oid)

    def test_table_full_counted(self, sim):
        from repro.net import Network

        net = Network(sim)
        switch = net.add_switch("sw", identity_capacity=1)
        net.add_host("a")
        net.connect("a", "sw")
        assert switch.install_identity_route(ObjectID(1), 0)
        assert not switch.install_identity_route(ObjectID(2), 0)
        assert switch.tracer.counters["switch.table_full"] == 1

    def test_invalid_port_rejected(self, sim):
        from repro.net import Network

        net = Network(sim)
        switch = net.add_switch("sw")
        net.add_host("a")
        net.connect("a", "sw")
        with pytest.raises(ValueError):
            switch.install_identity_route(ObjectID(1), 5)


class TestDedupeWindows:
    """Regressions for the flood-dedupe machinery: a switch must bin
    looped-back copies of its own service replies, and a known-unicast
    storm must never evict live flood UIDs from the window."""

    def test_service_reply_flood_registers_own_uid(self, sim):
        from repro.net import Network

        # A triangle with a slow direct edge: sw2 hears sw1's flood via
        # sw3 first, so its own flood points back at sw1 — the returning
        # copy of sw1's *own* service reply.
        net = Network(sim)
        for name in ("sw1", "sw2", "sw3"):
            net.add_switch(name)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "sw1", latency_us=1.0)
        net.connect("b", "sw2", latency_us=1.0)
        net.connect("sw1", "sw2", latency_us=50.0)  # the slow edge
        net.connect("sw1", "sw3", latency_us=1.0)
        net.connect("sw3", "sw2", latency_us=1.0)
        sw1 = net.switch("sw1")
        replies = []
        net.host("b").on("svc.reply", lambda p: replies.append(p))
        sw1.register_service("svc", lambda packet: sw1.send_from_service(
            Packet(kind="svc.reply", src="sw1", dst="b",
                   payload={"echo": packet.payload["n"]})))

        def proc():
            net.host("a").send(
                Packet(kind="svc", src="a", dst="sw1", payload={"n": 7}))
            yield Timeout(1_000)

        sim.run_process(proc())
        assert len(replies) == 1
        # ``b`` is unlearned, so the reply floods sw1's three ports —
        # exactly once.  The copy looping back via sw3 -> sw2 must be
        # binned; pre-fix sw1 re-flooded its own reply (flooded > 3).
        assert sw1.tracer.counters["switch.flooded"] == 3
        assert sw1.tracer.counters["switch.dup_suppressed"] >= 1

    def test_unicast_churn_cannot_evict_flood_uids(self, sim):
        from repro.net import BROADCAST, build_paper_topology

        net = build_paper_topology(sim)
        s1 = net.switch("s1")
        driver, resp1 = net.host("driver"), net.host("resp1")
        got = []
        resp1.on("bulk", lambda p: got.append(p))

        def proc():
            # Teach every switch both hosts' ports.
            resp1.send(Packet(kind="hello", src="resp1", dst="driver"))
            yield Timeout(1_000)
            driver.send(Packet(kind="hello", src="driver", dst="resp1"))
            yield Timeout(1_000)
            bcast = Packet(kind="announce", src="driver", dst=BROADCAST)
            driver.send(bcast)
            yield Timeout(1_000)
            # A known-unicast storm wider than the 4096-entry window.
            for _ in range(4200):
                driver.send(Packet(kind="bulk", src="driver", dst="resp1"))
            yield Timeout(100_000)
            return bcast

        bcast = sim.run_process(proc())
        assert len(got) == 4200
        # The storm filled its own (unicast) window; the broadcast's
        # uid must still be held by the flood window...
        assert bcast.uid in s1._seen_broadcasts
        # ...so a straggler copy looping back gets binned, not re-flooded.
        flooded = s1.tracer.counters["switch.flooded"]
        dups = s1.tracer.counters["switch.dup_suppressed"]

        def straggler():
            s1.receive(bcast.clone_for_flood(), in_port=0)
            yield Timeout(1_000)

        sim.run_process(straggler())
        assert s1.tracer.counters["switch.dup_suppressed"] == dups + 1
        assert s1.tracer.counters["switch.flooded"] == flooded
