"""Unit tests for packets and links."""

import random

import pytest

from repro.core import ObjectID
from repro.faults import FaultInjector, FaultPlan
from repro.net import (
    BROADCAST,
    HEADER_BYTES,
    OID_FIELD_BYTES,
    Link,
    Packet,
)
from repro.net.host import Host
from repro.net.topology import Network, build_star
from repro.sim import Timeout


class TestPacket:
    def test_needs_some_destination(self):
        with pytest.raises(ValueError):
            Packet(kind="x", src="a")

    def test_host_addressed(self):
        packet = Packet(kind="x", src="a", dst="b")
        assert not packet.is_broadcast
        assert not packet.is_identity_routed

    def test_broadcast(self):
        packet = Packet(kind="x", src="a", dst=BROADCAST)
        assert packet.is_broadcast

    def test_identity_routed(self):
        packet = Packet(kind="x", src="a", oid=ObjectID(5))
        assert packet.is_identity_routed

    def test_size_includes_header(self):
        packet = Packet(kind="x", src="a", dst="b", payload_bytes=100)
        assert packet.size_bytes == HEADER_BYTES + 100

    def test_size_includes_oid_field(self):
        plain = Packet(kind="x", src="a", dst="b", payload_bytes=10)
        with_oid = Packet(kind="x", src="a", dst="b", oid=ObjectID(1), payload_bytes=10)
        assert with_oid.size_bytes == plain.size_bytes + OID_FIELD_BYTES

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(kind="x", src="a", dst="b", payload_bytes=-1)

    def test_unique_uids(self):
        a = Packet(kind="x", src="a", dst="b")
        b = Packet(kind="x", src="a", dst="b")
        assert a.uid != b.uid

    def test_clone_for_flood_shares_uid_not_counters(self):
        packet = Packet(kind="x", src="a", dst=BROADCAST, ttl=5)
        packet.hops = 2
        twin = packet.clone_for_flood()
        assert twin.uid == packet.uid
        assert twin.hops == 2
        twin.hops += 1
        twin.ttl -= 1
        assert packet.hops == 2
        assert packet.ttl == 5

    def test_reply_targets_source(self):
        request = Packet(kind="req", src="client", dst="server")
        reply = request.reply("rsp", {"v": 1}, payload_bytes=8)
        assert reply.dst == "client"
        assert reply.src == "server"
        assert reply.kind == "rsp"


class TestLink:
    def _two_hosts(self, sim, **link_kwargs):
        a = Host(sim, "a")
        b = Host(sim, "b")
        link = Link(sim, a, b, **link_kwargs)
        return a, b, link

    def test_delivery_after_latency_and_transmission(self, sim):
        a, b, link = self._two_hosts(sim, bandwidth_gbps=8e-3, latency_us=10.0)
        # 8 Mbit/s = 1 byte/us; a packet of HEADER+58=100 bytes takes
        # 100us transmission + 10us propagation.
        arrivals = []
        b.on("ping", lambda p: arrivals.append(sim.now))

        def proc():
            a.send(Packet(kind="ping", src="a", dst="b", payload_bytes=58))
            yield Timeout(1000)

        sim.run_process(proc())
        assert arrivals == [pytest.approx(110.0)]

    def test_fifo_queueing_serializes_transmissions(self, sim):
        a, b, link = self._two_hosts(sim, bandwidth_gbps=8e-3, latency_us=0.0)
        arrivals = []
        b.on("ping", lambda p: arrivals.append(sim.now))

        def proc():
            for _ in range(3):
                a.send(Packet(kind="ping", src="a", dst="b", payload_bytes=58))
            yield Timeout(10_000)

        sim.run_process(proc())
        assert arrivals == [pytest.approx(100.0), pytest.approx(200.0),
                            pytest.approx(300.0)]

    def test_duplex_is_independent(self, sim):
        a, b, link = self._two_hosts(sim, latency_us=5.0)
        got_a, got_b = [], []
        a.on("x", lambda p: got_a.append(p))
        b.on("x", lambda p: got_b.append(p))

        def proc():
            a.send(Packet(kind="x", src="a", dst="b"))
            b.send(Packet(kind="x", src="b", dst="a"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got_a) == 1 and len(got_b) == 1

    def test_loss_drops_deterministically(self, sim):
        a, b, link = self._two_hosts(sim, loss_rate=0.5)
        arrivals = []
        b.on("ping", lambda p: arrivals.append(p))

        def proc():
            for _ in range(100):
                a.send(Packet(kind="ping", src="a", dst="b"))
            yield Timeout(100_000)

        sim.run_process(proc())
        assert 20 < len(arrivals) < 80  # seeded, roughly half

    def test_hops_incremented_on_delivery(self, sim):
        a, b, link = self._two_hosts(sim)
        got = []
        b.on("x", lambda p: got.append(p.hops))

        def proc():
            a.send(Packet(kind="x", src="a", dst="b"))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == [1]

    def test_parameter_validation(self, sim):
        a = Host(sim, "a")
        b = Host(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, bandwidth_gbps=0)
        with pytest.raises(ValueError):
            Link(sim, a, b, latency_us=-1)
        with pytest.raises(ValueError):
            Link(sim, a, b, loss_rate=1.0)

    def test_other_endpoint(self, sim):
        a, b, link = self._two_hosts(sim)
        assert link.other(a) is b
        assert link.other(b) is a
        stranger = Host(sim, "c")
        with pytest.raises(ValueError):
            link.other(stranger)


class TestSampledAtLastBit:
    """Loss and ``failed`` are sampled when a packet's last bit leaves
    the wire, not when it is enqueued and not when it arrives: 1500 B on
    a 0.05 Gbps link spend 240 us serialising, then 5 us propagating."""

    LAST_BIT = 240.0

    def _slow_link(self, sim, latency_us=5.0):
        net = Network(sim, default_bandwidth_gbps=0.05,
                      default_latency_us=latency_us)
        a, b = net.add_host("a"), net.add_host("b")
        link = net.connect("a", "b")
        arrivals = []
        b.on("x", lambda p: arrivals.append((sim.now, p.payload["i"])))
        return net, a, link, arrivals

    def _send(self, a, count=1):
        for i in range(count):
            a.send(Packet(kind="x", src="a", dst="b", payload={"i": i},
                          payload_bytes=1500 - HEADER_BYTES))

    def test_failed_at_last_bit_drops_with_the_last_bit_stamp(self, sim):
        net, a, link, arrivals = self._slow_link(sim)
        # Stamp each counted event with the instant it was counted.
        stamps, count = [], net.tracer.event
        net.tracer.event = lambda category: (stamps.append((sim.now, category)),
                                             count(category))
        self._send(a)
        sim.schedule(100.0, link.fail)
        sim.run()
        assert arrivals == []
        assert net.tracer.counters.get("link.dropped") == 1
        assert stamps == [(self.LAST_BIT, "drop")]
        assert link.end_ab.packets_carried == 1  # it did occupy the wire

    def test_outage_over_before_last_bit_is_not_seen(self, sim):
        net, a, link, arrivals = self._slow_link(sim)
        self._send(a)
        sim.schedule(100.0, link.fail)
        sim.schedule(150.0, link.recover)
        sim.run()
        assert arrivals == [(self.LAST_BIT + 5.0, 0)]
        assert net.tracer.counters.get("link.dropped") == 0

    def test_fail_during_propagation_is_not_seen(self, sim):
        net, a, link, arrivals = self._slow_link(sim)
        self._send(a)
        sim.schedule(self.LAST_BIT + 2.0, link.fail)
        sim.run()
        assert arrivals == [(self.LAST_BIT + 5.0, 0)]

    def test_loss_burst_starting_mid_packet_draws_in_last_bit_order(self, sim):
        net, a, link, arrivals = self._slow_link(sim)
        burst_from, burst_until, loss = 300.0, 1800.0, 0.5
        FaultInjector(net, FaultPlan().loss_burst(
            "a", "b", at=burst_from, duration_us=burst_until - burst_from,
            loss=loss)).arm()
        self._send(a, count=12)  # last bits at 240, 480, ..., 2880
        sim.run()
        replay = random.Random(sim.seed)
        survivors = [i for i in range(12)
                     if not (burst_from <= self.LAST_BIT * (i + 1) < burst_until
                             and replay.random() < loss)]
        assert 6 < len(survivors) < 12  # the burst took some, not all
        assert [i for _, i in arrivals] == survivors
        assert net.tracer.counters.get("link.dropped") == 12 - len(survivors)

    def test_bursts_on_two_links_draw_in_transmit_order_at_one_instant(self, sim):
        """h2 transmits before h1 at every instant, so at each shared
        last-bit instant h2's draw comes first, whichever burst began first."""
        net = build_star(sim, 3, default_bandwidth_gbps=0.05)
        plan = FaultPlan()
        plan.loss_burst("h1", "s0", at=1300.0, duration_us=10_000.0, loss=0.5)
        plan.loss_burst("h2", "s0", at=1350.0, duration_us=10_000.0, loss=0.5)
        FaultInjector(net, plan).arm()
        arrived = []
        net.host("h0").on("x", lambda p: arrived.append((p.src, p.payload["i"])))
        for name in ("h1", "h2"):
            net.host(name).on("warm", lambda p: None)
        net.host("h0").broadcast("warm")  # the switch learns h0: no flooding
        sim.run(until=1000.0)
        for i in range(6):  # last bits at 1240, 1480, ..., 2440 on both uplinks
            for sender in ("h2", "h1"):
                net.host(sender).send(Packet(
                    kind="x", src=sender, dst="h0", payload={"i": i},
                    payload_bytes=1500 - HEADER_BYTES))
        sim.run()
        replay = random.Random(sim.seed)
        survivors = [(sender, i) for i in range(6) for sender in ("h2", "h1")
                     if i == 0 or replay.random() >= 0.5]
        assert 2 < len(survivors) < 12
        assert sorted(arrived) == sorted(survivors)

    def test_accounts_between_last_bit_and_arrival(self, sim):
        net, a, link, arrivals = self._slow_link(sim, latency_us=1000.0)
        end = link.end_ab
        self._send(a, count=2)
        seen = []
        for until in (100.0, 300.0, 500.0):
            sim.run(until=until)
            seen.append((end.bytes_carried, end.packets_carried,
                         end.queue_depth, link.bytes_carried))
        assert seen == [(0, 0, 1, 0), (1500, 1, 0, 1500), (3000, 2, 0, 3000)]
        assert arrivals == []
        sim.run()
        assert [t for t, _ in arrivals] == [1240.0, 1480.0]
        assert (end.bytes_carried, end.packets_carried, end.queue_depth) == (3000, 2, 0)


class TestHostStamping:
    """Host.send must stamp src/created_at only when genuinely unset.

    Regression: truthiness checks restamped a packet legitimately
    created at sim time 0.0 (and replaced an empty-string src) when it
    was sent later, corrupting end-to-end latency attribution at t=0.
    """

    def _pair(self, sim):
        a = Host(sim, "a")
        b = Host(sim, "b")
        Link(sim, a, b, latency_us=1.0)
        return a, b

    def test_prestamped_t0_packet_keeps_its_timestamp(self, sim):
        a, b = self._pair(sim)
        got = []
        b.on("m", got.append)
        packet = Packet(kind="m", src="a", dst="b", created_at=0.0)

        def proc():
            yield Timeout(500.0)
            a.send(packet)
            yield Timeout(500.0)

        sim.run_process(proc())
        assert got, "packet never delivered"
        assert got[0].created_at == 0.0

    def test_unstamped_packet_is_stamped_at_send_time(self, sim):
        a, b = self._pair(sim)
        got = []
        b.on("m", got.append)

        def proc():
            yield Timeout(500.0)
            a.send(Packet(kind="m", src="a", dst="b"))
            yield Timeout(500.0)

        sim.run_process(proc())
        assert got[0].created_at == pytest.approx(500.0)

    def test_empty_string_src_is_preserved(self, sim):
        a, b = self._pair(sim)
        got = []
        b.set_default_handler(got.append)

        def proc():
            a.send(Packet(kind="m", src="", dst="b"))
            yield Timeout(100.0)

        sim.run_process(proc())
        assert got[0].src == ""

    def test_unset_src_is_stamped_with_host_name(self, sim):
        a, b = self._pair(sim)
        got = []
        b.on("m", got.append)

        def proc():
            a.send(Packet(kind="m", src=None, dst="b"))
            yield Timeout(100.0)

        sim.run_process(proc())
        assert got[0].src == "a"
