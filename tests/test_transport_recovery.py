"""Contract of the transports' loss recovery (``memproto/transport.py``).

One rule: an ack that newly acknowledges a frame proves that every
frame transmitted before it and still unacknowledged was lost, because
the fabric is FIFO.  The per-frame RTO is left the frame with nothing
sent after it.

Losses are scripted, not drawn: ``Link._drop``, the one place a packet
is dropped, is replaced by a function of the frame's seq and of which
transmission of it this is, so no case depends on an RNG stream.  Only
the loss-free soak draws anything (sizes, bursts and gaps); its seed
shifts with ``REPRO_SEED_OFFSET`` like the rest of the fault-seed matrix.
"""

import os
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.memproto import LightweightTransport, TcpLikeTransport
from repro.net import Packet, build_star
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))
RTO_US = 200.0
FRAME_BYTES = 1400  # one message fills a frame: frame seq == message index
DATA, ACK = "data", "ack"


def _seed(n: int) -> int:
    return n + SEED_OFFSET


class DropScript:
    """Stands in for ``Link._drop`` on every link of ``net``.

    A transport packet is judged once, on its first hop:
    ``lose(src, cls, seq, nth, packet)`` with ``cls`` DATA or ACK,
    ``seq`` the frame's seq (an ack's cumulative seq) and ``nth`` which
    transmission of that ``(src, cls, seq)`` this is, from 1.  ``sent``
    keeps ``(start, src, cls, seq, nth, dropped)`` per packet, ``start``
    being when its first bit went onto the wire: the instant the
    transport transmitted it whenever the uplink was idle."""

    def __init__(self, net, lose):
        self.sim = net.sim
        self.lose = lose
        self.seen = Counter()
        self.sent = []
        for link in net.links:
            link._drop = partial(self._judge, link)

    def _judge(self, link, packet) -> bool:
        if packet.hops or not packet.kind.endswith((".data", ".ack")):
            return False
        cls = DATA if packet.kind.endswith(".data") else ACK
        seq = packet.payload["seq" if cls == DATA else "cum"]
        key = (packet.src, cls, seq)
        self.seen[key] += 1
        dropped = bool(self.lose(packet.src, cls, seq, self.seen[key], packet))
        start = self.sim.now - link.transmission_time_us(packet.size_bytes)
        self.sent.append((start, packet.src, cls, seq, self.seen[key], dropped))
        return dropped

    def starts(self, src, seq, cls=DATA):
        """When each transmission of ``src``'s frame (ack) ``seq`` began."""
        return [start for start, *key, _, _ in self.sent
                if key == [src, cls, seq]]


def _scripted_star(seed, lose):
    """Two hosts on a star whose links drop what ``lose`` says, and
    nothing else: the links are lossy only so that ``_drop`` is asked."""
    sim = Simulator(seed=seed)
    net = build_star(sim, 2, default_loss_rate=0.5)
    return sim, net, DropScript(net, lose)


def _scripted_pair(seed, lose, transport_cls=LightweightTransport, **kwargs):
    """A sender on h0 and a receiver on h1 of a scripted star, and the
    ``(message, arrival instant)`` pairs the receiver delivered."""
    sim, net, script = _scripted_star(seed, lose)
    tx = transport_cls(net.host("h0"), rto_us=RTO_US, **kwargs)
    rx = transport_cls(net.host("h1"), rto_us=RTO_US, **kwargs)
    got = []
    rx.on_deliver(lambda src, payload, size: got.append((payload["i"], sim.now)))
    return sim, tx, rx, script, got


def _both_ways(net, **kwargs):
    """A lightweight transport on h0 and on h1, and what each delivered."""
    ends = {name: LightweightTransport(net.host(name), **kwargs)
            for name in ("h0", "h1")}
    got = {name: [] for name in ends}
    for name, end in ends.items():
        end.on_deliver(lambda src, payload, size, log=got[name]:
                       log.append(payload["i"]))
    return ends, got


def _first_copies(*seqs):
    """Lose the first transmission of each of h0's data frames ``seqs``."""
    return lambda src, cls, seq, nth, packet: (
        (src, cls) == ("h0", DATA) and seq in seqs and nth == 1)


def _quiet(sim, *transports):
    """Nothing inflight, backlogged, coalescing or left in the heap."""
    for transport in transports:
        for peer in ("h0", "h1"):
            assert transport.inflight_count(peer) == 0
            assert transport.backlog_count(peer) == 0
            assert transport.coalescing_count(peer) == 0
    assert sim.pending_event_count == 0


class TestTransmissionOrderRule:
    def test_a_mid_stream_loss_is_repaired_on_the_first_sack_past_it(self):
        sim, tx, rx, script, got = _scripted_pair(_seed(1), _first_copies(4))

        def proc():
            for i in range(10):  # one burst: every frame transmitted at t=0
                tx.send("h1", {"i": i}, FRAME_BYTES)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert [i for i, _ in got] == list(range(10))
        counters = tx.tracer.counters
        assert counters["transport.retransmit"] == 1
        assert counters["transport.fast_retransmit"] == 1
        # Frames 2 and 3 earned the first ack with cum 3.  Frame 5 is the
        # first to arrive past the hole and earns the second, the first
        # to carry a SACK; frame 6 earns the third.  The repair leaves
        # when the second arrives, which is before the third can have:
        # two link latencies of 5 us are the least an ack spends.
        first, again = script.starts("h0", 4)
        _, first_sack, second_sack, *_ = script.starts("h1", 3, ACK)
        assert first_sack + 10.0 < again < second_sack + 10.0
        # The whole stream is done before frame 4's RTO would have fired.
        assert got[-1][1] < first + RTO_US
        _quiet(sim, tx, rx)

    def test_three_holes_one_ack_names_are_repaired_on_that_ack(self):
        # Frames 2, 4 and 6 are lost, and so are the acks that frames 3
        # and 5 provoke: the ack frame 7 provokes (cum 1, SACK 3 5 7) is
        # the first the sender sees, and it proves all three losses.
        def lose(src, cls, seq, nth, packet):
            if (src, cls) == ("h0", DATA):
                return seq in (2, 4, 6) and nth == 1
            return (src, cls, seq) == ("h1", ACK, 1) and nth in (2, 3)

        sim, tx, rx, script, got = _scripted_pair(_seed(2), lose)

        def proc():
            for i in range(12):
                tx.send("h1", {"i": i}, FRAME_BYTES)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert [i for i, _ in got] == list(range(12))
        counters = tx.tracer.counters
        assert counters["transport.retransmit"] == 3
        assert counters["transport.fast_retransmit"] == 3
        repairs = [script.starts("h0", seq)[1] for seq in (2, 4, 6)]
        # One ack, so one instant: the copies leave back to back in seq
        # order, a frame's serialisation apart, not a round trip apart.
        assert repairs == sorted(repairs)
        assert repairs[2] - repairs[0] < 3.0
        assert got[-1][1] < RTO_US
        _quiet(sim, tx, rx)

    def test_a_lost_retransmission_is_repaired_without_an_rto(self):
        def lose(src, cls, seq, nth, packet):
            return (src, cls, seq) == ("h0", DATA, 3) and nth <= 2

        sim, tx, rx, script, got = _scripted_pair(_seed(3), lose)

        def proc():
            for i in range(40):  # a paced stream: frames keep following
                tx.send("h1", {"i": i}, FRAME_BYTES)
                yield Timeout(3.0)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert [i for i, _ in got] == list(range(40))
        counters = tx.tracer.counters
        assert counters["transport.retransmit"] == 2
        assert counters["transport.fast_retransmit"] == 2
        first, second, third = script.starts("h0", 3)
        assert third < first + RTO_US          # frame 3's own first RTO
        assert third < second + RTO_US / 2     # nor the retransmission's
        assert rx.tracer.counters.get("transport.dup_data") == 0
        _quiet(sim, tx, rx)

    def test_the_last_frame_of_a_burst_waits_exactly_its_rto(self):
        sim, tx, rx, script, got = _scripted_pair(_seed(4), _first_copies(7))

        def proc():
            yield Timeout(100.0)
            for i in range(8):  # all eight transmitted at t=100
                tx.send("h1", {"i": i}, FRAME_BYTES)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert [i for i, _ in got] == list(range(8))
        counters = tx.tracer.counters
        assert counters["transport.retransmit"] == 1
        assert counters.get("transport.fast_retransmit") == 0
        # Nothing was sent after frame 7, so no ack can prove it lost.
        _, again = script.starts("h0", 7)
        assert again == pytest.approx(100.0 + RTO_US, abs=1e-6)
        _quiet(sim, tx, rx)

    @pytest.mark.parametrize("transport_cls",
                             [LightweightTransport, TcpLikeTransport])
    def test_both_transports_share_the_rule(self, transport_cls):
        lose = _first_copies(3, 5)
        sim, tx, rx, script, got = _scripted_pair(_seed(5), lose, transport_cls)

        def proc():
            for i in range(30):
                tx.send("h1", {"i": i}, FRAME_BYTES)
                yield Timeout(2.0)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert [i for i, _ in got] == list(range(30))
        counters = tx.tracer.counters
        assert counters["transport.retransmit"] == 2
        assert counters["transport.fast_retransmit"] == 2
        _quiet(sim, tx, rx)


class TestNoFalsePositives:
    def test_a_loss_free_fabric_never_retransmits(self):
        """10,000 messages each way with delayed acks, piggybacked acks,
        a full window now and then, and a WRR uplink that h0's transport
        shares with a second traffic class of h0's own: arbitration
        reorders *between* classes, never inside the transport's."""
        rng = random.Random(_seed(6))
        sim = Simulator(seed=_seed(6))
        net = build_star(sim, 3)
        net.link_between("h0", "s0").set_egress_weights(
            {"transport": 1, "coherence": 3})
        ends, got = _both_ways(net)
        total = 10_000

        def stream(me, peer):
            sent = 0
            while sent < total:
                # Bursts up to several windows' worth of frames, then a
                # gap that is sometimes longer than the delayed-ack timer.
                for _ in range(min(rng.choice((1, 1, 2, 8, 150)), total - sent)):
                    ends[me].send(peer, {"i": sent}, rng.choice((64, 512, 1400)))
                    sent += 1
                yield Timeout(rng.choice((0.5, 3.0, 20.0, 80.0, 300.0)))

        def second_class():
            while len(got["h1"]) < total:
                for _ in range(rng.choice((1, 4, 12))):
                    net.host("h0").send(Packet(kind="coh.noise", src="h0", dst="h2",
                                               payload_bytes=rng.choice((64, 1024))))
                yield Timeout(rng.choice((1.0, 5.0, 15.0)))

        sim.spawn(stream("h0", "h1"))
        sim.spawn(stream("h1", "h0"))
        sim.spawn(second_class())
        sim.run()
        assert got["h0"] == got["h1"] == list(range(total))
        for end in ends.values():
            counters = end.tracer.counters
            assert counters.get("transport.retransmit") == 0
            assert counters.get("transport.dup_data") == 0
            assert counters["transport.tx"] == counters["transport.frame.tx"]
            assert counters["transport.ack.piggybacked"] > 0
            assert counters["transport.ack.delayed"] > 0
        # The second class really did share, and pre-empt, the uplink.
        wrr = net.tracer.counters
        assert wrr["switch.wrr.tx.coherence"] > 1_000
        assert wrr["switch.wrr.tx.transport"] > 1_000
        _quiet(sim, *ends.values())


class TestBudget:
    def test_total_loss_declares_the_peer_dead_and_leaves_nothing(self):
        def lose(src, cls, seq, nth, packet):
            return src == "h0"

        sim, tx, rx, script, got = _scripted_pair(_seed(7), lose,
                                                  max_retransmits=3)

        def proc():
            for i in range(5):
                tx.send("h1", {"i": i}, FRAME_BYTES)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        assert got == []
        counters = tx.tracer.counters
        assert counters["transport.peer_dead"] == 1
        # The first frame to spend its budget ends it for all five:
        # 3 retransmissions of each, all RTOs (no ack ever arrived).
        assert counters["transport.retransmit"] == 15
        assert counters.get("transport.fast_retransmit") == 0
        assert max(script.seen.values()) == 1 + 3
        _quiet(sim, tx, rx)

    def test_budget_spent_inside_an_ack_stops_the_repairs_of_that_ack(self):
        # Frames 0 and 1 of the first epoch never arrive while the
        # stream behind them does, so every ack for a frame sent after
        # their latest copies names both again.  Frame 0 spends the
        # budget first; frame 1, named by the same ack, must not be
        # looked for in the window that just emptied.
        def lose(src, cls, seq, nth, packet):
            return ((src, cls) == ("h0", DATA) and seq in (0, 1)
                    and packet.payload["epoch"] == 0)

        sim, tx, rx, script, got = _scripted_pair(_seed(8), lose,
                                                  max_retransmits=3)
        died_at = []

        def proc():
            for i in range(200):
                if tx.tracer.counters.get("transport.peer_dead") and not died_at:
                    died_at.append(i)
                tx.send("h1", {"i": i}, FRAME_BYTES)
                yield Timeout(3.0)
            yield Timeout(10_000.0)

        sim.run_process(proc())
        counters = tx.tracer.counters
        assert counters["transport.peer_dead"] == 1
        assert counters["transport.retransmit"] == 6
        assert counters["transport.fast_retransmit"] == 6  # no RTO got there first
        # The new epoch resynchronises: everything sent after the
        # verdict arrives, once and in order.
        assert died_at and [i for i, _ in got] == list(range(died_at[0], 200))
        _quiet(sim, tx, rx)


# Up to three drops of any one packet identity, in either direction.
_drop_masks = st.sets(
    st.tuples(st.sampled_from(("h0", "h1")), st.sampled_from((DATA, ACK)),
              st.integers(min_value=-1, max_value=15),
              st.integers(min_value=1, max_value=3)),
    max_size=14)


class TestAnyDropMask:
    @settings(max_examples=120, deadline=None)
    @given(mask=_drop_masks, gap=st.sampled_from((0.0, 2.0, 30.0, 120.0)),
           n=st.integers(min_value=1, max_value=16))
    def test_exactly_once_in_order_and_quiescent(self, mask, gap, n):
        def lose(src, cls, seq, nth, packet):
            return (src, cls, seq, nth) in mask

        sim, net, script = _scripted_star(_seed(9), lose)
        ends, got = _both_ways(net, rto_us=RTO_US)

        def stream(me, peer):
            for i in range(n):
                ends[me].send(peer, {"i": i}, FRAME_BYTES)
                if gap:
                    yield Timeout(gap)
            yield Timeout(0.0)

        sim.spawn(stream("h0", "h1"))
        sim.spawn(stream("h1", "h0"))
        sim.run()
        assert got["h0"] == got["h1"] == list(range(n))
        _quiet(sim, *ends.values())
        for end in ends.values():
            counters = end.tracer.counters
            assert counters.get("transport.peer_dead") == 0
            assert counters["transport.acked"] == counters["transport.frame.tx"] == n
            if not any(dropped for *_, dropped in script.sent):
                assert counters["transport.tx"] == counters["transport.frame.tx"]
                assert counters.get("transport.retransmit") == 0
        budget = 1 + ends["h0"].max_retransmits
        assert all(count <= budget for (_, cls, _), count in script.seen.items()
                   if cls == DATA)
