"""Contract of the transports' loss recovery (``memproto/transport.py``).

One rule: an ack that newly acknowledges a frame proves that every
frame transmitted before it and still unacknowledged was lost, because
the fabric is FIFO.  The timer is left the frame with nothing sent
after it (``test_transport_timers.py`` holds when it fires).

Losses are scripted, not drawn (``transport_script.DropScript``).  Only
the loss-free soak draws anything (sizes, bursts and gaps); its seed
shifts with ``REPRO_SEED_OFFSET`` like the rest of the fault-seed matrix.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memproto import LightweightTransport, TcpLikeTransport
from repro.net import Packet, build_star
from repro.sim import Simulator, Timeout

from .transport_script import (ACK, DATA, FRAME_BYTES, RTO_US, assert_quiet,
                               both_ways, drop_masks, first_copies,
                               masked_streams, scripted_pair, seed_for)


class TestTransmissionOrderRule:
    def test_a_mid_stream_loss_is_repaired_on_the_first_sack_past_it(self):
        sim, tx, rx, script, got = scripted_pair(seed_for(1), first_copies(4))

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
        assert_quiet(sim, tx, rx)

    def test_three_holes_one_ack_names_are_repaired_on_that_ack(self):
        # Frames 2, 4 and 6 are lost, and so are the acks that frames 3
        # and 5 provoke: the ack frame 7 provokes (cum 1, SACK 3 5 7) is
        # the first the sender sees, and it proves all three losses.
        def lose(src, cls, seq, nth, packet):
            if (src, cls) == ("h0", DATA):
                return seq in (2, 4, 6) and nth == 1
            return (src, cls, seq) == ("h1", ACK, 1) and nth in (2, 3)

        sim, tx, rx, script, got = scripted_pair(seed_for(2), lose)

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
        assert_quiet(sim, tx, rx)

    def test_a_lost_retransmission_is_repaired_without_an_rto(self):
        def lose(src, cls, seq, nth, packet):
            return (src, cls, seq) == ("h0", DATA, 3) and nth <= 2

        sim, tx, rx, script, got = scripted_pair(seed_for(3), lose)

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
        assert_quiet(sim, tx, rx)

    def test_the_last_frame_of_a_burst_waits_exactly_its_rto(self):
        sim, tx, rx, script, got = scripted_pair(seed_for(4), first_copies(7))

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
        assert_quiet(sim, tx, rx)

    @pytest.mark.parametrize("transport_cls",
                             [LightweightTransport, TcpLikeTransport])
    def test_both_transports_share_the_rule(self, transport_cls):
        lose = first_copies(3, 5)
        sim, tx, rx, script, got = scripted_pair(seed_for(5), lose, transport_cls)

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
        assert_quiet(sim, tx, rx)


class TestNoFalsePositives:
    @pytest.mark.parametrize("seed", [6, 26, 46, 66, 86])
    def test_a_loss_free_fabric_never_retransmits(self, seed):
        """10,000 messages each way with delayed acks, piggybacked acks,
        a full window now and then, and a WRR uplink that h0's transport
        shares with a second traffic class of h0's own: arbitration
        reorders *between* classes, never inside the transport's, and
        h0's acks queue behind h0's own bursts, so the round trip jumps
        fourfold: the guard on any deadline shorter than ``rto_us``."""
        rng = random.Random(seed_for(seed))
        sim = Simulator(seed=seed_for(seed))
        net = build_star(sim, 3)
        net.link_between("h0", "s0").set_egress_weights(
            {"transport": 1, "coherence": 3})
        ends, got = both_ways(net)
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
        assert_quiet(sim, *ends.values())


class TestBudget:
    def test_total_loss_declares_the_peer_dead_and_leaves_nothing(self):
        def lose(src, cls, seq, nth, packet):
            return src == "h0"

        sim, tx, rx, script, got = scripted_pair(seed_for(7), lose,
                                                  budget=3)

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
        assert_quiet(sim, tx, rx)

    def test_budget_spent_inside_an_ack_stops_the_repairs_of_that_ack(self):
        # Frames 0 and 1 of the first epoch never arrive while the
        # stream behind them does, so every ack for a frame sent after
        # their latest copies names both again.  Frame 0 spends the
        # budget first; frame 1, named by the same ack, must not be
        # looked for in the window that just emptied.
        def lose(src, cls, seq, nth, packet):
            return ((src, cls) == ("h0", DATA) and seq in (0, 1)
                    and packet.payload["epoch"] == 0)

        sim, tx, rx, script, got = scripted_pair(seed_for(8), lose,
                                                  budget=3)
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
        assert_quiet(sim, tx, rx)


class TestAnyDropMask:
    @settings(max_examples=120, deadline=None)
    @given(mask=drop_masks, gap=st.sampled_from((0.0, 2.0, 30.0, 120.0)),
           n=st.integers(min_value=1, max_value=16))
    def test_exactly_once_in_order_and_quiescent(self, mask, gap, n):
        sim, ends, got, script = masked_streams(seed_for(9), mask, gap, n)
        sim.run()
        assert got["h0"] == got["h1"] == list(range(n))
        assert_quiet(sim, *ends.values())
        for end in ends.values():
            counters = end.tracer.counters
            assert counters.get("transport.peer_dead") == 0
            assert counters["transport.acked"] == counters["transport.frame.tx"] == n
            if not any(dropped for *_, dropped in script.sent):
                assert counters["transport.tx"] == counters["transport.frame.tx"]
                assert counters.get("transport.retransmit") == 0
        budget = 1 + ends["h0"].MAX_RETRANSMITS
        assert all(count <= budget for (_, cls, _), count in script.seen.items()
                   if cls == DATA)
