"""How the reliable transports keep time (``memproto/transport.py``).

One retransmission timer per peer, aimed at the head of the window: the
frame transmitted longest ago.  What the timer retransmits is
``test_transport_recovery.py``'s contract (its
``test_the_last_frame_of_a_burst_waits_exactly_its_rto`` is this file's
case before any round trip is sampled); this file holds when it fires,
what it costs the kernel and that it never outlives its window.

Losses are scripted (``transport_script.DropScript``); seeds shift with
``REPRO_SEED_OFFSET`` like the rest of the fault-seed matrix.
"""

import cProfile
import os
import pstats

import pytest
from hypothesis import given, settings, strategies as st

from repro.memproto import TcpLikeTransport, transport
from repro.sim import Simulator

from .transport_script import (DATA, FRAME_BYTES, RTO_US, assert_quiet,
                               both_ways, drop_masks, first_copies,
                               masked_streams, scripted_pair, scripted_star,
                               seed_for)


def _ack_instants(end):
    """When each standalone ack reached ``end``, filled in as they do."""
    seen = []

    def on_ack(packet):
        end._on_ack(packet)
        seen.append(end.sim.now)

    end.host.replace_handler(end.ack_kind, on_ack)
    return seen


class TestNoTimerOutlivesItsWindow:
    def test_a_drained_window_leaves_no_event_at_once(self):
        # Two frames and ack_every=2: the second frame's arrival sends
        # the ack, so the receiver owes nothing and arms no delayed ack.
        sim, tx, rx, script, got = scripted_pair(seed_for(11), first_copies())
        acked = _ack_instants(tx)
        for i in range(2):
            tx.send("h1", {"i": i}, FRAME_BYTES)
        while not acked:
            assert sim.pending_event_count > 0
            sim.run(until=sim.now + 1.0)
        assert tx.inflight_count("h1") == 0
        assert sim.pending_event_count == 0  # not rto_us later
        assert sim.now < RTO_US / 2
        assert_quiet(sim, tx, rx)

    def test_a_tcp_like_pair_is_quiet_when_its_last_ack_arrives(self):
        # The SYN's retry must not outlive the SYNACK: one message, and
        # the run ends on the delayed ack's arrival, not at the RTO.
        sim, tx, rx, script, got = scripted_pair(seed_for(12), first_copies(),
                                                 TcpLikeTransport)
        acked = _ack_instants(tx)
        tx.send("h1", {"i": 0}, FRAME_BYTES)
        assert sim.run() == acked[-1] < RTO_US
        assert [i for i, _ in got] == [0] and len(acked) == 1
        assert tx.tracer.counters["transport.ack.tx"] == 0
        assert rx.tracer.counters["transport.ack.delayed"] == 1
        assert_quiet(sim, tx, rx)


# ---------------------------------------------------------------------------
# the deadline: measured, restarted by anything heard, rto_us at most
# ---------------------------------------------------------------------------

EXCHANGES = 50


class _PingPong:
    """h0 sends a request, h1 echoes it and the echo releases h0's next
    request, on a scripted star that is otherwise idle: one at a time,
    every ack but the last rides a data frame, so the sampled round
    trips are steady.  Starts settled, ``EXCHANGES`` loss-free
    exchanges in."""

    def __init__(self, seed, lose, **kwargs):
        self.sim, net, self.script = scripted_star(seed, lose)
        ends, _ = both_ways(net, rto_us=RTO_US, **kwargs)
        self.h0, self.h1 = self.ends = ends["h0"], ends["h1"]
        self.h1.on_deliver(lambda src, payload, size:
                           self.h1.send(src, payload, size))
        self.h0.on_deliver(self._on_echo)
        self.sent = self.wanted = self.echoed = 0
        self.run(EXCHANGES)
        assert self.echoed == EXCHANGES
        assert not any(dropped for *_, dropped in self.script.sent)
        assert self.h0.tracer.counters["transport.ack.piggybacked"] == EXCHANGES - 1
        self.peer = self.h0._tx["h1"]  # h0's sender state toward h1

    def _request(self):
        self.h0.send("h1", {"i": self.sent}, FRAME_BYTES)
        self.sent += 1

    def _on_echo(self, src, payload, size):
        self.echoed += 1
        if self.sent < self.wanted:
            self._request()

    def run(self, count, outstanding=1):
        """``count`` more exchanges, ``outstanding`` at a time, then on
        to quiescence."""
        self.wanted += count
        for _ in range(outstanding):
            self._request()
        self.sim.run()


class TestMeasuredDeadline:
    def test_a_lost_retransmission_alone_waits_the_measured_silence(self):
        star = _PingPong(seed_for(14), first_copies(EXCHANGES, copies=(1, 2)))
        round_trips = star.h0.tracer.series.samples("transport.delivery_us")
        assert len(round_trips) == EXCHANGES
        star.run(1)
        first, second, third = star.script.starts("h0", EXCHANGES)
        # Later than any round trip seen, so an ack on its way is not
        # pre-empted; well before the ceiling a fixed timer waits out.
        assert second + max(round_trips) < third <= second + RTO_US - 50.0
        assert first + max(round_trips) < second <= first + RTO_US - 50.0
        counters = star.h0.tracer.counters
        assert counters["transport.retransmit"] == 2
        assert counters.get("transport.fast_retransmit") == 0
        assert star.h1.tracer.counters.get("transport.dup_data") == 0
        assert star.echoed == EXCHANGES + 1
        assert_quiet(star.sim, *star.ends)

    def test_the_ack_of_a_retransmitted_frame_is_not_a_sample(self):
        star = _PingPong(seed_for(15), first_copies(EXCHANGES))
        peer = star.peer
        before = (peer.srtt, peer.rttvar)
        star.run(1)  # acked on its second copy
        assert len(star.script.starts("h0", EXCHANGES)) == 2
        assert (peer.srtt, peer.rttvar) == before
        star.run(1)  # a first copy is a sample again
        assert (peer.srtt, peer.rttvar) != before
        assert_quiet(star.sim, *star.ends)

    def test_a_dead_peer_takes_its_estimate_with_it(self):
        # Epoch 0's frame 50 never arrives.  The next epoch's first frame
        # loses its first copy and, the estimate gone, waits rto_us exactly.
        fresh = []  # epoch 1, frame 0: one entry a copy

        def lose(src, cls, seq, nth, packet):
            if (src, cls) != ("h0", DATA):
                return False
            if (packet.payload["epoch"], seq) == (1, 0):
                fresh.append(nth)
                return len(fresh) == 1
            return (packet.payload["epoch"], seq) == (0, EXCHANGES)

        star = _PingPong(seed_for(16), lose, max_retransmits=3)
        peer = star.peer
        assert peer.srtt is not None
        star.run(1)
        assert star.h0.tracer.counters["transport.peer_dead"] == 1
        assert peer.srtt is None and peer.timer is None
        star.run(1)
        assert len(fresh) == 2
        first, again = star.script.starts("h0", 0)[-2:]
        assert again == pytest.approx(first + RTO_US, abs=1e-6)
        assert peer.srtt is None  # acked on its second copy: no sample yet
        assert star.echoed == EXCHANGES + 1  # the dead epoch's request is gone
        assert_quiet(star.sim, *star.ends)

    @settings(max_examples=120, deadline=None)
    @given(mask=drop_masks, gap=st.sampled_from((0.0, 2.0, 30.0, 120.0)),
           n=st.integers(min_value=1, max_value=16))
    def test_no_frame_ever_waits_longer_than_rto_us(self, mask, gap, n):
        sim, ends, got, script = masked_streams(seed_for(17), mask, gap, n)
        sent = {name: {} for name in ends}  # seq -> instants transmitted
        for name, end in ends.items():
            def transmit(dst, tx, packet, log=sent[name], inner=end._transmit):
                log.setdefault(packet.payload["seq"], []).append(sim.now)
                inner(dst, tx, packet)
            end._transmit = transmit
        sim.run()
        assert got["h0"] == got["h1"] == list(range(n))
        for log in sent.values():
            for instants in log.values():
                assert all(b - a <= RTO_US + 1e-6
                           for a, b in zip(instants, instants[1:]))
        assert_quiet(sim, *ends.values())


# ---------------------------------------------------------------------------
# the timer budget, in kernel events: exact on any machine
# ---------------------------------------------------------------------------

MESSAGES = 2_000
OUTSTANDING = 32
MAX_TIMER_EVENTS_PER_FRAME = 0.1


def _calls_from_transport(stats, callees, *callers) -> int:
    """Calls of the functions ``callees`` made by transport.py's
    functions ``callers``."""
    here = os.path.abspath(transport.__file__)
    total = 0
    for callee in callees:
        code = callee.__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if row is not None:
            total += sum(calls[0] for (filename, _, name), calls in row[4].items()
                         if os.path.abspath(filename) == here and name in callers)
    return total


def test_the_retransmission_timer_stays_within_its_event_budget():
    """A loss-free closed-loop exchange, 2,000 messages with 32
    outstanding, under ``cProfile``: one frame a message each way."""
    star = _PingPong(seed_for(13), first_copies())
    profiler = cProfile.Profile()
    profiler.enable()
    star.run(MESSAGES, outstanding=OUTSTANDING)
    profiler.disable()
    assert star.echoed == EXCHANGES + MESSAGES
    for end in star.ends:
        assert end.tracer.counters.get("transport.retransmit") == 0
    assert_quiet(star.sim, *star.ends)
    stats, frames = pstats.Stats(profiler).stats, 2 * MESSAGES
    schedule = (Simulator.schedule, Simulator.schedule_at)
    armed = _calls_from_transport(stats, schedule, "_transmit", "_on_timer")
    assert 0 < armed <= MAX_TIMER_EVENTS_PER_FRAME * frames, (armed, frames)
    # A frame entering an empty window arms the timer and the ack that
    # drains the window cancels it: one cancel a drain, none a frame.
    drained = _calls_from_transport(stats, schedule, "_transmit")
    cancelled = _calls_from_transport(stats, [Simulator.cancel],
                                      "_accept_cum_ack", "_retransmit")
    assert cancelled == drained, (cancelled, drained)
