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

from repro.memproto import LightweightTransport, TcpLikeTransport, transport
from repro.net import build_star
from repro.sim import ScheduledEvent, Simulator

from .transport_script import (FRAME_BYTES, RTO_US, assert_quiet, scripted_pair,
                               seed_for)


def _never(src, cls, seq, nth, packet):
    return False


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
        sim, tx, rx, script, got = scripted_pair(seed_for(11), _never)
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
        sim, tx, rx, script, got = scripted_pair(seed_for(12), _never,
                                                 TcpLikeTransport)
        acked = _ack_instants(tx)
        tx.send("h1", {"i": 0}, FRAME_BYTES)
        assert sim.run() == acked[-1] < RTO_US
        assert [i for i, _ in got] == [0] and len(acked) == 1
        assert tx.tracer.counters["transport.ack.tx"] == 0
        assert rx.tracer.counters["transport.ack.delayed"] == 1
        assert_quiet(sim, tx, rx)


# ---------------------------------------------------------------------------
# the timer budget, in kernel events: exact on any machine
# ---------------------------------------------------------------------------

MESSAGES = 2_000
OUTSTANDING = 32
MAX_TIMER_EVENTS_PER_FRAME = 0.1


def _profiled_echo() -> tuple:
    """A loss-free closed-loop request/echo exchange under ``cProfile``:
    the profile and the frames both ends sent."""
    sim = Simulator(seed=seed_for(13))
    net = build_star(sim, 2)
    requester = LightweightTransport(net.host("h0"))
    responder = LightweightTransport(net.host("h1"))
    sent, echoed = [0], [0]

    def request():
        requester.send("h1", {"i": sent[0]}, 512)
        sent[0] += 1

    def on_echo(src, payload, nbytes):
        echoed[0] += 1
        if sent[0] < MESSAGES:
            request()

    responder.on_deliver(lambda src, payload, nbytes:
                         responder.send(src, payload, nbytes))
    requester.on_deliver(on_echo)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(OUTSTANDING):
        request()
    sim.run()
    profiler.disable()
    assert echoed[0] == MESSAGES
    frames = 0
    for end in (requester, responder):
        counters = end.tracer.counters
        assert counters.get("transport.retransmit") == 0
        frames += counters["transport.frame.tx"]
    assert sim.pending_event_count == 0
    return pstats.Stats(profiler).stats, frames


def _calls_from_transport(stats, callee, *callers) -> int:
    """Calls of ``callee`` made by transport.py's functions ``callers``."""
    code = callee.__code__
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    if row is None:
        return 0
    here = os.path.abspath(transport.__file__)
    return sum(calls[0] for (filename, _, name), calls in row[4].items()
               if os.path.abspath(filename) == here and name in callers)


def test_the_retransmission_timer_stays_within_its_event_budget():
    stats, frames = _profiled_echo()
    armed = sum(_calls_from_transport(stats, schedule, "_transmit", "_on_timer")
                for schedule in (Simulator.schedule, Simulator.schedule_at))
    first_arms = sum(_calls_from_transport(stats, schedule, "_transmit")
                     for schedule in (Simulator.schedule, Simulator.schedule_at))
    assert 0 < armed <= MAX_TIMER_EVENTS_PER_FRAME * frames, (armed, frames)
    # A frame entering an empty window arms the timer and the ack that
    # drains the window cancels it: one cancel a drain, none a frame.
    cancelled = _calls_from_transport(stats, ScheduledEvent.cancel,
                                      "_accept_cum_ack", "_retransmit")
    assert cancelled == first_arms, (cancelled, first_arms)
