"""Scripted losses for the transport contract tests.

``Link._drop``, the one place a packet is dropped, is replaced by a
function of the frame's seq and of which transmission of it this is, so
no case depends on an RNG stream.  Shared by
``test_transport_recovery.py`` (what is retransmitted) and
``test_transport_timers.py`` (when).
"""

import os
from collections import Counter
from functools import partial

from hypothesis import strategies as st

from repro.memproto import LightweightTransport
from repro.net import build_star
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))
RTO_US = 200.0
FRAME_BYTES = 1400  # one message fills a frame: frame seq == message index
DATA, ACK = "data", "ack"


def seed_for(n: int) -> int:
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


def scripted_star(seed, lose):
    """Two hosts on a star whose links drop what ``lose`` says, and
    nothing else: the links are lossy only so that ``_drop`` is asked."""
    sim = Simulator(seed=seed)
    net = build_star(sim, 2, default_loss_rate=0.5)
    return sim, net, DropScript(net, lose)


def _shaped(transport, budget):
    """``transport`` with its retransmit budget cut to ``budget``, if given."""
    if budget is not None:
        transport.MAX_RETRANSMITS = budget
    return transport


def scripted_pair(seed, lose, transport_cls=LightweightTransport, budget=None):
    """A sender on h0 and a receiver on h1 of a scripted star, and the
    ``(message, arrival instant)`` pairs the receiver delivered."""
    sim, net, script = scripted_star(seed, lose)
    tx = _shaped(transport_cls(net.host("h0")), budget)
    rx = _shaped(transport_cls(net.host("h1")), budget)
    got = []
    rx.on_deliver(lambda src, payload, size: got.append((payload["i"], sim.now)))
    return sim, tx, rx, script, got


def both_ways(net, budget=None):
    """A lightweight transport on h0 and on h1, and what each delivered."""
    ends = {name: _shaped(LightweightTransport(net.host(name)), budget)
            for name in ("h0", "h1")}
    got = {name: [] for name in ends}
    for name, end in ends.items():
        end.on_deliver(lambda src, payload, size, log=got[name]:
                       log.append(payload["i"]))
    return ends, got


def first_copies(*seqs, copies=(1,)):
    """Lose the first transmission (the transmissions ``copies``) of each
    of h0's data frames ``seqs``; of none, lose nothing."""
    return lambda src, cls, seq, nth, packet: (
        (src, cls) == ("h0", DATA) and seq in seqs and nth in copies)


def assert_quiet(sim, *transports):
    """Nothing inflight, backlogged, coalescing or left in the heap."""
    for transport in transports:
        for peer in ("h0", "h1"):
            assert transport.inflight_count(peer) == 0
            assert transport.backlog_count(peer) == 0
            assert transport.coalescing_count(peer) == 0
    assert sim.pending_event_count == 0


# Up to three drops of any one packet identity, in either direction.
drop_masks = st.sets(
    st.tuples(st.sampled_from(("h0", "h1")), st.sampled_from((DATA, ACK)),
              st.integers(min_value=-1, max_value=15),
              st.integers(min_value=1, max_value=3)),
    max_size=14)


def masked_streams(seed, mask, gap, n):
    """h0 and h1 each stream ``n`` one-frame messages to the other,
    ``gap`` apart, over a star that drops the ``(src, cls, seq, nth)``
    in ``mask``.  Spawned, not yet run."""
    sim, net, script = scripted_star(
        seed, lambda src, cls, seq, nth, packet: (src, cls, seq, nth) in mask)
    ends, got = both_ways(net)

    def stream(me, peer):
        for i in range(n):
            ends[me].send(peer, {"i": i}, FRAME_BYTES)
            if gap:
                yield Timeout(gap)
        yield Timeout(0.0)

    sim.spawn(stream("h0", "h1"))
    sim.spawn(stream("h1", "h0"))
    return sim, ends, got, script
