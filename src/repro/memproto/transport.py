"""Reliable transports for memory messages.

§3.2 argues that Ethernet alone lacks reliability while TCP drags along
machinery (slow start, connection setup) that memory traffic does not
want: "there will need to be a new, light-weight form of reliable
transmission, separated from the other features provided by TCP."

Two transports implement the comparison for experiment E9:

* :class:`LightweightTransport` — the paper's proposal: per-peer
  sequence numbers, a fixed send window, one retransmission timer per
  peer, receiver-side duplicate suppression.  No handshake, no slow start.
* :class:`TcpLikeTransport` — the incumbent baseline: a 1-RTT handshake
  per peer, slow-start congestion window growth from 1 segment, and
  timeout-triggered window collapse (Tahoe-style).

Both deliver each message exactly once, in order, to the registered
upper-layer handler, and both record per-message delivery latency.

The data plane is **frame-batched**: messages queued toward the same
peer coalesce into a single MTU-bounded frame (one sequence number, one
header, one ack) instead of each message riding its own wire packet.
The flush deadline is zero simulated time — everything sent at
the same instant shares a frame, and a latency-sensitive single still
departs at the instant it was sent.  Acks are **cumulative** (one ack
covers every frame up to it) and **piggyback** on reverse-direction
data frames; a delayed-ack timer is the fallback when no reverse data
shows up, and every ``ACK_EVERY``-th pending frame forces one out so a
one-way stream never stalls on the timer.

Loss recovery is one rule, **transmission order**.  The sender keeps a
peer's inflight frames in the order it last transmitted them.  Links are
FIFO, unicast follows one learned path, and every packet a transport
sends (data, ack, handshake) rides the same traffic class, so WRR egress
cannot reorder a connection: what arrives, arrives in transmission
order.  An ack that newly acknowledges a frame, cumulatively or through
its bounded **selective-ack block**, standalone or piggybacked, was
written after that frame arrived, so every frame transmitted *before*
the latest-transmitted of the newly acknowledged ones and still
unacknowledged did not arrive, and is retransmitted at once.  That finds
a first loss on the first SACK past it, repairs every hole of a window
on the same ack and finds a lost retransmission as soon as anything sent
after it is acknowledged.  The timer is left the one case no ack can
prove: a frame with nothing sent after it.

There is **one timer per peer**, aimed at the head of the window (the
frame transmitted longest ago) and cancelled when the window drains.
Its deadline is measured: ``max(the frame's transmission, the last
instant anything was heard from the peer) + srtt + 4 * rttvar +
DELAYED_ACK_US``, round trip and deviation smoothed over the acks of
frames transmitted once (Karn's rule, RFC 6298 gains), plus the delay
the peer may add to an ack.  ``RTO_US`` is the first deadline, until a
round trip is sampled, and the ceiling: nothing waits longer.  Anything
heard restarts it, data or ack, progress or not, because a peer's acks
queue behind its own bursts on its uplink and the round trip jumps
fourfold at a stroke, yet a peer that is heard from has our ack in that
queue.  It still misfires on a peer silent for longer than the deadline
while it holds our ack, which costs duplicates the receiver discards.

The rule would be unsound on a fabric that reorders (multipath, per-
packet spraying, transport packets split across traffic classes).  Here
it misfires only where an ack leaves a frame out although it arrived: a
frame buffered beyond ``SACK_LIMIT``, more than 64 out of order, and a
frame whose timer fired although its first copy arrived, whose ack is
read as naming the second copy.  Either costs duplicates the receiver
already discards.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..sim import Simulator, Tracer
from ..net.host import MTU_BYTES, Host
from ..net.packet import HEADER_BYTES, Packet

__all__ = ["LightweightTransport", "TcpLikeTransport"]

DeliveryHandler = Callable[[str, Dict[str, Any], int], None]
# handler(src_host, payload, payload_bytes)

_FRAME_HEADER_BYTES = 12  # seq + epoch + cumulative-ack field + flags
_MSG_HEADER_BYTES = 2     # per-message length field inside a frame
_ACK_BYTES = 12


class _PeerTx:
    """Per-destination sender state shared by both transports.

    ``inflight`` is kept in **transmission order**: a dict keeps
    insertion order and a retransmission is popped before ``_transmit``
    re-inserts it, so the frames ahead of an entry are the ones last
    transmitted before it.  ``_accept_cum_ack`` reads loss off that
    order (module docstring); a frame with nothing sent after it has
    only the timer.  Each entry holds the instant of that transmission,
    so the first entry is always the next to expire and ``timer``, the
    peer's one retransmission timer, only ever aims at it."""

    def __init__(self) -> None:
        self.next_seq = 0
        self.epoch = 0
        self.inflight: Dict[int, Tuple[Packet, float]] = {}  # seq -> (frame, sent at)
        self.timer: Optional[list] = None
        self.srtt: Optional[float] = None  # smoothed round trip, None until sampled
        self.rttvar = 0.0
        self.heard_at = 0.0  # last instant any frame or ack came from the peer
        self.backlog: Deque[Packet] = deque()
        self.send_times: Dict[int, float] = {}   # seq -> first transmission
        self.queued_at: Dict[int, float] = {}    # seq -> backlog entry time
        self.attempts: Dict[int, int] = {}
        # Messages awaiting framing: (payload, payload_bytes) pairs plus
        # the modelled bytes they will occupy inside a frame.
        self.coalesce: List[Tuple[Dict[str, Any], int]] = []
        self.coalesce_bytes = 0
        self.flush_event: Optional[list] = None


class _PeerRx:
    """Per-source receiver state: exactly-once, in-order delivery."""

    def __init__(self) -> None:
        self.expected_seq = 0
        self.epoch = 0
        self.out_of_order: Dict[int, Packet] = {}
        self.ack_owed = 0  # frames heard since the last ack we emitted
        self.ack_event: Optional[list] = None


class _TransportBase:
    """Common machinery: framing, acks, retransmission, reordering."""

    # The first retransmission deadline, and the ceiling of the measured one.
    RTO_US = 200.0
    # Retransmissions of one frame before its peer is declared dead.
    MAX_RETRANSMITS = 30
    # How long a message waits to share a frame: zero, so everything
    # sent at one instant shares one.
    FLUSH_US = 0.0
    # The fallback deadline of an ack no reverse data frame carries;
    # below RTO_US, or every delayed ack would trigger a retransmit.
    DELAYED_ACK_US = 50.0
    # Every this many frames heard force an ack out at once.
    ACK_EVERY = 2
    # Frames this far past the next expected one are dropped unbuffered.
    REORDER_WINDOW = 256

    def __init__(self, host: Host, data_kind: str, ack_kind: str):
        self.host = host
        self.sim: Simulator = host.sim
        self._frame_budget = MTU_BYTES - HEADER_BYTES - _FRAME_HEADER_BYTES
        self.data_kind = data_kind
        self.ack_kind = ack_kind
        self.tracer = Tracer()
        # Counter cells of the per-frame path (see Tracer).
        self._n_mtu_flush = self.tracer.cell("transport.frame.mtu_flush")
        self._n_frame_tx = self.tracer.cell("transport.frame.tx")
        self._n_tx = self.tracer.cell("transport.tx")
        self._n_ack_piggybacked = self.tracer.cell("transport.ack.piggybacked")
        self._n_acked = self.tracer.cell("transport.acked")
        self._n_sacked = self.tracer.cell("transport.sacked")
        self._n_ack_tx = self.tracer.cell("transport.ack.tx")
        self._n_delivered = self.tracer.cell("transport.delivered")
        self._tx: Dict[str, _PeerTx] = {}
        self._rx: Dict[str, _PeerRx] = {}
        self._handler: Optional[DeliveryHandler] = None
        host.on(data_kind, self._on_data)
        host.on(ack_kind, self._on_ack)

    # -- public API -----------------------------------------------------
    def on_deliver(self, handler: DeliveryHandler) -> None:
        """Register the upper layer receiving (src, payload, bytes)."""
        self._handler = handler

    def send(self, dst: str, payload: Dict[str, Any], payload_bytes: int) -> None:
        """Queue one message for reliable, in-order delivery to ``dst``.

        The message coalesces with everything else queued toward ``dst``
        inside the flush deadline into one MTU-bounded frame."""
        tx = self._tx.get(dst)
        if tx is None:
            tx = self._tx[dst] = _PeerTx()
        tx.coalesce.append((payload, payload_bytes))
        tx.coalesce_bytes += payload_bytes + _MSG_HEADER_BYTES
        if tx.coalesce_bytes >= self._frame_budget:
            # The MTU budget is full: frame the full prefix now instead
            # of waiting out the deadline.
            self._n_mtu_flush[0] += 1
            self._flush_frames(dst, tx, full_only=True)
        if tx.coalesce and tx.flush_event is None:
            tx.flush_event = self.sim.schedule(self.FLUSH_US, self._on_flush, dst)

    # -- window policy (subclass hooks) --------------------------------------
    def _window(self, dst: str, tx: _PeerTx) -> int:
        raise NotImplementedError

    def _ready(self, dst: str, tx: _PeerTx) -> bool:
        """May data flow to ``dst`` yet?  (Handshake gating.)"""
        return True

    def _on_ack_accounting(self, dst: str) -> None:
        """Window growth hook, called once per newly acked frame."""

    def _on_timeout_accounting(self, dst: str) -> None:
        """Window collapse hook, called once per loss event: an RTO, or
        an ack that finds loss (however many frames it names)."""

    # -- sender side: framing -----------------------------------------------
    def _on_flush(self, dst: str) -> None:
        tx = self._tx.get(dst)
        if tx is None:
            return
        tx.flush_event = None
        self._flush_frames(dst, tx, full_only=False)

    def _flush_frames(self, dst: str, tx: _PeerTx, full_only: bool) -> None:
        """Pack the coalesce queue into MTU-bounded frames.

        ``full_only`` (the MTU-pressure path) leaves a partial tail
        coalescing until the flush deadline; the deadline path frames
        everything."""
        msgs = tx.coalesce
        while msgs:
            take = 1
            size = msgs[0][1] + _MSG_HEADER_BYTES
            while (take < len(msgs)
                   and size + msgs[take][1] + _MSG_HEADER_BYTES
                   <= self._frame_budget):
                size += msgs[take][1] + _MSG_HEADER_BYTES
                take += 1
            if full_only and take == len(msgs) and size < self._frame_budget:
                break  # partial tail keeps coalescing
            entries = msgs[:take]
            del msgs[:take]
            tx.coalesce_bytes -= size
            seq = tx.next_seq
            tx.next_seq += 1
            packet = Packet(
                kind=self.data_kind,
                src=self.host.name,
                dst=dst,
                payload={"seq": seq, "epoch": tx.epoch,
                         "msgs": [m for m, _ in entries],
                         "nbytes": [n for _, n in entries]},
                payload_bytes=_FRAME_HEADER_BYTES + size,
            )
            tx.queued_at[seq] = self.sim.now
            tx.backlog.append(packet)
            self._n_frame_tx[0] += 1
        self._pump(dst, tx)

    # -- sender side: the window --------------------------------------------
    def _pump(self, dst: str, tx: _PeerTx) -> None:
        if not self._ready(dst, tx):
            return
        while tx.backlog and len(tx.inflight) < self._window(dst, tx):
            packet = tx.backlog.popleft()
            self._transmit(dst, tx, packet)

    def _transmit(self, dst: str, tx: _PeerTx, packet: Packet) -> None:
        seq = packet.payload["seq"]
        queued = tx.queued_at.pop(seq, None)
        if queued is not None:
            # First transmission: the delivery clock starts *here*, so
            # transport.delivery_us measures the wire (send -> ack), not
            # the backlog; the backlog wait is its own signal.
            tx.send_times[seq] = self.sim.now
            self.tracer.sample("transport.queue_us", self.sim.now - queued)
        if tx.timer is None:  # the frame enters an empty window
            tx.timer = self.sim.schedule_at(self._deadline(tx, self.sim.now),
                                            self._on_timer, dst)
        tx.inflight[seq] = (packet, self.sim.now)
        self._n_tx[0] += 1
        # Each (re)transmission is a distinct wire packet: fresh UID (so
        # switch duplicate suppression never eats a retransmission) and
        # fresh hop/TTL budget.  Protocol-level dedupe keys on seq.
        payload = dict(packet.payload)
        ack = self._take_pending_ack(dst)
        if ack is not None:
            payload["ack"], payload["ack_epoch"], payload["ack_sack"] = ack
            self._n_ack_piggybacked[0] += 1
        fresh = Packet(
            kind=packet.kind,
            src=packet.src,
            dst=packet.dst,
            payload=payload,
            payload_bytes=packet.payload_bytes,
        )
        self.host.send(fresh)

    def _deadline(self, tx: _PeerTx, sent_at: float) -> float:
        """When a frame transmitted at ``sent_at`` is given up for lost:
        the measured silence (module docstring), ``RTO_US`` at most and
        ``RTO_US`` exactly until a round trip has been sampled."""
        if tx.srtt is None:
            return sent_at + self.RTO_US
        return min(sent_at + self.RTO_US,
                   max(sent_at, tx.heard_at) + tx.srtt + 4.0 * tx.rttvar
                   + self.DELAYED_ACK_US)

    def _on_timer(self, dst: str) -> None:
        """The peer's one timer: retransmit every head of the window
        whose deadline has passed, then aim at the first that has not.
        Armed by the frame that enters an empty window, it fires early
        whenever that frame was acknowledged in time, and re-aims."""
        tx = self._tx[dst]
        # tx.timer still holds the event that fired, so the
        # retransmissions below arm nothing: this loop does the aiming.
        while tx.inflight:
            seq, (_, sent_at) = next(iter(tx.inflight.items()))
            deadline = self._deadline(tx, sent_at)
            if deadline > self.sim.now:
                tx.timer = self.sim.schedule_at(deadline, self._on_timer, dst)
                return
            self._on_timeout_accounting(dst)
            self._retransmit(dst, tx, seq, overtaken=False)
        tx.timer = None

    def _retransmit(self, dst: str, tx: _PeerTx, seq: int,
                    overtaken: bool) -> None:
        """Transmit inflight ``seq`` again, to the end of the
        transmission order: its RTO fired, or (``overtaken``) a frame
        sent after it was acknowledged.  One budget covers both."""
        attempts = tx.attempts.get(seq, 0) + 1
        if attempts > self.MAX_RETRANSMITS:
            self._declare_peer_dead(dst, tx)
            return
        tx.attempts[seq] = attempts
        packet, _ = tx.inflight.pop(seq)
        self.tracer.count("transport.retransmit")
        if overtaken:
            self.tracer.count("transport.fast_retransmit")
        self._transmit(dst, tx, packet)

    def _declare_peer_dead(self, dst: str, tx: _PeerTx) -> None:
        """The retransmit budget ran out: stop spinning the event heap
        against ``dst`` and drop all sender state.  A later ``send()``
        starts a fresh epoch, so a recovered peer resynchronises instead
        of mistaking the new seq 0 for an ancient duplicate."""
        self.tracer.count("transport.peer_dead")
        for event in (tx.timer, tx.flush_event):
            if event is not None:
                self.sim.cancel(event)
        tx.timer = tx.flush_event = None
        tx.inflight.clear()
        tx.backlog.clear()
        tx.coalesce.clear()
        tx.coalesce_bytes = 0
        tx.send_times.clear()
        tx.queued_at.clear()
        tx.attempts.clear()
        tx.srtt = None
        tx.next_seq = 0
        tx.epoch += 1
        self._on_peer_dead(dst)

    def _on_peer_dead(self, dst: str) -> None:
        """Subclass hook: extra state to drop when a peer is declared dead."""

    # -- ack processing (standalone and piggybacked) -------------------------
    def _accept_cum_ack(self, peer: str, cum: int, epoch: int,
                        sack: Sequence[int] = ()) -> None:
        tx = self._tx.get(peer)
        if tx is None:
            return
        tx.heard_at = self.sim.now
        if epoch != tx.epoch:
            return  # ack from a dead epoch
        # Selectively-acked frames sit in the receiver's reorder buffer:
        # they are delivered the instant the hole fills, so they leave
        # the window like cumulatively acked ones.
        sacked = set(sack)
        order = list(tx.inflight)  # transmission order
        acked = [seq for seq in order if seq <= cum or seq in sacked]
        if not acked:
            return
        for seq in acked:
            del tx.inflight[seq]
            once = tx.attempts.pop(seq, None) is None
            sent_at = tx.send_times.pop(seq, None)
            if sent_at is not None:
                rtt = self.sim.now - sent_at
                self.tracer.sample("transport.delivery_us", rtt)
                if once and tx.srtt is None:
                    tx.srtt, tx.rttvar = rtt, rtt / 2.0
                elif once:  # Karn's rule: a retransmitted frame's ack is ambiguous
                    tx.rttvar += (abs(tx.srtt - rtt) - tx.rttvar) / 4.0
                    tx.srtt += (rtt - tx.srtt) / 8.0
            self._n_acked[0] += 1
            if seq > cum:
                self._n_sacked[0] += 1
            self._on_ack_accounting(peer)
        # The fabric is FIFO: whatever was transmitted before the
        # latest-transmitted frame this ack names, and is not named with
        # it, did not arrive.  Repair all of it now, as one loss event.
        lost = sorted(seq for seq in order[:order.index(acked[-1])]
                      if seq > cum and seq not in sacked)
        if lost:
            self._on_timeout_accounting(peer)
            for seq in lost:
                if seq not in tx.inflight:
                    break  # budget spent: the peer was declared dead
                self._retransmit(peer, tx, seq, overtaken=True)
        self._pump(peer, tx)
        if not tx.inflight and tx.timer is not None:
            self.sim.cancel(tx.timer)  # the window drained: no run ends on an idle timer
            tx.timer = None

    def _on_ack(self, packet: Packet) -> None:
        self._accept_cum_ack(packet.src, packet.payload["cum"],
                             packet.payload.get("epoch", 0),
                             sack=packet.payload.get("sack", ()))

    # -- receiver side: acks --------------------------------------------------
    # Cap on the out-of-order seqs reported per ack (keeps the modelled
    # ack size bounded).  A frame buffered beyond it looks lost to the
    # sender and comes again, a duplicate; later acks name it.
    SACK_LIMIT = 64
    _SACK_ENTRY_BYTES = 4

    def _sack_list(self, rx: _PeerRx) -> List[int]:
        return sorted(rx.out_of_order)[: self.SACK_LIMIT]

    def _take_pending_ack(self, peer: str) -> Optional[Tuple[int, int, List[int]]]:
        """Consume the ack owed to ``peer`` for piggybacking, if any."""
        rx = self._rx.get(peer)
        if rx is None or rx.ack_owed == 0:
            return None
        if rx.ack_event is not None:
            self.sim.cancel(rx.ack_event)
            rx.ack_event = None
        rx.ack_owed = 0
        return rx.expected_seq - 1, rx.epoch, self._sack_list(rx)

    def _note_ack_owed(self, src: str, rx: _PeerRx) -> None:
        rx.ack_owed += 1
        if rx.ack_owed >= self.ACK_EVERY:
            self._send_ack(src, rx, delayed=False)
        elif rx.ack_event is None:
            rx.ack_event = self.sim.schedule(self.DELAYED_ACK_US,
                                             self._on_delayed_ack, src)

    def _on_delayed_ack(self, src: str) -> None:
        rx = self._rx.get(src)
        if rx is None:
            return
        rx.ack_event = None
        if rx.ack_owed:
            self._send_ack(src, rx, delayed=True)

    def _send_ack(self, src: str, rx: _PeerRx, delayed: bool) -> None:
        if rx.ack_event is not None:
            self.sim.cancel(rx.ack_event)
            rx.ack_event = None
        rx.ack_owed = 0
        self._n_ack_tx[0] += 1
        if delayed:
            self.tracer.count("transport.ack.delayed")
        sack = self._sack_list(rx)
        self.host.send(Packet(
            kind=self.ack_kind,
            src=self.host.name,
            dst=src,
            payload={"cum": rx.expected_seq - 1, "epoch": rx.epoch,
                     "sack": sack},
            payload_bytes=_ACK_BYTES + self._SACK_ENTRY_BYTES * len(sack),
        ))

    # -- receiver side: data ---------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        src = packet.src
        payload = packet.payload
        if "ack" in payload:
            # Reverse-direction cumulative ack piggybacked on this frame.
            self._accept_cum_ack(src, payload["ack"],
                                 payload.get("ack_epoch", 0),
                                 sack=payload.get("ack_sack", ()))
        elif src in self._tx:
            self._tx[src].heard_at = self.sim.now
        rx = self._rx.get(src)
        if rx is None:
            rx = self._rx[src] = _PeerRx()
        seq = payload["seq"]
        epoch = payload.get("epoch", 0)
        if epoch > rx.epoch:
            # The sender declared us dead and restarted from seq 0 in a
            # fresh epoch; realign so the restart is not read as dups.
            rx.epoch = epoch
            rx.expected_seq = 0
            rx.out_of_order.clear()
        elif epoch < rx.epoch:
            self.tracer.count("transport.dup_data")  # straggler from a dead epoch
            return
        if seq < rx.expected_seq or seq in rx.out_of_order:
            # Duplicate: our ack was lost or still pending — re-ack
            # immediately (a retransmission already burnt; don't let the
            # delayed timer feed further ones).
            self.tracer.count("transport.dup_data")
            self._send_ack(src, rx, delayed=False)
            return
        if seq >= rx.expected_seq + self.REORDER_WINDOW:
            # Beyond the reorder window: drop *without* acking so the
            # buffer stays bounded; the sender's retransmit timer will
            # re-offer the frame once expected_seq has caught up.
            self.tracer.count("transport.rx_overflow")
            return
        rx.out_of_order[seq] = packet
        while rx.expected_seq in rx.out_of_order:
            ready = rx.out_of_order.pop(rx.expected_seq)
            rx.expected_seq += 1
            msgs = ready.payload["msgs"]
            sizes = ready.payload["nbytes"]
            self._n_delivered[0] += len(msgs)
            if self._handler is not None:
                for msg, nbytes in zip(msgs, sizes):
                    self._handler(src, msg, nbytes)
        if rx.out_of_order:
            # A hole is open: ack immediately so the SACK block that
            # names this frame (the sender's loss signal for everything
            # it sent before it) does not wait out the delayed-ack timer.
            self._send_ack(src, rx, delayed=False)
        else:
            self._note_ack_owed(src, rx)

    # -- introspection -----------------------------------------------------
    def inflight_count(self, dst: str) -> int:
        """Frames awaiting acknowledgement toward ``dst``."""
        tx = self._tx.get(dst)
        return len(tx.inflight) if tx else 0

    def backlog_count(self, dst: str) -> int:
        """Frames queued behind the window toward ``dst``."""
        tx = self._tx.get(dst)
        return len(tx.backlog) if tx else 0

    def coalescing_count(self, dst: str) -> int:
        """Messages awaiting framing toward ``dst``."""
        tx = self._tx.get(dst)
        return len(tx.coalesce) if tx else 0


class LightweightTransport(_TransportBase):
    """The paper's lightweight reliable transmission: fixed window, no
    handshake, no congestion machinery.  ``RTO_US`` is the first
    retransmission deadline and the ceiling of the measured one."""

    WINDOW = 32

    def __init__(self, host: Host):
        super().__init__(host, "lwt.data", "lwt.ack")

    def _window(self, dst: str, tx: _PeerTx) -> int:
        return self.WINDOW


class TcpLikeTransport(_TransportBase):
    """TCP-flavoured baseline: handshake + slow start + Tahoe collapse.

    Deliberately simplified (the timer, its measured deadline under the
    ``RTO_US`` ceiling and loss detection are the base class's, shared
    with the lightweight transport) — the point of E9 is the
    *structural* overheads the paper names: connection setup latency and
    windows that start from one segment and collapse to one on every
    loss event.
    """

    HANDSHAKE_SYN = "tcp.syn"
    HANDSHAKE_SYNACK = "tcp.synack"

    INITIAL_SSTHRESH = 64
    MAX_WINDOW = 256

    def __init__(self, host: Host):
        super().__init__(host, "tcp.data", "tcp.ack")
        self._cwnd: Dict[str, float] = {}
        self._ssthresh: Dict[str, int] = {}
        self._connected: Dict[str, bool] = {}
        host.on(self.HANDSHAKE_SYN, self._on_syn)
        host.on(self.HANDSHAKE_SYNACK, self._on_synack)

    # -- handshake ---------------------------------------------------------
    def _ready(self, dst: str, tx: _PeerTx) -> bool:
        state = self._connected.get(dst)
        if state is True:
            return True
        if state is None:
            self._connected[dst] = False
            self._cwnd[dst] = 1.0
            self._ssthresh[dst] = self.INITIAL_SSTHRESH
            self.tracer.count("transport.handshake")
            self._send_syn(dst)
        return False

    # Give up on a peer after this many unanswered SYNs (a dead peer
    # must not keep the event heap spinning forever).
    MAX_SYN_RETRIES = 30

    def _send_syn(self, dst: str, attempt: int = 0) -> None:
        """Transmit a SYN and keep retrying until the SYNACK arrives
        (without this, a single lost handshake packet deadlocks the
        connection forever under loss).  No data is inflight before the
        SYNACK, so the retry rides the peer's one timer."""
        tx = self._tx[dst]
        tx.timer = None
        if attempt >= self.MAX_SYN_RETRIES:
            self.tracer.count("transport.handshake_abandoned")
            # Forget the half-open state entirely: leaving it at False
            # would strand the peer forever (later sends queue into the
            # backlog but _ready never sends another SYN).  Back to
            # "unknown", the next send() restarts the handshake and the
            # queued backlog flows once it completes.
            self._connected.pop(dst, None)
            return
        self.host.send(Packet(
            kind=self.HANDSHAKE_SYN, src=self.host.name, dst=dst,
            payload_bytes=_ACK_BYTES,
        ))
        tx.timer = self.sim.schedule(self.RTO_US, self._send_syn, dst, attempt + 1)

    def _on_syn(self, packet: Packet) -> None:
        self.host.send(Packet(
            kind=self.HANDSHAKE_SYNACK, src=self.host.name, dst=packet.src,
            payload_bytes=_ACK_BYTES,
        ))

    def _on_synack(self, packet: Packet) -> None:
        dst = packet.src
        if not self._connected.get(dst):
            self._connected[dst] = True
            tx = self._tx.get(dst)
            if tx is not None:
                if tx.timer is not None:
                    self.sim.cancel(tx.timer)  # the SYN's retry
                    tx.timer = None
                self._pump(dst, tx)

    # -- congestion window -----------------------------------------------------
    def _window(self, dst: str, tx: _PeerTx) -> int:
        return max(1, int(self._cwnd.get(dst, 1.0)))

    def _on_ack_accounting(self, dst: str) -> None:
        cwnd = self._cwnd.get(dst, 1.0)
        if cwnd < self._ssthresh.get(dst, self.INITIAL_SSTHRESH):
            cwnd += 1.0  # slow start: exponential per RTT
        else:
            cwnd += 1.0 / max(cwnd, 1.0)  # congestion avoidance
        self._cwnd[dst] = min(cwnd, float(self.MAX_WINDOW))

    def _on_timeout_accounting(self, dst: str) -> None:
        cwnd = self._cwnd.get(dst, 1.0)
        self._ssthresh[dst] = max(2, int(cwnd / 2))
        self._cwnd[dst] = 1.0

    def _on_peer_dead(self, dst: str) -> None:
        # Drop the connection with the sender state: the next send()
        # performs a fresh handshake instead of talking to a corpse.
        self._connected.pop(dst, None)
        self._cwnd.pop(dst, None)
        self._ssthresh.pop(dst, None)
