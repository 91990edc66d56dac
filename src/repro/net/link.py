"""Point-to-point links with bandwidth, propagation delay, and loss.

A :class:`Link` joins two node ports.  Each direction is an independent
FIFO: store-and-forward with transmission time ``size / bandwidth`` plus
fixed propagation latency, matching how the emulated Mininet links in §4
behave.  Optional random loss exercises the reliable-transport layer
(experiment E9).

Egress is FIFO by default.  :meth:`Link.set_egress_weights` replaces the
single implicit queue with **per-traffic-class virtual queues** drained
by a deficit-counter weighted-round-robin arbiter (DRR): each class in
round-robin order earns ``quantum × weight`` bytes of credit per visit
and transmits while its head-of-line packet fits the accumulated credit.
The deficit counter carries across rounds, so a class whose frames are
larger than one quantum still receives its configured byte share —
large frames delay, but cannot starve, the other classes.  Unconfigured
links take the original busy-until fast path untouched, so existing
scenarios stay byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ..sim import Simulator, Tracer
from .packet import traffic_class

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node
    from .packet import Packet
    from .topology import Network

__all__ = ["Link", "LinkEnd", "DEFAULT_BANDWIDTH_GBPS", "DEFAULT_LATENCY_US"]

DEFAULT_BANDWIDTH_GBPS = 10.0
DEFAULT_LATENCY_US = 5.0


class _WrrArbiter:
    """Per-direction DRR state: virtual queues + deficit counters.

    ``active`` holds the round-robin ring — exactly the classes whose
    queues are non-empty, in arrival order of their activation.  A class
    leaving the ring (queue drained) forfeits its remaining deficit, the
    standard DRR rule that stops an idle class from hoarding credit.
    """

    __slots__ = ("weights", "quantum", "queues", "active", "deficit",
                 "fresh", "sending")

    def __init__(self, weights: Dict[str, int], quantum: int):
        self.weights = dict(weights)
        self.quantum = quantum
        self.queues: Dict[str, Deque["Packet"]] = {}
        self.active: Deque[str] = deque()
        self.deficit: Dict[str, float] = {}
        # True while the head class has not yet earned this visit's
        # quantum (set on every head change / new round-robin visit).
        self.fresh = True
        self.sending = False

    def enqueue(self, packet: "Packet") -> str:
        cls = traffic_class(packet)
        queue = self.queues.get(cls)
        if queue is None:
            queue = self.queues[cls] = deque()
        if not queue:
            self.active.append(cls)
            self.deficit[cls] = 0.0
        queue.append(packet)
        return cls

    def next_packet(self) -> Optional["Packet"]:
        active = self.active
        while active:
            cls = active[0]
            queue = self.queues[cls]
            if self.fresh:
                self.deficit[cls] += self.quantum * self.weights.get(cls, 1)
                self.fresh = False
            if queue[0].size_bytes <= self.deficit[cls]:
                packet = queue.popleft()
                self.deficit[cls] -= packet.size_bytes
                if not queue:
                    active.popleft()
                    self.deficit[cls] = 0.0
                    self.fresh = True
                return packet
            # Head frame still larger than the accumulated credit: the
            # deficit carries to the next round, move to the next class.
            active.rotate(-1)
            self.fresh = True
        return None


class LinkEnd:
    """One directed half of a link: ``node`` transmits into it and the
    packet emerges at ``peer`` after queueing + transmission + latency.

    The wire is a *busy-until* horizon, not a queue-draining pump: the
    instant a packet's last bit leaves is known when it is enqueued.  On
    a FIFO end of a link that is loss-free and up, so is its arrival, and
    the whole traversal is **one** kernel event, ``_arrive`` at
    ``last_bit + latency_us``.  No event marks the last bit, so the
    kernel's pending ``_arrive`` events are the record of what is on the
    wire: ``bytes_carried`` and ``packets_carried`` count those whose
    last bit has left by ``sim.now`` (one heap scan per read: for tests
    and end-of-run accounting, not the packet path).

    Loss, ``failed`` and ``latency_us`` are *sampled when the last bit
    leaves*.  A link that is lossy or down at ``transmit``, and every
    WRR pick (the arbiter needs the freed wire), takes two events,
    ``_tx_done`` then ``_deliver``.  Setting one of the three on the
    :class:`Link` hands the packets still serialising back to
    ``_tx_done`` (:meth:`_unmerge`), so an outage or a loss burst that
    starts mid-packet is seen there, with the RNG draws in the order
    two events per packet would have made them.  A last bit that leaves
    at the very instant of the change counts as still serialising.
    Among events of one float instant an arrival ranks by its
    ``transmit`` call, where ``_deliver`` ranked by the last-bit instant.
    """

    __slots__ = ("link", "node", "peer", "port", "_bytes_carried",
                 "_packets_carried", "_busy_until", "_in_flight", "_arb")

    def __init__(self, link: "Link", node: "Node", peer: "Node", port: int):
        self.link = link
        self.node = node
        self.peer = peer
        self.port = port  # port index on the *receiving* node
        self._bytes_carried = 0
        self._packets_carried = 0
        self._busy_until = 0.0
        self._in_flight = 0  # accepted, with a last-bit event still to come
        self._arb: Optional[_WrrArbiter] = None

    def _last_bit(self, packet: "Packet", now: float) -> float:
        """Serialise ``packet`` behind whatever occupies the wire; the
        instant its last bit leaves, as ``schedule(done - now)`` rounds it."""
        start = self._busy_until
        if start < now:
            start = now
        done = start + packet.size_bytes / self.link._bytes_per_us
        self._busy_until = done
        return now + (done - now)

    def transmit(self, packet: "Packet", ready: Optional[float] = None) -> None:
        """Enqueue for transmission (never blocks the sender).

        ``ready`` is the instant the packet reaches the wire, ``sim.now``
        when omitted.  A switch that forwards at ingress passes the end
        of its pipeline delay, and ``ready`` then stands in for ``now``
        in the busy-until arithmetic, so the events scheduled here are
        those a transmit at ``ready`` would schedule.  It is for a FIFO
        end: an arbitrated end queues the packet at ``sim.now``.
        """
        link = self.link
        arb = self._arb
        if arb is not None:
            self._in_flight += 1
            arb.enqueue(packet)
            if link.tracer is not None:
                link.tracer.count("switch.wrr.enqueued")
            if not arb.sending:
                self._wrr_start_next()
            return
        sim = link.sim
        now = sim.now if ready is None else ready
        # _last_bit, written out: the one call per packet worth saving.
        start = self._busy_until
        if start < now:
            start = now
        done = start + packet.size_bytes / link._bytes_per_us
        self._busy_until = done
        last_bit = now + (done - now)
        if link.loss_rate > 0.0 or link.failed:
            self._in_flight += 1
            sim.schedule_at(last_bit, self._tx_done, packet)
        else:
            sim.schedule_at(last_bit + link.latency_us, self._arrive, packet,
                            last_bit)

    def _arrive(self, packet: "Packet", last_bit: float) -> None:
        """One-event traversal: the last-bit accounts, then delivery.
        ``last_bit`` rides in the event for ``_on_wire`` and ``_unmerge``."""
        self._bytes_carried += packet.size_bytes
        self._packets_carried += 1
        packet.hops += 1
        self.peer.receive(packet, self.port)

    def _on_wire(self) -> List["Packet"]:
        """One-event packets yet to arrive whose last bit has left the
        wire."""
        sim = self.link.sim
        return [entry[3][0] for entry in sim.pending(self._arrive)
                if entry[3][1] <= sim.now]

    def _unmerge(self) -> None:
        """Give the one-event packets still serialising their last-bit
        event back, in the same-instant rank it would have had."""
        sim = self.link.sim
        for entry in sim.pending(self._arrive):
            packet, last_bit = entry[3]
            if last_bit >= sim.now:
                self._in_flight += 1
                sim.reschedule(entry, last_bit, self._tx_done, packet)

    def _tx_done(self, packet: "Packet") -> None:
        """The last bit has left the wire: account, maybe drop, propagate."""
        self._in_flight -= 1
        self._bytes_carried += packet.size_bytes
        self._packets_carried += 1
        link = self.link
        if link._drop(packet):
            return
        # Propagation happens after the last bit leaves the wire.
        link.sim.schedule(link.latency_us, self._deliver, packet)

    # -- weighted-round-robin egress ---------------------------------------
    def _wrr_start_next(self) -> None:
        """Put the arbiter's next pick on the wire (if any)."""
        arb = self._arb
        assert arb is not None
        packet = arb.next_packet()
        if packet is None:
            return
        arb.sending = True
        sim = self.link.sim
        # Serialize behind whatever already occupies the wire (a FIFO
        # packet accepted before arbitration was enabled, or a frame the
        # previous arbiter put in flight before a reconfigure).  In the
        # steady state the arbiter restarts exactly at the busy horizon,
        # so this is the original schedule.
        sim.schedule_at(self._last_bit(packet, sim.now), self._wrr_tx_done,
                        packet, arb)

    def _wrr_tx_done(self, packet: "Packet", arb: _WrrArbiter) -> None:
        # ``arb`` is the arbiter that scheduled this transmission — it
        # may no longer be installed (reconfigured mid-flight), so the
        # completion must not restart it; only the *current* discipline
        # gets the freed wire.
        self._in_flight -= 1
        self._bytes_carried += packet.size_bytes
        self._packets_carried += 1
        link = self.link
        if link.tracer is not None:
            link.tracer.count(f"switch.wrr.tx.{traffic_class(packet)}")
        arb.sending = False
        current = self._arb
        if current is not None and not current.sending:
            # The wire is free: start the next arbitration pick before
            # this packet's propagation, exactly like the FIFO model.
            self._wrr_start_next()
        if link._drop(packet):
            return
        link.sim.schedule(link.latency_us, self._deliver, packet)

    def set_arbiter(self, arb: Optional[_WrrArbiter]) -> None:
        """Install (or, with ``None``, remove) the egress arbiter,
        draining any packets still queued in the old discipline into the
        new one — queued packets are never orphaned and ``_in_flight``
        accounting stays balanced across reconfiguration."""
        old = self._arb
        self._arb = arb
        if old is None:
            return
        sim = self.link.sim
        drained = 0
        while True:
            packet = old.next_packet()
            if packet is None:
                break
            drained += 1
            if arb is not None:
                arb.enqueue(packet)
            else:
                # FIFO again; its ``_in_flight`` slot is already counted.
                sim.schedule_at(self._last_bit(packet, sim.now),
                                self._tx_done, packet)
        if drained and self.link.tracer is not None:
            self.link.tracer.count("switch.wrr.drained", drained)
        if arb is not None and not arb.sending and arb.active:
            self._wrr_start_next()

    def _deliver(self, packet: "Packet") -> None:
        packet.hops += 1
        self.peer.receive(packet, self.port)

    @property
    def bytes_carried(self) -> int:
        """Bytes whose last bit has left the wire."""
        return self._bytes_carried + sum(
            packet.size_bytes for packet in self._on_wire())

    @property
    def packets_carried(self) -> int:
        """Packets whose last bit has left the wire."""
        return self._packets_carried + len(self._on_wire())


class Link:
    """A full-duplex link between two nodes.

    Construction wires both directions and registers a port on each
    node.  ``loss_rate`` drops packets independently per transmission
    using the simulator's seeded RNG (deterministic across runs).
    ``latency_us``, ``loss_rate`` and ``failed`` may change on a live
    link; ``bandwidth_gbps`` is fixed when it is built (assigning it
    raises ``AttributeError``).
    """

    # The Network that connected this link, told when its latency changes.
    network: Optional["Network"] = None
    # WRR credit per unit weight per round: one MTU, so a weight-1 class
    # earns one full-size frame each time the arbiter visits it.
    WRR_QUANTUM_BYTES = 1500

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
        latency_us: float = DEFAULT_LATENCY_US,
        loss_rate: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_us = latency_us
        self.loss_rate = loss_rate
        self.failed = False
        self.tracer = tracer
        # Serialization rate, precomputed once: Gbit/s -> bytes/us.
        self._bytes_per_us = bandwidth_gbps * 1e9 / 8 / 1e6
        port_on_b = b.attach(self)
        port_on_a = a.attach(self)
        self.end_ab = LinkEnd(self, a, b, port_on_b)
        self.end_ba = LinkEnd(self, b, a, port_on_a)
        # Fill the per-port egress slots attach() reserved: node X
        # transmitting on this link uses the end that delivers to its peer.
        a._tx_ends[port_on_a] = self.end_ab
        b._tx_ends[port_on_b] = self.end_ba
        self.a = a
        self.b = b

    def __setattr__(self, name: str, value: object) -> None:
        if name == "bandwidth_gbps" and name in self.__dict__:
            # The wire rate and every path's bottleneck are computed
            # from it once; latency_us is what a live link may change.
            raise AttributeError(
                "a link's bandwidth_gbps is fixed when it is built; "
                "latency_us is the setting a live link can change")
        object.__setattr__(self, name, value)
        # Sampled when a packet's last bit leaves: the packets still
        # serialising must see the new value there (LinkEnd._unmerge).
        if name in ("loss_rate", "failed", "latency_us") and hasattr(self, "end_ba"):
            self.end_ab._unmerge()
            self.end_ba._unmerge()
            # A path's latency sums its links': every path answer the
            # network holds may now be stale.
            if name == "latency_us" and self.network is not None:
                self.network._topology_changed()

    def set_egress_weights(self, weights: Optional[Dict[str, int]]) -> None:
        """Enable (or, with ``None``, disable) weighted-round-robin
        egress arbitration on both directions of this link.

        ``weights`` maps traffic-class names (``coherence``/``transport``/
        ``pubsub`` or any per-tenant override stamped via
        ``Packet.tclass``) to integer weights; classes not listed get
        weight 1.  Each class earns ``WRR_QUANTUM_BYTES × weight`` of
        credit per round-robin visit.  Packets already accepted by the
        FIFO path complete on their original schedule.  Reconfiguring
        mid-burst is safe: packets still queued in the old discipline
        are drained into the new one (or FIFO-scheduled when disabling),
        and a frame the old arbiter already put on the wire completes
        without restarting the retired arbiter.
        """
        if weights is None:
            self.end_ab.set_arbiter(None)
            self.end_ba.set_arbiter(None)
            return
        for cls, weight in weights.items():
            if weight < 1:
                raise ValueError(f"weight for class {cls!r} must be >= 1")
        self.end_ab.set_arbiter(_WrrArbiter(weights, self.WRR_QUANTUM_BYTES))
        self.end_ba.set_arbiter(_WrrArbiter(weights, self.WRR_QUANTUM_BYTES))

    @property
    def bytes_carried(self) -> int:
        """Total bytes transmitted across both directions."""
        return self.end_ab.bytes_carried + self.end_ba.bytes_carried

    def other(self, node: "Node") -> "Node":
        """The opposite endpoint of this link."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"node {node.name!r} is not an endpoint of this link")

    # -- failure injection -------------------------------------------------
    def fail(self) -> None:
        """Cut the link: both directions drop everything until recovery.

        Queued transmissions still on the wire are lost too — their
        completion events fire but :meth:`_drop` eats the packet.
        """
        self.failed = True

    def recover(self) -> None:
        """Restore the link (traffic flows again at the old parameters)."""
        self.failed = False

    def _drop(self, packet: "Packet") -> bool:
        if self.failed or (
                self.loss_rate > 0.0 and self.sim.rng.random() < self.loss_rate):
            if self.tracer is not None:
                self.tracer.count("link.dropped")
                self.tracer.event("drop")
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<Link {self.a.name}<->{self.b.name} {self.bandwidth_gbps}Gbps "
            f"{self.latency_us}us loss={self.loss_rate}>"
        )
