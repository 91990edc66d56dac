"""End hosts: NIC ingress, handler dispatch, and send helpers.

A :class:`Host` is the network attachment point a protocol stack (the
discovery schemes, the memory protocol, the RPC baseline) registers its
handlers on.  It mirrors the Twizzler NIC driver of §4 at the level the
experiments need: per-kind dispatch, duplicate-broadcast suppression,
egress via the host's uplink, and the one request/reply exchange every
protocol above shares (:meth:`Host.request` / :meth:`Host.complete`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..sim import Simulator, Store, Tracer
from ..sim.loop import Waitable
from .node import Node, NodeError
from .packet import BROADCAST, Packet

__all__ = ["Host", "PacketHandler", "MTU_BYTES"]

PacketHandler = Callable[[Packet], None]

#: Maximum total wire size of one packet a host NIC emits.  Protocols
#: that coalesce small messages into frames (the memproto transports)
#: bound their frames so HEADER_BYTES + payload stays within this.
MTU_BYTES = 1500

_DEDUPE_WINDOW = 4096


class _Reply(Waitable):
    """What :meth:`Host.request` returns: resumes the one process that
    yields it with the reply packet, or ``None`` once the deadline passes."""

    __slots__ = ("process", "timer", "sends")

    def __init__(self) -> None:
        self.process = None
        self.timer: Optional[list] = None
        self.sends = 1  # times the request went out

    def _subscribe(self, sim: Simulator, process) -> None:
        self.process = process


class Host(Node):
    """A host with one (or more) uplinks and a kind-dispatched ingress.

    **The exchange.**  ``reply = yield host.request(packet, timeout_us)``
    sends ``packet`` and waits for the packet that answers it; the reply
    kind is registered once with ``host.on(KIND_X_RSP, host.complete)``
    and the server echoes the request's ``req_id`` (:meth:`Packet.reply`
    does).  A caller may rely on: at most one completion per request;
    ``None`` at the last deadline, with nothing left in the host's table;
    a reply that arrives late, twice, or from a second answerer is
    dropped; ``timeout_us=None`` waits for as long as the grant takes.
    Nothing is promised about the order in which different requests
    complete.  The waitable must be yielded at once, by one process.
    With ``attempts`` it is resent at each deadline but the last, under
    one ``req_id``: only idempotent kinds may pass more than one, and a
    retry that goes elsewhere stays the caller's.

    Out of scope: ``memproto/coherence.py``, whose waits take a grant and
    acks from several hosts (it keeps its own table, with its own
    deadline), and the credit future in ``pubsub/bus.py``.
    """

    def __init__(self, sim: Simulator, name: str, tracer: Optional[Tracer] = None):
        super().__init__(sim, name, tracer)
        # Counter cells of the per-packet path (see Tracer).
        self._n_tx = self.tracer.cell("host.tx")
        self._n_tx_bytes = self.tracer.cell("host.tx_bytes")
        self._n_tx_broadcast = self.tracer.cell("host.tx_broadcast")
        self._n_rx = self.tracer.cell("host.rx")
        self._n_rx_bytes = self.tracer.cell("host.rx_bytes")
        self._n_promiscuous_rx = self.tracer.cell("host.promiscuous_rx")
        self._handlers: Dict[str, PacketHandler] = {}
        # Outstanding requests by correlation id: the one table behind
        # request()/complete().  Empty whenever the host is quiescent.
        self._requests: Dict[int, _Reply] = {}
        self._default_handler: Optional[PacketHandler] = None
        self._seen_broadcasts: "OrderedDict[int, None]" = OrderedDict()
        self.failed = False
        # Partition state: my group id plus the shared host->group map
        # (installed by Network.set_partition; None = no partition).
        self.partition_group: Optional[int] = None
        self._partition_map: Optional[Dict[str, int]] = None
        # Promiscuous hosts (overlay gateways) also receive unicast
        # traffic addressed to *other* hosts instead of filtering it.
        self.promiscuous = False
        # Default egress traffic class: stamped on every packet this
        # host sends that carries no explicit class of its own — the
        # per-tenant override hook for WRR egress arbitration (a tenant
        # pinned to this host gets all its traffic classed together).
        self.default_tclass: Optional[str] = None
        # Packets with no registered handler land here, so tests can
        # drain them and nothing is silently lost.
        self.unhandled: Store = Store(sim, name=f"{name}.unhandled")

    # -- failure injection -----------------------------------------------
    def fail(self) -> None:
        """Crash the host: it silently drops all traffic until recovery.

        Partial failure is the §5 'foremost' challenge; tests inject it
        here to exercise timeout/retry/failover paths above.
        """
        self.failed = True

    def recover(self) -> None:
        """Bring the host back (protocol state above survives as-is)."""
        self.failed = False

    def set_partition(self, group: int, host_groups: Dict[str, int]) -> None:
        """Join partition ``group``; ``host_groups`` is the cluster-wide
        host->group map (shared, so one dict serves every host).

        While partitioned, ingress drops packets whose source sits in a
        *different* group; sources in no group stay reachable.  Used by
        :meth:`Network.set_partition` — tests usually go through that.
        """
        self.partition_group = group
        self._partition_map = host_groups

    def clear_partition(self) -> None:
        """Leave any partition: all traffic flows again."""
        self.partition_group = None
        self._partition_map = None

    def _partitioned_from(self, src: Optional[str]) -> bool:
        """True when ``src`` sits across the current partition."""
        if self.partition_group is None or src is None:
            return False
        src_group = self._partition_map.get(src)
        return src_group is not None and src_group != self.partition_group

    # -- handler registration ------------------------------------------------
    def on(self, kind: str, handler: PacketHandler) -> None:
        """Register the handler for packets of ``kind``; one per kind."""
        if kind in self._handlers:
            raise NodeError(f"{self.name}: handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def set_default_handler(self, handler: PacketHandler) -> None:
        """Handler for packets whose kind has no specific registration
        (gateways forward arbitrary kinds without enumerating them)."""
        self._default_handler = handler

    # -- egress -----------------------------------------------------------
    def send(self, packet: Packet, port: int = 0) -> None:
        """Transmit ``packet`` out of ``port`` (hosts usually have one)."""
        if self.failed:
            self.tracer.count("host.dropped_while_failed")
            return
        ends = self._tx_ends
        if not ends:
            raise NodeError(f"{self.name}: not attached to any link")
        # Stamp only genuinely unset fields: a packet legitimately
        # created at sim time 0.0 (or carrying an empty-string src) must
        # keep its own stamp, or latency attribution at t=0 corrupts.
        if packet.src is None:
            packet.src = self.name
        if packet.created_at is None:
            packet.created_at = self.sim.now
        if packet.tclass is None and self.default_tclass is not None:
            packet.tclass = self.default_tclass
        self._n_tx[0] += 1
        self._n_tx_bytes[0] += packet.size_bytes
        if packet.dst == BROADCAST:
            self._n_tx_broadcast[0] += 1
        # Node.send_on_port, written out (the packet path's call budget).
        if not 0 <= port < len(ends):
            raise NodeError(f"{self.name}: no port {port} (have {len(ends)})")
        ends[port].transmit(packet)

    def broadcast(self, kind: str, payload_bytes: int = 0) -> Packet:
        """Build and send a broadcast packet; returns it (for its UID)."""
        packet = Packet(
            kind=kind,
            src=self.name,
            dst=BROADCAST,
            oid=None,
            payload={},
            payload_bytes=payload_bytes,
            created_at=self.sim.now,
        )
        self.send(packet)
        return packet

    # -- request/reply -------------------------------------------------------
    def request(self, packet: Packet, timeout_us: Optional[float] = None,
                attempts: int = 1) -> Waitable:
        """Send ``packet`` as a request; yield the result for its reply.

        The correlation id is the packet's own ``uid``, stamped into the
        payload as ``req_id``: unique across hosts, so a relay (a load
        balancer, a forwarding object home) can pass it through or key
        on it.  The deadline timer is armed after the send.  A resend is a
        fresh packet (a new ``uid`` for broadcast dedupe, a new
        ``created_at``); ``disc.find``, ``obj.access_req`` and
        ``ctl.advertise`` are the idempotent kinds that pass ``attempts``.
        """
        req_id = packet.payload["req_id"] = packet.uid
        waiter = self._requests[req_id] = _Reply()
        self.send(packet)
        if timeout_us is not None:
            waiter.timer = self.sim.schedule(
                timeout_us, self._expire, packet, timeout_us, attempts)
        return waiter

    def _expire(self, packet: Packet, timeout_us: float, attempts: int) -> None:
        req_id = packet.payload["req_id"]
        waiter = self._requests[req_id]
        if waiter.sends >= attempts:
            del self._requests[req_id]
            return waiter.process._resume(None)
        waiter.sends += 1
        packet = Packet(packet.kind, packet.src, packet.dst, packet.oid,
                        dict(packet.payload), packet.payload_bytes,
                        tclass=packet.tclass)
        self.send(packet)
        waiter.timer = self.sim.schedule(
            timeout_us, self._expire, packet, timeout_us, attempts)

    def complete(self, packet: Packet) -> None:
        """Handler for reply kinds: resume the request ``packet`` answers
        (one zero-delay event later), or drop it if none is waiting."""
        waiter = self._requests.pop(packet.payload["req_id"], None)
        if waiter is None:
            return
        if waiter.timer is not None:
            self.sim.cancel(waiter.timer)
        self.sim.schedule(0.0, waiter.process._resume, packet)

    @property
    def outstanding_requests(self) -> int:
        """Requests sent and neither answered nor timed out yet."""
        return len(self._requests)

    # -- ingress -----------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """Ingress entry point: dispatch one arriving packet."""
        if self.failed:
            self.tracer.count("host.dropped_while_failed")
            return
        if self.partition_group is not None and self._partitioned_from(packet.src):
            self.tracer.count("host.dropped_partitioned")
            return
        self._n_rx[0] += 1
        self._n_rx_bytes[0] += packet.size_bytes
        dst = packet.dst
        if dst == BROADCAST:
            if packet.src == self.name:
                return  # our own broadcast echoed back through a loop
            if packet.uid in self._seen_broadcasts:
                return
            self._seen_broadcasts[packet.uid] = None
            if len(self._seen_broadcasts) > _DEDUPE_WINDOW:
                self._seen_broadcasts.popitem(last=False)
        elif dst is not None and dst != self.name:
            if not self.promiscuous:
                # Flooded unknown-unicast for someone else: NIC filter
                # drops it.
                self.tracer.count("host.filtered")
                return
            self._n_promiscuous_rx[0] += 1
        handler = self._handlers.get(packet.kind)
        if handler is not None:
            handler(packet)
        elif self._default_handler is not None:
            self._default_handler(packet)
        else:
            self.tracer.count("host.unhandled")
            self.unhandled.put_nowait(packet)
