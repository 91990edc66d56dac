"""Programmable switches: learning L2 forwarding plus identity routing.

Each switch runs a two-stage pipeline, mirroring the P4 program of §4:

1. **Host table** — learned like an L2 switch: the ingress port of every
   packet teaches the switch where the source host lives.  Unicast to a
   known host forwards on one port; unknown unicast and broadcast flood.
2. **Identity table** — an exact-match :class:`MatchActionTable` keyed by
   128-bit object IDs, populated by the SDN controller scheme.  Identity-
   routed packets (no host destination) are forwarded by object ID; a
   miss floods, or is punted to a callback (how an overlay gateway
   resolves it), letting experiments explore the §4 "network absorbs
   the cost" idea.

**The pipeline delay.**  A packet spends ``PROCESSING_DELAY_US``
(0.5 us) between ingress and egress;
``Network.path`` adds it to a route's latency for every switch on the
route.  In general that wait is a kernel
event of its own, ``_forward``, which reads the tables when the delay
ends.  A known unicast to a host on one of this switch's ports is
forwarded at ingress instead: ``LinkEnd.transmit(packet, ready)`` is
handed the instant the delay ends, so the wire arithmetic and the
arrival instant are those ``_forward`` would produce, and crossing a
star is two kernel events (one per link) instead of three.  The switch
folds only when that is exact, which it can tell at ingress:

1. ``packet.ttl > 0``; otherwise ``_forward`` counts it expired.
2. ``dst`` is in the host table and that port's far end is the host
   ``dst`` itself.  A host's packets reach its own switch first over its
   own link (copies coming back through a loop are suppressed before
   they can teach), so no learning inside the delay can re-point the
   entry.  A switch's packets (service replies) can arrive first over a
   longer path, and a relay (an overlay gateway sends with the inner
   source) teaches entries for names not its own, which a second relay
   can re-point; both keep the event.
3. No ``_forward`` is pending at this switch.  Every other transmission
   the switch makes (floods, identity multicast, service replies, punts)
   comes from a ``_forward``; with none pending, each one made inside
   the delay belongs to a later ingress, so every egress still sees its
   transmissions in pipeline order.
4. The egress end is FIFO: an arbitrated end must get the packet at the
   instant the delay ends, when the arbiter picks among what it holds.

What can still differ is the same-instant rank of the link event the
egress transmit schedules (the arrival, or on a lossy link the last
bit, where the loss is drawn).  Its sequence number is drawn at ingress
instead of when the delay ends, so it now runs before an event of the
same float instant scheduled inside the delay; two loss draws of one
instant can swap.  What looks at the wire inside the delay differs
too: weights set inside the delay find a folded packet already on the
FIFO wire.

Flooding in the looped 4-switch topology is made safe by per-switch
duplicate suppression (each switch forwards a given packet UID at most
once) plus TTL decrement — a stand-in for a spanning tree.

Duplicate suppression keeps **two** bounded windows: one for
flood-capable traffic (broadcast, unknown unicast, identity-routed,
service requests — anything whose copies can loop back), and a separate
one for packets forwarded by exact host-table match, which follow
BFS-tree parent pointers and cannot loop.  Segregating them means heavy
known-unicast load can never evict live flood UIDs and re-arm a
forwarding loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from ..core.objectid import ObjectID
from ..sim import Simulator, Tracer
from .node import Node
from .packet import BROADCAST, Packet
from .pipeline import MatchActionTable, TOFINO_SRAM

__all__ = ["Switch", "MISS_FLOOD", "MISS_PUNT"]

MISS_FLOOD = "flood"
MISS_PUNT = "punt"

_DEDUPE_WINDOW = 4096


class Switch(Node):
    """A store-and-forward switch with the two-table pipeline above.

    A known unicast to a directly attached host leaves at ingress, with
    the pipeline delay folded into its egress transmit, whenever the
    four conditions in the module docstring hold; every other packet
    waits out the delay in a ``_forward`` event.
    """

    # Ingress-to-egress pipeline delay.  Every route's latency includes
    # it once per switch, read when ``Network.path`` routes; a fixed
    # constant, so a path answer priced with it stays true.
    PROCESSING_DELAY_US = 0.5

    def __init__(
        self,
        sim: Simulator,
        name: str,
        identity_capacity: Optional[int] = None,
        miss_behavior: str = MISS_FLOOD,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(sim, name, tracer)
        # Counter cells of the per-packet path (see Tracer).
        self._n_rx = self.tracer.cell("switch.rx")
        self._n_tx = self.tracer.cell("switch.tx")
        if miss_behavior not in (MISS_FLOOD, MISS_PUNT):
            raise ValueError(f"unknown miss behavior {miss_behavior!r}")
        self.miss_behavior = miss_behavior
        self.host_table: dict = {}
        self.identity_table: MatchActionTable[ObjectID] = MatchActionTable(
            f"{name}.identity",
            key_bits=128,
            sram=TOFINO_SRAM,
            capacity_override=identity_capacity,
        )
        # Flood-capable packets (their copies can loop back to us).
        self._seen_broadcasts: "OrderedDict[int, None]" = OrderedDict()
        # Exact host-table forwards (loop-free; kept apart so unicast
        # churn cannot evict live flood UIDs from the window above).
        self._seen_unicast: "OrderedDict[int, None]" = OrderedDict()
        self._punt_handler: Optional[Callable[[Packet, int], None]] = None
        # Data-plane services (§5: offloading synchronization to the
        # programmable network): packets addressed to this switch's own
        # name are consumed by the handler registered for their kind.
        self._services: dict = {}
        # Packets between ingress and a pending _forward (the fold's
        # third condition).
        self._in_pipeline = 0

    # -- control plane -----------------------------------------------------
    def install_identity_route(self, oid: ObjectID, port) -> bool:
        """Controller API: forward packets for ``oid`` out of ``port``
        (an egress port index, or a tuple of them for multicast groups).

        Returns False (and counts the failure) when the table is full —
        the hardware constraint E12 exercises.
        """
        ports = port if isinstance(port, tuple) else (port,)
        for p in ports:
            if not 0 <= p < self.port_count:
                raise ValueError(f"{self.name}: no port {p}")
        installed = self.identity_table.try_install(oid, port)
        if not installed:
            self.tracer.count("switch.table_full")
        return installed

    def remove_identity_route(self, oid: ObjectID) -> bool:
        """Delete the identity entry; True if present."""
        return self.identity_table.remove(oid)

    def set_punt_handler(self, handler: Callable[[Packet, int], None]) -> None:
        """Handler invoked for identity misses under MISS_PUNT."""
        self._punt_handler = handler

    def register_service(self, kind: str, handler: Callable[[Packet], None]) -> None:
        """Install a data-plane service: packets of ``kind`` addressed to
        this switch (``dst == switch name``) are consumed by ``handler``
        after the pipeline's processing delay — the modelled equivalent
        of a P4 register/stateful-ALU program."""
        if kind in self._services:
            raise ValueError(f"{self.name}: service for {kind!r} already registered")
        self._services[kind] = handler

    def send_from_service(self, packet: Packet) -> None:
        """Transmit a service-originated reply: forwarded like ordinary
        ingress traffic (host table first, flood as a last resort)."""
        port = self.host_table.get(packet.dst)
        if port is not None:
            self._n_tx[0] += 1
            self.send_on_port(port, packet)
        else:
            # Register our own flood before emitting it: in a looped
            # fabric a copy comes back, and without the entry we would
            # re-flood our own reply once per loop transit.
            window = self._seen_broadcasts
            window[packet.uid] = None
            if len(window) > _DEDUPE_WINDOW:
                window.popitem(last=False)
            self.tracer.count("switch.unknown_unicast")
            self._flood_once(packet, in_port=-1)

    # -- data plane ----------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """Ingress entry point: dispatch one arriving packet."""
        self._n_rx[0] += 1
        # Duplicate suppression FIRST, then learning: in a looped fabric,
        # flood copies of one packet arrive on several ports, and only the
        # first (which came via the shortest path) may teach the host
        # table.  Learning from later copies would install ports that
        # point back into the loop.  The first-copy rule makes every
        # learned entry a BFS-tree parent pointer toward the source, so
        # unicast replies can never loop.
        uid = packet.uid
        if uid in self._seen_broadcasts or uid in self._seen_unicast:
            self.tracer.count("switch.dup_suppressed")
            return
        # Packets we will forward by exact host-table match follow the
        # learned BFS tree and cannot loop; keeping them out of the
        # flood window stops heavy unicast from evicting live flood
        # UIDs (which would re-arm forwarding loops).
        dst = packet.dst
        host_table = self.host_table
        known = (dst is not None and dst != BROADCAST and dst != self.name
                 and dst in host_table)
        window = self._seen_unicast if known else self._seen_broadcasts
        # Written out, not a helper call (the packet path's call budget).
        window[uid] = None
        if len(window) > _DEDUPE_WINDOW:
            window.popitem(last=False)
        if packet.src:
            host_table[packet.src] = in_port
        if known and packet.ttl > 0 and not self._in_pipeline:
            # The fold (module docstring): what _forward would do after
            # the delay, done now with the wire arithmetic at its instant.
            port = host_table[dst]
            end = self._tx_ends[port]
            peer = end.peer
            if (peer.name == dst and port != in_port and end._arb is None
                    and not isinstance(peer, Switch)):
                packet.ttl -= 1
                self._n_tx[0] += 1
                end.transmit(packet, self.sim.now + self.PROCESSING_DELAY_US)
                return
        self._in_pipeline += 1
        self.sim.schedule(self.PROCESSING_DELAY_US, self._forward, packet, in_port)

    def _forward(self, packet: Packet, in_port: int) -> None:
        self._in_pipeline -= 1
        if packet.ttl <= 0:
            self.tracer.count("switch.ttl_expired")
            return
        packet.ttl -= 1
        dst = packet.dst
        if dst == BROADCAST:
            self._flood_once(packet, in_port)
            return
        if dst == self.name:
            # Addressed to this switch: a data-plane service request.
            handler = self._services.get(packet.kind)
            if handler is not None:
                self.tracer.count("switch.service")
                handler(packet)
            else:
                self.tracer.count("switch.service_unknown")
            return
        if dst is None and packet.oid is not None:  # identity-routed
            self._forward_by_identity(packet, in_port)
            return
        port = self.host_table.get(dst)
        if port is None:
            # Unknown unicast: flood, like a learning switch.
            self.tracer.count("switch.unknown_unicast")
            self._flood_once(packet, in_port)
        elif port == in_port:
            self.tracer.count("switch.hairpin_drop")
        else:
            self._n_tx[0] += 1
            # A learned port is a real one: no send_on_port range check.
            self._tx_ends[port].transmit(packet)

    def _forward_by_identity(self, packet: Packet, in_port: int) -> None:
        assert packet.oid is not None
        action = self.identity_table.lookup(packet.oid)
        if action is not None:
            # The action is one egress port, or a tuple of ports for
            # multicast groups (packet subscriptions fan-out).
            ports = action if isinstance(action, tuple) else (action,)
            forwarded = False
            for port in ports:
                if port == in_port:
                    continue
                self.tracer.count("switch.tx_identity")
                self.send_on_port(port, packet.clone_for_flood() if len(ports) > 1 else packet)
                forwarded = True
            if not forwarded:
                self.tracer.count("switch.hairpin_drop")
            return
        if self.miss_behavior == MISS_FLOOD:
            self._flood_once(packet, in_port)
        elif self.miss_behavior == MISS_PUNT and self._punt_handler is not None:
            self._punt_handler(packet, in_port)
        else:
            self.tracer.count("switch.identity_drop")

    def _flood_once(self, packet: Packet, in_port: int) -> None:
        """Forward to all ports except ingress (duplicate copies were
        already dropped at :meth:`receive`)."""
        for port in range(self.port_count):
            if port != in_port:
                self.tracer.count("switch.flooded")
                self.send_on_port(port, packet.clone_for_flood())
