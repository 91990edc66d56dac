"""Common machinery for object discovery: message kinds, the per-host
object home (server side), access accounting, and object movement.

§4 frames the experiments as *discovery*: "how the network learns the
location of objects."  Both schemes share the server side implemented
here — a host that owns objects and answers access requests — and differ
only in how a requester resolves an object ID to a path:

* :mod:`repro.discovery.e2e` — decentralized, ARP-like destination
  caches filled by broadcast;
* :mod:`repro.discovery.controller` — an SDN controller installing
  identity routes in switch tables.

Accesses read one cache line (64 B) from the target object, matching the
"memory message" granularity of §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.objectid import ObjectID
from ..core.space import ObjectSpace
from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet

__all__ = [
    "KIND_FIND",
    "KIND_FOUND",
    "KIND_ACCESS_REQ",
    "KIND_ACCESS_RSP",
    "KIND_ACCESS_NACK",
    "KIND_ADVERTISE",
    "KIND_ADVERTISE_ACK",
    "KIND_RESOLVE_REQ",
    "KIND_RESOLVE_RSP",
    "KIND_LEASE_INVALIDATE",
    "ACCESS_BYTES",
    "AccessRecord",
    "ObjectHome",
    "DiscoveryError",
    "move_object",
]

# E2E discovery vocabulary.
KIND_FIND = "disc.find"          # broadcast: who holds object X?
KIND_FOUND = "disc.found"        # unicast reply: I do (optionally with data)
# Access vocabulary (shared by both schemes).
KIND_ACCESS_REQ = "obj.access_req"
KIND_ACCESS_RSP = "obj.access_rsp"
KIND_ACCESS_NACK = "obj.access_nack"  # object is not (any longer) here
# Controller vocabulary.
KIND_ADVERTISE = "ctl.advertise"
# Sharded-directory vocabulary (controller plane split across shards).
KIND_ADVERTISE_ACK = "ctl.advertise_ack"   # shard -> owner: advertisement stored
KIND_RESOLVE_REQ = "shard.resolve_req"     # requester -> shard: who holds X?
KIND_RESOLVE_RSP = "shard.resolve_rsp"     # shard -> requester: holder + lease
KIND_LEASE_INVALIDATE = "shard.lease_inval"  # shard -> lease holder: drop X

ACCESS_BYTES = 64  # one cache line per access, per §3.2


class DiscoveryError(Exception):
    """Raised on protocol/setup errors in the discovery layer."""


@dataclass
class AccessRecord:
    """Everything measured about one object access."""

    oid: ObjectID
    start_us: float
    end_us: float = 0.0
    round_trips: int = 0        # request/reply exchanges on the access path
    broadcasts: int = 0         # broadcast packets this access originated
    was_new: bool = False       # first-ever access to this object
    was_stale: bool = False     # destination cache pointed at the wrong host
    ok: bool = False

    @property
    def latency_us(self) -> float:
        """End-to-end latency of this access."""
        return self.end_us - self.start_us


class ObjectHome:
    """The server side: a host that owns objects and answers for them.

    * answers broadcast ``disc.find`` for resident objects (optionally
      attaching data when the finder asked for a combined find+access);
    * answers unicast/identity-routed ``obj.access_req`` with a cache
      line of object data, or a NACK naming the forwarding hint if the
      object has moved away and ``forwarding_hints`` is enabled.
    """

    def __init__(self, host: Host, space: Optional[ObjectSpace] = None):
        self.host = host
        self.sim: Simulator = host.sim
        # Explicit None check: ObjectSpace defines __len__, so an empty
        # space is falsy and `space or ...` would silently discard it.
        self.space = space if space is not None else ObjectSpace(host_name=host.name)
        self.tracer = Tracer()
        # Where objects we used to own went.  Two opt-in variants use it
        # (both off by default — baseline E2E re-broadcasts on staleness,
        # as §4 describes):
        #   * forward_stale_accesses: old holder chases the object on the
        #     requester's behalf (the "network absorbs the cost" idea);
        #   * include_move_hints: the NACK names the new holder so the
        #     requester retries unicast instead of broadcasting.
        self.moved_to: Dict[ObjectID, str] = {}
        self.forward_stale_accesses = False
        self.include_move_hints = False
        host.on(KIND_FIND, self._on_find)
        host.on(KIND_ACCESS_REQ, self._on_access)

    # -- handlers ----------------------------------------------------------
    def _on_find(self, packet: Packet) -> None:
        oid = packet.oid
        if oid is None or oid not in self.space:
            return  # not ours: stay silent
        self.tracer.count("home.find_answered")
        payload = {"holder": self.host.name}
        payload_bytes = 24
        if packet.payload.get("include_data"):
            obj = self.space.get(oid)
            offset = packet.payload.get("offset", 0)
            length = min(packet.payload.get("length", ACCESS_BYTES), obj.size - offset)
            payload["data"] = obj.read(offset, length)
            payload["version"] = obj.version
            payload_bytes += length
        self.host.send(packet.reply(KIND_FOUND, payload, payload_bytes))

    def _on_access(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        # Forwarded requests carry the original requester in reply_to;
        # spoofing it into src would poison switch learning tables.
        requester = packet.payload.get("reply_to") or packet.src
        if oid in self.space:
            obj = self.space.get(oid)
            offset = packet.payload.get("offset", 0)
            length = min(packet.payload.get("length", ACCESS_BYTES), obj.size - offset)
            self.tracer.count("home.access_served")
            reply = packet.reply(KIND_ACCESS_RSP, {
                "holder": self.host.name,
                "data": obj.read(offset, length),
                "version": obj.version,
            }, 24 + length)
            reply.dst = requester
            self.host.send(reply)
            return
        if packet.dst is None:
            # Identity-routed request that reached us by switch-table
            # fallback flooding: we are simply not the holder.  Only the
            # holder may answer — a NACK is a *unicast* contract ("you
            # addressed me and I don't have it"), and NACKing floods
            # would race ahead of the real holder's reply.
            return
        hint = self.moved_to.get(oid)
        if self.forward_stale_accesses and hint is not None:
            # The network-absorbs-the-cost variant: chase the object on
            # behalf of the requester instead of bouncing a NACK.
            self.tracer.count("home.access_forwarded")
            forwarded_payload = dict(packet.payload)
            forwarded_payload["reply_to"] = requester
            self.host.send(Packet(
                kind=KIND_ACCESS_REQ, src=self.host.name, dst=hint, oid=oid,
                payload=forwarded_payload, payload_bytes=packet.payload_bytes,
            ))
            return
        reply = packet.reply(
            KIND_ACCESS_NACK,
            {"hint": hint if self.include_move_hints else None}, 24)
        reply.dst = requester
        self.host.send(reply)


def move_object(oid: ObjectID, src: ObjectHome, dst: ObjectHome) -> None:
    """Relocate ``oid`` from one home to another (byte-level copy).

    Movement is modelled as an out-of-band background transfer: the
    experiments measure the *access-path* consequences of staleness, not
    the bulk transfer itself (which both schemes pay identically).
    """
    wire = src.space.export_object(oid)
    src.space.evict(oid)
    dst.space.import_object(oid, wire, replace=True)
    src.moved_to[oid] = dst.host.name
    dst.moved_to.pop(oid, None)
