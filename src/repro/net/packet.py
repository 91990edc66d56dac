"""Packets for the identity-routed network.

The paper's network vocabulary (§3.2) is bus-like: a small set of
operations (read/write requests and replies, coherence traffic,
discovery) whose *target identity is an object ID*, not a host address.
Packets here carry both, because the reproduction compares three
addressing regimes:

* host-addressed unicast (``dst`` set to a host name) — classic L2/L3;
* broadcast (``dst = BROADCAST``) — E2E discovery;
* identity-routed (``dst = None`` and ``oid`` set) — switches forward on
  the object ID through installed exact-match entries.

Sizes are modelled, not real encodings: each packet declares its
``size_bytes`` so links charge transmission time without us paying the
cost of actually packing headers.  The size is worked out once, at
construction: every hop reads it two or three times (the wire, the byte
counters).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.objectid import ObjectID

__all__ = [
    "Packet",
    "BROADCAST",
    "HEADER_BYTES",
    "OID_FIELD_BYTES",
    "DEFAULT_TTL",
    "TCLASS_COHERENCE",
    "TCLASS_TRANSPORT",
    "TCLASS_PUBSUB",
    "traffic_class",
]

BROADCAST = "*"

# Traffic classes for egress arbitration.  A packet's class is stamped
# by its source: explicitly via :attr:`Packet.tclass` (the per-tenant
# override a loadgen tenant or host can set), or implicitly from the
# message-kind namespace — coherence (``coh.*``), pub/sub (``ps.*``),
# and everything else (RPC/transport/discovery) as transport.
TCLASS_COHERENCE = "coherence"
TCLASS_TRANSPORT = "transport"
TCLASS_PUBSUB = "pubsub"


def traffic_class(packet: "Packet") -> str:
    """The egress-arbitration class of ``packet`` (explicit stamp wins)."""
    if packet.tclass is not None:
        return packet.tclass
    kind = packet.kind
    if kind.startswith("coh."):
        return TCLASS_COHERENCE
    if kind.startswith("ps."):
        return TCLASS_PUBSUB
    return TCLASS_TRANSPORT

# Modelled fixed header: kind/src/dst/seq + ethernet-ish framing.
HEADER_BYTES = 42
# An identity-routed packet additionally carries a 128-bit object ID.
OID_FIELD_BYTES = 16
DEFAULT_TTL = 32

_packet_ids = itertools.count(1)


@dataclass(init=False)
class Packet:
    """One simulated packet.

    ``payload`` holds structured protocol fields (request ids, versions,
    object images...); ``payload_bytes`` is its modelled wire size.  The
    total ``size_bytes`` adds the fixed header and, when the packet
    carries an object ID, the object-ID field.

    ``size_bytes`` is fixed at construction from the two fields it
    reads, ``payload_bytes`` and ``oid``, so neither may be assigned
    afterwards (:meth:`clone_for_flood` and :meth:`reply` build a new
    packet).  It is a plain attribute, not a dataclass field: ``==``
    still compares the declared fields only.  ``dst`` *is* reassigned
    (a forwarding object home), so :attr:`is_broadcast` stays a property.

    ``__init__`` is written by hand because every packet and every flood
    copy is built through it: the generated one spent three Python calls
    (itself, the ``uid`` factory and ``__post_init__``) where one does.
    It takes the fields in declaration order and draws a ``uid`` only
    when none is given, as the factory did.
    """

    kind: str
    src: Optional[str]  # None: stamped with the sending host's name
    dst: Optional[str] = None
    oid: Optional[ObjectID] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    payload_bytes: int = 0
    ttl: int = DEFAULT_TTL
    uid: int = field(default_factory=lambda: next(_packet_ids))
    hops: int = 0
    created_at: Optional[float] = None  # None: stamped at first send
    tclass: Optional[str] = None  # explicit egress-arbitration class

    def __init__(self, kind: str, src: Optional[str], dst: Optional[str] = None,
                 oid: Optional[ObjectID] = None,
                 payload: Optional[Dict[str, Any]] = None, payload_bytes: int = 0,
                 ttl: int = DEFAULT_TTL, uid: Optional[int] = None, hops: int = 0,
                 created_at: Optional[float] = None,
                 tclass: Optional[str] = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.oid = oid
        self.payload = {} if payload is None else payload
        self.payload_bytes = payload_bytes
        self.ttl = ttl
        self.uid = next(_packet_ids) if uid is None else uid
        self.hops = hops
        self.created_at = created_at
        self.tclass = tclass
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if dst is None and oid is None:
            raise ValueError(
                f"packet {kind!r} needs a destination: host address or object ID"
            )
        #: Total modelled wire size in bytes.
        self.size_bytes = HEADER_BYTES + payload_bytes + (
            OID_FIELD_BYTES if oid is not None else 0)

    @property
    def is_broadcast(self) -> bool:
        """True when addressed to every host."""
        return self.dst == BROADCAST

    @property
    def is_identity_routed(self) -> bool:
        """True when routed on an object ID, not a host."""
        return self.dst is None and self.oid is not None

    def clone_for_flood(self) -> "Packet":
        """Per-egress copy used when a switch floods: shares the UID and
        payload (duplicate suppression keys on UID) but gets independent
        hop/TTL counters so each path is accounted separately."""
        twin = Packet(
            kind=self.kind,
            src=self.src,
            dst=self.dst,
            oid=self.oid,
            payload=self.payload,
            payload_bytes=self.payload_bytes,
            ttl=self.ttl,
            created_at=self.created_at,
            tclass=self.tclass,
        )
        twin.uid = self.uid
        twin.hops = self.hops
        return twin

    def reply(self, kind: str, payload: Optional[Dict[str, Any]] = None,
              payload_bytes: int = 0) -> "Packet":
        """Build the unicast answer to this request: back to its source,
        about the same object, echoing the ``req_id`` the requester's
        :meth:`Host.complete` matches on."""
        body = dict(payload or {})
        if "req_id" in self.payload:
            body["req_id"] = self.payload["req_id"]
        return Packet(
            kind=kind,
            src=self.dst if self.dst not in (None, BROADCAST) else None,
            dst=self.src,
            oid=self.oid,
            payload=body, payload_bytes=payload_bytes,
        )

    def __repr__(self) -> str:
        if self.is_identity_routed:
            where = f"oid={self.oid.short()}"
        else:
            where = f"dst={self.dst}"
        return (
            f"<Packet #{self.uid} {self.kind} {self.src}->{where} "
            f"{self.size_bytes}B hops={self.hops}>"
        )
