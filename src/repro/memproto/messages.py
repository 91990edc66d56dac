"""The bus-like network vocabulary: coherence messages over packets.

§3.2: "There are a handful of message types, consisting of requests and
replies for read or write operations, followed by an address, and an
optional payload with data, where payload size is usually a cache line."
Cache coherence adds exclusive-access, upgrade, and invalidate types
(the TileLink-flavoured set).  A load is an acquisition of a Shared
copy, a store of a Modified one, an upgrade a flag on the acquisition:
six kinds, one frame.  The address is an object ID (identity, not
location); the frames are host-addressed to the object's home.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.objectid import ObjectID
from ..net.packet import Packet

__all__ = [
    "CACHE_LINE_BYTES",
    "COHERENCE_ENTRY_BYTES",
    "MSG_ACQUIRE",
    "MSG_GRANT",
    "MSG_RELEASE",
    "MSG_RELEASE_ACK",
    "MSG_PROBE_INVALIDATE",
    "MSG_PROBE_ACK",
    "coherence_packet",
]

CACHE_LINE_BYTES = 64

# Coherence vocabulary (TileLink-C flavoured).
MSG_ACQUIRE = "coh.acquire"            # request a cached copy (shared or exclusive)
MSG_GRANT = "coh.grant"                # the home (or the owner) hands the copy over
MSG_RELEASE = "coh.release"            # writeback / eviction, possibly with data
MSG_RELEASE_ACK = "coh.release_ack"
MSG_PROBE_INVALIDATE = "coh.probe_inv" # home tells a holder to downgrade or drop
MSG_PROBE_ACK = "coh.probe_ack"

#: Modelled bytes for one entry of a coherence frame: the 16B object ID
#: plus request id / permission / flag metadata.  A frame charges this
#: per entry (plus any data), so N entries cost one wire header, not N.
COHERENCE_ENTRY_BYTES = 16


def coherence_packet(kind: str, src: str, dst: str,
                     entries: List[Dict[str, Any]],
                     oid: Optional[ObjectID] = None) -> Packet:
    """The one frame of all six kinds: a list of entries, each a plain
    dict (what an entry of each kind carries: ``coherence.py``), each
    charged :data:`COHERENCE_ENTRY_BYTES` plus the bytes of its ``data``.

    A release and its ack name their one line in the header (``oid``)
    instead of the entry; every batched kind names a line per entry."""
    payload_bytes = COHERENCE_ENTRY_BYTES * len(entries)
    for entry in entries:
        data = entry.get("data")
        if data is not None:
            payload_bytes += len(data)
    return Packet(kind=kind, src=src, dst=dst, oid=oid,
                  payload={"entries": entries}, payload_bytes=payload_bytes)
