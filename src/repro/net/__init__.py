"""Simulated network substrate: packets, links, hosts, programmable
switches with identity routing, and topology builders.

This package substitutes for the paper's Mininet + P4/Tofino emulation
environment (see DESIGN.md §2 for the substitution argument).
"""

from .host import Host, PacketHandler
from .link import (
    DEFAULT_BANDWIDTH_GBPS,
    DEFAULT_LATENCY_US,
    Link,
)
from .node import Node, NodeError
from .overlay import (
    KIND_TUNNEL,
    MultiRegionNetwork,
    OverlayGateway,
    RegionDirectory,
    build_multi_region,
)
from .packet import (
    BROADCAST,
    DEFAULT_TTL,
    HEADER_BYTES,
    OID_FIELD_BYTES,
    TCLASS_COHERENCE,
    TCLASS_PUBSUB,
    TCLASS_TRANSPORT,
    Packet,
    traffic_class,
)
from .pipeline import MatchActionTable, SramModel, TableFullError, TOFINO_SRAM
from .switch import MISS_FLOOD, MISS_PUNT, Switch
from .topology import (
    Network,
    Path,
    build_line,
    build_paper_topology,
    build_star,
    build_two_tier,
)

__all__ = [
    "Packet",
    "BROADCAST",
    "HEADER_BYTES",
    "OID_FIELD_BYTES",
    "DEFAULT_TTL",
    "Link",
    "DEFAULT_BANDWIDTH_GBPS",
    "DEFAULT_LATENCY_US",
    "TCLASS_COHERENCE",
    "TCLASS_TRANSPORT",
    "TCLASS_PUBSUB",
    "traffic_class",
    "Node",
    "NodeError",
    "Host",
    "PacketHandler",
    "Switch",
    "MISS_FLOOD",
    "MISS_PUNT",
    "MatchActionTable",
    "SramModel",
    "TableFullError",
    "TOFINO_SRAM",
    "Network",
    "Path",
    "RegionDirectory",
    "OverlayGateway",
    "MultiRegionNetwork",
    "build_multi_region",
    "KIND_TUNNEL",
    "build_paper_topology",
    "build_star",
    "build_line",
    "build_two_tier",
]
