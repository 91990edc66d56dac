"""Memory protocol: the bus-like message vocabulary, reliable transports,
and directory MSI coherence (Shared acquisitions downgrade an exclusive
owner M->S with writeback; Modified acquisitions invalidate)."""

from .coherence import (
    EVICT_NOTIFY,
    EVICT_SILENT_DROP,
    PERM_MODIFIED,
    PERM_SHARED,
    CoherenceAgent,
    CoherenceError,
)
from .messages import (
    CACHE_LINE_BYTES,
    MSG_ACQUIRE,
    MSG_GRANT,
    MSG_PROBE_ACK,
    MSG_PROBE_INVALIDATE,
    MSG_RELEASE,
    MSG_RELEASE_ACK,
)
from .pool import (
    POOL_BANDWIDTH_GBPS,
    PoolCapacityError,
    PoolError,
    SharedMemoryPool,
)
from .resolve import CoherentProxyResolver
from .transport import LightweightTransport, TcpLikeTransport, TransportError

__all__ = [
    "CACHE_LINE_BYTES",
    "MSG_ACQUIRE",
    "MSG_GRANT",
    "MSG_PROBE_INVALIDATE",
    "MSG_PROBE_ACK",
    "MSG_RELEASE",
    "MSG_RELEASE_ACK",
    "LightweightTransport",
    "TcpLikeTransport",
    "TransportError",
    "CoherenceAgent",
    "CoherenceError",
    "CoherentProxyResolver",
    "PERM_SHARED",
    "PERM_MODIFIED",
    "EVICT_NOTIFY",
    "EVICT_SILENT_DROP",
    "SharedMemoryPool",
    "PoolError",
    "PoolCapacityError",
    "POOL_BANDWIDTH_GBPS",
]
