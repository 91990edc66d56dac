"""Object discovery: how the network learns where objects live (§4).

The protocols, one module per scheme, on the wire kinds of ``base``:
decentralized E2E (ARP-like destination caches filled by broadcast,
``e2e``), SDN-controller-installed identity routes (``controller``), a
destination cache over those routes (``hybrid``), and a sharded
controller directory with requester-side TTL leases (``sharded``).  In
``workload``, the :class:`Testbed` that wires a scheme onto a network,
and the drivers that regenerate Figures 2 and 3 and the E18 sweep.
"""

from .base import AccessRecord, DiscoveryError, ObjectHome, move_object
from .controller import (
    CONTROLLER_HOST,
    DirectoryController,
    IdentityAccessor,
    SdnController,
    advertise,
)
from .e2e import E2EResolver
from .hybrid import HybridAccessor
from .sharded import LeaseCachingResolver, ShardAdvertiser, ShardDirectory, ShardMap
from .workload import (
    SCHEME_CONTROLLER,
    SCHEME_E2E,
    SCHEME_HYBRID,
    SCHEME_SHARDED,
    ShardedSweepResult,
    SweepPoint,
    Testbed,
    build_shard_star,
    run_fig2_point,
    run_fig3_point,
    run_sharded_point,
)

__all__ = [
    "ObjectHome",
    "AccessRecord",
    "DiscoveryError",
    "move_object",
    "E2EResolver",
    "HybridAccessor",
    "CONTROLLER_HOST",
    "DirectoryController",
    "SdnController",
    "IdentityAccessor",
    "advertise",
    "ShardMap",
    "ShardDirectory",
    "ShardAdvertiser",
    "LeaseCachingResolver",
    "Testbed",
    "build_shard_star",
    "SweepPoint",
    "ShardedSweepResult",
    "run_fig2_point",
    "run_fig3_point",
    "run_sharded_point",
    "SCHEME_E2E",
    "SCHEME_CONTROLLER",
    "SCHEME_HYBRID",
    "SCHEME_SHARDED",
]
