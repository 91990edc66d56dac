"""The paper's primary contribution: a global object space with
first-class references, invariant pointers, code objects, and the
rendezvous placement engine.

The invocation runtime that drives these pieces over the simulated
network lives in :mod:`repro.core.invoke` (imported lazily by the public
API to keep this package importable without the network substrate).
"""

from .codeobj import CodeError, FunctionRegistry, code_ref, read_code_entry, write_code_object
from .costmodel import (
    DEFAULT_COST_MODEL,
    DEFAULT_HIERARCHY,
    CostModel,
    LatencyHierarchy,
    TransferEstimate,
)
from .fot import FLAG_READ, FLAG_WRITE, FOT, FOTEntry, FOTError
from .objectid import ID_BITS, NULL_ID, IDAllocator, ObjectID, collision_probability
from .objects import DEFAULT_OBJECT_SIZE, KIND_CODE, KIND_DATA, MemObject, ObjectError
from .placement import (
    MovementPlan,
    NodeProfile,
    PlacementDecision,
    PlacementEngine,
    PlacementError,
    PlacementItem,
    PlacementRequest,
)
from .pointers import (
    MAX_FOT_INDEX,
    MAX_OFFSET,
    POINTER_BYTES,
    InvariantPointer,
    PointerError,
)
from .proxies import (
    PROXY_CACHED,
    PROXY_INVALIDATED,
    PROXY_OWNED,
    PROXY_PREFETCH_INFLIGHT,
    PROXY_UNRESOLVED,
    ObjectProxy,
    PrefetchBudget,
    ProxyCache,
    ProxyError,
    ReachabilityPrefetcher,
)
from .refs import MODE_OPAQUE, MODE_READ, MODE_WRITE, REF_WIRE_BYTES, GlobalRef, RefError
from .security import PUBLIC, AccessDenied, ObjectACL, PolicyRegistry
from .space import ObjectSpace, SpaceError
from .views import Field, LayoutError, StructLayout, StructView

__all__ = [
    # identifiers
    "ObjectID",
    "IDAllocator",
    "collision_probability",
    "NULL_ID",
    "ID_BITS",
    # objects & pointers
    "MemObject",
    "ObjectError",
    "DEFAULT_OBJECT_SIZE",
    "KIND_DATA",
    "KIND_CODE",
    "FOT",
    "FOTEntry",
    "FOTError",
    "FLAG_READ",
    "FLAG_WRITE",
    "InvariantPointer",
    "PointerError",
    "POINTER_BYTES",
    "MAX_OFFSET",
    "MAX_FOT_INDEX",
    # views
    "Field",
    "StructLayout",
    "StructView",
    "LayoutError",
    # spaces & refs
    "ObjectSpace",
    "SpaceError",
    "ObjectACL",
    "PolicyRegistry",
    "PUBLIC",
    "AccessDenied",
    "GlobalRef",
    "RefError",
    "REF_WIRE_BYTES",
    "MODE_READ",
    "MODE_WRITE",
    "MODE_OPAQUE",
    # code objects
    "FunctionRegistry",
    "CodeError",
    "write_code_object",
    "read_code_entry",
    "code_ref",
    # lazy proxies (PROXIES.md)
    "ObjectProxy",
    "ProxyCache",
    "ProxyError",
    "PrefetchBudget",
    "ReachabilityPrefetcher",
    "PROXY_UNRESOLVED",
    "PROXY_PREFETCH_INFLIGHT",
    "PROXY_CACHED",
    "PROXY_OWNED",
    "PROXY_INVALIDATED",
    # cost model & placement
    "CostModel",
    "LatencyHierarchy",
    "TransferEstimate",
    "DEFAULT_COST_MODEL",
    "DEFAULT_HIERARCHY",
    "NodeProfile",
    "PlacementItem",
    "PlacementRequest",
    "PlacementDecision",
    "MovementPlan",
    "PlacementEngine",
    "PlacementError",
]
