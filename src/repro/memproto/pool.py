"""CXL-style intra-rack shared-memory pools.

The paper's latency hierarchy (§1) makes remote memory ~100x slower
than DRAM but ~100x faster than SSD; the modern hardware endpoint of
that argument is a rack-level memory pool where moving an object is a
load/store, not a packet.  :class:`SharedMemoryPool` models one such
pool: a capacity-bounded device a set of rack-mate hosts attach to, with
a latency model **distinct from the packet path** — an access costs one
``LatencyHierarchy.remote_memory_us`` far-memory latency plus streaming
at the pool port rate, and never touches a link, a switch, or a
transport window.

Objects enter the pool by **mapping**: the home of an object publishes
its authoritative bytes into pool memory, after which any attached host
reads them with a single load (no acquire/grant round trip, no
serialization walk, no per-reader staging copy — the zero-copy fast
path the coherence agent and proxy resolver consult before falling back
to the batched packet transport).  Mapping is an explicit capacity
reservation: the pool accounts every byte reserved and released, evicts
least-recently-used mappings under pressure, and raises the typed
:class:`PoolCapacityError` for an object that cannot fit at all —
readers of an evicted mapping simply fall back to the packet path.

MSI state stays authoritative.  Pool readers hold no copy afterwards
(a load is a one-shot access, not a cache fill), so they owe the
directory nothing; the home invalidates the mapping the instant any
writer is granted Modified permission, so a mapped object honors
probes/invalidations exactly like every other copy — see
:meth:`CoherenceAgent.map_to_pool`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Iterable, Optional

from ..core.costmodel import DEFAULT_HIERARCHY
from ..core.objectid import ObjectID
from ..sim import Simulator, Timeout, Tracer

__all__ = [
    "SharedMemoryPool",
    "PoolError",
    "PoolCapacityError",
    "POOL_BANDWIDTH_GBPS",
]

#: Default effective streaming rate of synchronous load/store through
#: one pool port.  Deliberately far below NIC line rate: pool accesses
#: are CPU loads against far memory and do not pipeline like DMA, which
#: is exactly why a size crossover against the packet path exists
#: (matches ``CostModel.POOL_BANDWIDTH_GBPS``).
POOL_BANDWIDTH_GBPS = 2.0


class PoolError(Exception):
    """Pool misuse: loading an unmapped object, double-mapping, bad range."""


class PoolCapacityError(PoolError):
    """A mapping cannot fit: the object is larger than the whole pool."""


class SharedMemoryPool:
    """One intra-rack shared-memory pool a group of hosts attaches to.

    Usage from a simulated process::

        pool.map_object(oid, data)          # home publishes (control plane)
        chunk = yield from pool.load(oid, offset, length)

    ``members`` names the hosts in the rack; only they may be attached
    by a :class:`~repro.memproto.coherence.CoherenceAgent`.  Capacity
    accounting is exact: ``reserved_bytes`` always equals
    ``pool.map_bytes - pool.release_bytes`` over the tracer counters,
    the invariant the ``pool.crossover`` benchmark asserts in-run.
    """

    def __init__(self, sim: Simulator, name: str, members: Iterable[str],
                 capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.sim = sim
        self.name = name
        self.members: FrozenSet[str] = frozenset(members)
        if not self.members:
            raise ValueError("a pool needs at least one member host")
        self.capacity_bytes = int(capacity_bytes)
        self._bytes_per_us = POOL_BANDWIDTH_GBPS * 1e9 / 8 / 1e6
        self.tracer = Tracer()
        # LRU order: oldest mapping first; loads move_to_end.
        self._mapped: "OrderedDict[ObjectID, bytearray]" = OrderedDict()
        self.reserved_bytes = 0

    # -- membership -----------------------------------------------------------
    def attached(self, host_name: str) -> bool:
        """True when ``host_name`` is a rack member of this pool."""
        return host_name in self.members

    # -- latency model --------------------------------------------------------
    def access_us(self, nbytes: int) -> float:
        """Simulated time of one pool access moving ``nbytes``: a single
        far-memory latency plus port-rate streaming — no packet costs."""
        return DEFAULT_HIERARCHY.remote_memory_us + nbytes / self._bytes_per_us

    # -- mapping (control plane, capacity accounting) -------------------------
    def mapped(self, oid: ObjectID) -> bool:
        """True when ``oid`` currently has a pool mapping."""
        return oid in self._mapped

    def mapped_count(self) -> int:
        """How many objects are currently mapped."""
        return len(self._mapped)

    def map_object(self, oid: ObjectID, data: bytes) -> None:
        """Reserve capacity for ``oid`` and publish ``data`` into it.

        Evicts least-recently-used mappings to make room (their readers
        fall back to the packet path); an object larger than the whole
        pool raises :class:`PoolCapacityError` without evicting anyone.
        """
        if oid in self._mapped:
            raise PoolError(f"object {oid.short()} already mapped in pool "
                            f"{self.name!r}")
        nbytes = len(data)
        if nbytes > self.capacity_bytes:
            raise PoolCapacityError(
                f"object {oid.short()} ({nbytes} bytes) exceeds pool "
                f"{self.name!r} capacity ({self.capacity_bytes} bytes)")
        while self.reserved_bytes + nbytes > self.capacity_bytes:
            self._evict_one()
        self._mapped[oid] = bytearray(data)
        self.reserved_bytes += nbytes
        self.tracer.count("pool.map")
        self.tracer.count("pool.map_bytes", nbytes)

    def _release(self, oid: ObjectID) -> int:
        entry = self._mapped.pop(oid)
        nbytes = len(entry)
        self.reserved_bytes -= nbytes
        self.tracer.count("pool.release_bytes", nbytes)
        return nbytes

    def _evict_one(self) -> None:
        victim = next(iter(self._mapped))
        self._release(victim)
        self.tracer.count("pool.evict")

    def unmap(self, oid: ObjectID) -> bool:
        """Drop ``oid``'s mapping, freeing its reservation; False when it
        was not mapped (an eviction already freed it)."""
        if oid not in self._mapped:
            return False
        self._release(oid)
        return True

    def invalidate(self, oid: ObjectID) -> bool:
        """Coherence push: drop ``oid``'s mapping because a writer was
        granted Modified permission.  Same accounting as :meth:`unmap`,
        counted separately so the MSI-driven drops are visible."""
        if oid not in self._mapped:
            return False
        self._release(oid)
        self.tracer.count("pool.invalidate")
        return True

    # -- data plane (simulated processes) -------------------------------------
    def _entry(self, oid: ObjectID, offset: int, length: int) -> bytearray:
        entry = self._mapped.get(oid)
        if entry is None:
            raise PoolError(f"object {oid.short()} is not mapped in pool "
                            f"{self.name!r}")
        if offset < 0 or length < 0 or offset + length > len(entry):
            raise PoolError(
                f"range [{offset}:{offset + length}) out of bounds for "
                f"pool-mapped {oid.short()} ({len(entry)} bytes)")
        self._mapped.move_to_end(oid)
        return entry

    def load(self, oid: ObjectID, offset: int = 0,
             length: Optional[int] = None):
        """Process: read ``length`` bytes of ``oid`` (whole object when
        ``length`` is None) through the pool window.

        The access linearizes at issue: the bytes returned are the
        mapping's content when the load started, so a concurrent
        invalidation (which always precedes the writer's first store)
        can never surface post-write data here.
        """
        if length is None:
            length = len(self._mapped.get(oid, b"")) - offset
        entry = self._entry(oid, offset, length)
        data = bytes(entry[offset:offset + length])
        self.tracer.count("pool.load")
        yield Timeout(self.access_us(length))
        return data

    def __repr__(self) -> str:
        return (f"<SharedMemoryPool {self.name} {len(self._mapped)} mapped "
                f"{self.reserved_bytes}/{self.capacity_bytes}B>")
