"""Directory-based MSI coherence over objects.

§3.2 notes that cache coherence "requires additional message types, e.g.,
to ensure exclusive access to data, upgrade access type, invalidate
data" and points at TileLink as a minimal modern example.  This module
implements that vocabulary as a directory (home-node) MSI protocol at
object granularity:

* every object has a **home** host holding the directory entry and the
  authoritative copy;
* any host may **acquire** a Shared (read) or Modified (write) copy;
* the home serializes conflicting acquisitions per object and decides who
  must give a copy up; the line itself goes the shortest way.

An acquisition that meets another copy takes three messages, each shape
one wait at the requester R (H the home, O the owner, S the sharers)::

  directory says       messages on R's critical path        data rides
  nobody / R itself    R>H acquire, H>R grant                H>R
  owner O              R>H acquire, H>O probe, O>R grant     O>R (and O>H
                       (O>H ack frees the line)              ack on M->S)
  sharers S, a write   R>H acquire, H>S probe, S>R ack       H>R, unless
                       (H>R grant at once, frees the line)   R upgrades

The four-message shape (H collects the acks, then grants) remains where
it must: O let the line go before the probe came, or R is H itself.

**The hold rule.**  A grant from O reaches R by another path than H's
next probe, and H names a writer the owner before its sharers' acks are
in, so a probe can reach a host before the copy it is after.  Every
probe therefore names the acquisition that made its target a holder,
and a target still waiting on that acquisition holds the probe until
one event after installing the copy (a Shared copy is installed as its
grant arrives, a Modified one in the step that applies the store).  Any
other probe is answered at once, as it always was: a target may itself
be queued at the home behind the prober, and would wait for ever.

The protocol rides on raw host-addressed packets (it provides its own
request/ack matching), so it can be layered over either transport.

The data plane is **batched at the packet boundary**: acquisitions for
many objects travel in one acquire packet (:meth:`CoherenceAgent.read_many`
for sequential-scan readers), the home coalesces grants completing at the
same instant into one multi-oid grant reply, and the probe/invalidate
fan-out of concurrent transactions coalesces per target into one
multi-entry probe round (answered by one batched ack, dirty writebacks
piggybacked per entry).

Caches are **capacity-bounded**: an agent constructed with
``capacity_bytes`` evicts least-recently-used entries when an insert
would exceed the bound.  Evicting a Modified line writes the data back
to the home (a fire-and-forget release); evicting a Shared line follows
the per-agent ``shared_evict_policy`` — ``notify`` releases the copy so
the directory forgets the sharer, ``silent_drop`` just drops it and lets
the directory discover the stale sharer on the next probe (the probe ack
answers "not present" and the home prunes instead of hanging).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.objectid import ObjectID
from ..sim import Future, ScheduledEvent, Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .pool import SharedMemoryPool
from .messages import (
    COHERENCE_ENTRY_BYTES,
    MSG_ACQUIRE,
    MSG_GRANT,
    MSG_PROBE_ACK,
    MSG_PROBE_INVALIDATE,
    MSG_RELEASE,
    MSG_RELEASE_ACK,
    acquire_packet,
    grant_packet,
    probe_ack_packet,
    probe_packet,
    release_packet,
)

__all__ = [
    "CoherenceAgent",
    "CoherenceError",
    "PERM_SHARED",
    "PERM_MODIFIED",
    "EVICT_NOTIFY",
    "EVICT_SILENT_DROP",
]

PERM_SHARED = "S"
PERM_MODIFIED = "M"

# Shared-line eviction policies.
EVICT_NOTIFY = "notify"           # release so the directory drops the sharer
EVICT_SILENT_DROP = "silent_drop" # drop; the directory prunes on the next probe

_req_ids = itertools.count(1)


class CoherenceError(Exception):
    """Protocol violations: releasing an uncached object, bad perms..."""


class _CacheEntry:
    """One locally cached object copy."""

    __slots__ = ("data", "perm", "dirty")

    def __init__(self, data: bytearray, perm: str, dirty: bool = False):
        self.data = data
        self.perm = perm
        self.dirty = dirty


class _DirectoryEntry:
    """Home-side record: authoritative data + current copy holders."""

    __slots__ = ("data", "sharers", "owner", "via", "busy", "pending")

    def __init__(self, data: bytearray):
        self.data = data
        self.sharers: Set[str] = set()
        self.owner: Optional[str] = None  # holder of the Modified copy
        self.via: Dict[str, int] = {}     # holder -> req_id that made it one
        self.busy: Optional[_Txn] = None  # the transaction in flight
        # Queued _Txn acquisitions, and a release put behind its own grant.
        self.pending: deque = deque()


class _Txn:
    """One admitted acquisition the home is processing."""

    __slots__ = ("requester", "req_id", "perm", "upgrade", "home_local")

    def __init__(self, requester: str, req_id: int, perm: str,
                 upgrade: bool = False, home_local: bool = False):
        self.requester = requester
        self.req_id = req_id
        self.perm = perm
        self.upgrade = upgrade
        self.home_local = home_local


class CoherenceAgent:
    """One host's coherence participant: cache + (for home objects) directory.

    Usage from a simulated process::

        data = yield agent.read(oid, offset, length)
        yield agent.write(oid, offset, payload)
        chunks = yield agent.read_many(oids, offset, length)  # batched scan

    Reads acquire Shared permission; writes acquire Modified permission,
    invalidating every other copy first.  Repeated accesses hit the local
    cache with no network traffic — the hit/miss counters are what the
    coherence benchmarks read.
    """

    def __init__(self, host: Host, home_map: Dict[ObjectID, str],
                 tracer: Optional[Tracer] = None,
                 capacity_bytes: Optional[int] = None,
                 shared_evict_policy: str = EVICT_NOTIFY):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive (or None)")
        if shared_evict_policy not in (EVICT_NOTIFY, EVICT_SILENT_DROP):
            raise ValueError(
                f"unknown shared_evict_policy {shared_evict_policy!r}")
        self.host = host
        self.sim: Simulator = host.sim
        self.home_map = home_map
        self.tracer = tracer or Tracer()
        # Counter cells of the per-access path (see Tracer).
        self._n_cache_hit = self.tracer.cell("coherence.cache_hit")
        self._n_read_miss = self.tracer.cell("coherence.read_miss")
        self._n_write_miss = self.tracer.cell("coherence.write_miss")
        self._n_upgrade = self.tracer.cell("coherence.upgrade")
        self._n_acquire_pkts = self.tracer.cell("coherence.batch.acquire_pkts")
        self._n_probe = self.tracer.cell("coherence.probe")
        self._n_probe_pkts = self.tracer.cell("coherence.batch.probe_pkts")
        self._n_downgraded = self.tracer.cell("coherence.downgraded")
        self._n_invalidated = self.tracer.cell("coherence.invalidated")
        self._n_grant = self.tracer.cell("coherence.grant")
        self._n_upgrade_ack = self.tracer.cell("coherence.upgrade_ack")
        self._n_grant_pkts = self.tracer.cell("coherence.batch.grant_pkts")
        self._n_forwarded = self.tracer.cell("coherence.forwarded")
        self._n_probe_deferred = self.tracer.cell("coherence.probe_deferred")
        self._n_ack_collected = self.tracer.cell("coherence.ack_collected")
        self._n_evict_modified = self.tracer.cell("coherence.evict.modified")
        self._n_evict_writeback = self.tracer.cell("coherence.evict.writeback")
        self._n_evict_shared = self.tracer.cell("coherence.evict.shared")
        self.capacity_bytes = capacity_bytes
        self.shared_evict_policy = shared_evict_policy
        # LRU order: oldest entry first; hits move_to_end.
        self._cache: "OrderedDict[ObjectID, _CacheEntry]" = OrderedDict()
        self._cache_bytes = 0
        self._directory: Dict[ObjectID, _DirectoryEntry] = {}
        # One wait per acquisition, kept until the copy is installed: the
        # grant and, for a write that met sharers, their invalidation acks
        # ([acks still owed, grant]), plus the probes held for it meanwhile.
        self._pending: Dict[int, Future] = {}
        self._owed: Dict[int, List[Any]] = {}
        self._held: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
        # Capacity-eviction releases are fire-and-forget (no waiting
        # process), but a dirty eviction's data must stay reachable until
        # the home acks it: a probe racing the release finds the bytes
        # here and piggybacks them on the probe ack, so the home never
        # grants stale directory data.
        self._evicting: Dict[ObjectID, Tuple[int, bytes]] = {}
        self._evict_inflight: Dict[int, ObjectID] = {}
        host.on(MSG_ACQUIRE, self._on_acquire)
        host.on(MSG_GRANT, self._on_grant)
        host.on(MSG_PROBE_INVALIDATE, self._on_probe)
        host.on(MSG_PROBE_ACK, self._on_probe_ack)
        host.on(MSG_RELEASE, self._on_release)
        host.on(MSG_RELEASE_ACK, self._on_release_ack)
        # Home-side per-transaction scratch: (oid, req key) -> collection state.
        self._collect: Dict[Tuple[ObjectID, Tuple[str, int]], Dict[str, Any]] = {}
        # Same-instant coalescing buffers: probes per target, grants per
        # requester.  Flushed by a zero-delay event, so everything a
        # single arrival fans out to shares one wire packet per peer.
        self._probe_out: Dict[str, List[Dict[str, Any]]] = {}
        self._probe_flush: Dict[str, ScheduledEvent] = {}
        self._grant_out: Dict[str, List[Dict[str, Any]]] = {}
        self._grant_flush: Dict[str, ScheduledEvent] = {}
        # Upper layers (the proxy cache) that must hear about pushed
        # invalidations, so cached derivatives of our cache entries are
        # dropped the instant the protocol drops the entry itself.
        self._invalidation_listeners: List[Any] = []
        # Optional intra-rack shared-memory pool (see attach_pool): a
        # zero-copy read fast path consulted before the packet path.
        self._pool: Optional[SharedMemoryPool] = None

    def add_invalidation_listener(self, callback) -> None:
        """Call ``callback(oid)`` whenever a probe invalidates a cached
        copy on this host (the coherence-integrated invalidation hook
        the lazy-proxy layer registers through)."""
        self._invalidation_listeners.append(callback)

    # -- shared-memory pool fast path -----------------------------------------
    def attach_pool(self, pool: SharedMemoryPool) -> None:
        """Join the rack pool ``pool``: reads of pool-mapped objects are
        served as loads through the pool window instead of the batched
        acquire/grant packet path.  Only rack members may attach."""
        if not pool.attached(self.host.name):
            raise CoherenceError(
                f"{self.host.name} is not a member of pool {pool.name!r}")
        self._pool = pool

    def map_to_pool(self, oid: ObjectID) -> None:
        """Home-only: publish ``oid``'s authoritative bytes into the
        attached pool (zero-copy exchange for every rack member).

        Refused while a remote Modified copy is outstanding — the
        directory data would be stale.  The mapping is dropped again the
        instant any writer is granted Modified permission, so MSI state
        stays authoritative over the pool's snapshot."""
        if self._pool is None:
            raise CoherenceError(f"{self.host.name} has no attached pool")
        directory = self._home_directory(oid)
        if directory.owner is not None:
            raise CoherenceError(
                f"cannot pool-map {oid.short()} while {directory.owner} "
                f"holds a Modified copy")
        self._pool.map_object(oid, bytes(directory.data))

    def _pool_read(self, oid: ObjectID) -> bool:
        """True when a read of ``oid`` should go through the pool."""
        return self._pool is not None and self._pool.mapped(oid)

    def _pool_invalidate(self, oid: ObjectID) -> None:
        """Drop any pool mapping of ``oid`` before a write can land."""
        if self._pool is not None:
            self._pool.invalidate(oid)

    # -- object registration --------------------------------------------------
    def host_object(self, oid: ObjectID, data: bytes) -> None:
        """Declare this host the home of ``oid`` with initial ``data``."""
        if oid in self._directory:
            raise CoherenceError(f"{self.host.name} already home of {oid.short()}")
        self._directory[oid] = _DirectoryEntry(bytearray(data))
        self.home_map[oid] = self.host.name

    def _home_of(self, oid: ObjectID) -> str:
        home = self.home_map.get(oid)
        if home is None:
            raise CoherenceError(f"no home known for object {oid.short()}")
        return home

    def _home_directory(self, oid: ObjectID) -> _DirectoryEntry:
        """The local directory entry for ``oid``, or a clean fault.

        The home map can claim this host is home for an object that was
        never hosted here (stale map, typo'd registration); that must
        surface as a protocol error, not a raw ``KeyError``."""
        directory = self._directory.get(oid)
        if directory is None:
            raise CoherenceError(f"{self.host.name} is not home of {oid.short()}")
        return directory

    @staticmethod
    def _check_range(oid: ObjectID, size: int, offset: int, length: int) -> None:
        """Fault accesses outside the object's backing bytes.

        Slice assignment past the end of a ``bytearray`` silently grows
        it, so an unchecked store would resize the object instead of
        faulting like real memory."""
        if offset < 0 or length < 0 or offset + length > size:
            raise CoherenceError(
                f"range [{offset}:{offset + length}) out of bounds for "
                f"{oid.short()} ({size} bytes)")

    # -- capacity-bounded cache management ------------------------------------
    @property
    def cached_bytes(self) -> int:
        """Bytes of object data currently held in the local cache."""
        return self._cache_bytes

    def _touch(self, oid: ObjectID) -> None:
        """Mark ``oid`` most-recently-used (a cache hit)."""
        self._cache.move_to_end(oid)

    def _install(self, oid: ObjectID, entry: _CacheEntry) -> _CacheEntry:
        """Insert (or replace) a cache entry at MRU, then evict down to
        capacity — never evicting the entry just inserted, since callers
        go on to read or mutate it."""
        old = self._cache.pop(oid, None)
        if old is not None:
            self._cache_bytes -= len(old.data)
        self._cache[oid] = entry
        self._cache_bytes += len(entry.data)
        self._evict_to_capacity(keep=oid)
        return entry

    def _forget(self, oid: ObjectID) -> Optional[_CacheEntry]:
        """Drop ``oid`` from the cache (no protocol side effects)."""
        entry = self._cache.pop(oid, None)
        if entry is not None:
            self._cache_bytes -= len(entry.data)
        return entry

    def _evict_to_capacity(self, keep: Optional[ObjectID] = None) -> None:
        if self.capacity_bytes is None:
            return
        while self._cache_bytes > self.capacity_bytes:
            victim = next(iter(self._cache))
            if victim == keep:
                # ``keep`` sits at MRU, so it can only be the LRU head
                # when it is the sole entry: a single object larger than
                # the whole cache stays resident until the next insert.
                return
            self._evict_one(victim)

    def _evict_one(self, oid: ObjectID) -> None:
        entry = self._forget(oid)
        assert entry is not None
        for callback in self._invalidation_listeners:
            callback(oid)
        if entry.perm == PERM_MODIFIED:
            self._n_evict_modified[0] += 1
            data: Optional[bytes] = None
            if entry.dirty:
                self._n_evict_writeback[0] += 1
                data = bytes(entry.data)
            req_id = next(_req_ids)
            self._evict_inflight[req_id] = oid
            if data is not None:
                self._evicting[oid] = (req_id, data)
            self.host.send(release_packet(
                self.host.name, self._home_of(oid), oid, req_id,
                PERM_MODIFIED, data))
            return
        self._n_evict_shared[0] += 1
        if self.shared_evict_policy == EVICT_NOTIFY:
            req_id = next(_req_ids)
            self._evict_inflight[req_id] = oid
            self.host.send(release_packet(
                self.host.name, self._home_of(oid), oid, req_id,
                PERM_SHARED, None))
        # silent_drop: say nothing — the directory keeps us as a sharer
        # until its next probe comes back "not present" and it prunes.

    # -- public operations (generator processes) -------------------------------
    def read(self, oid: ObjectID, offset: int, length: int):
        """Process: acquire Shared (if needed) and return the bytes."""
        entry = self._cache.get(oid)
        if entry is None and self._home_of(oid) == self.host.name:
            directory = self._home_directory(oid)
            self._check_range(oid, len(directory.data), offset, length)
            if directory.owner is not None:
                # A remote Modified copy exists: recall it before reading.
                yield from self._home_local_barrier(oid, PERM_SHARED)
            self.tracer.count("coherence.home_hit")
            return bytes(directory.data[offset : offset + length])
        if entry is not None:
            self._n_cache_hit[0] += 1
            self._touch(oid)
            self._check_range(oid, len(entry.data), offset, length)
            return bytes(entry.data[offset : offset + length])
        if self._pool_read(oid):
            # Pool-mapped: one load through the rack pool, no packets.
            # No cache entry is installed (a load is a one-shot access,
            # not a cache fill), so we owe the directory nothing.
            self.tracer.count("coherence.pool_hit")
            chunk = yield from self._pool.load(oid, offset, length)
            return chunk
        self._n_read_miss[0] += 1
        entry = yield from self._acquire(oid, PERM_SHARED)
        self._check_range(oid, len(entry.data), offset, length)
        return bytes(entry.data[offset : offset + length])

    def read_many(self, oids: Iterable[ObjectID], offset: int, length: int):
        """Process: read the same range of many objects, batching the
        acquisitions per home into single multi-oid packets.

        A sequential-scan reader over N uncached, conflict-free objects
        with one home costs one acquire packet and one grant packet,
        instead of N of each."""
        oids = list(oids)
        results: Dict[int, bytes] = {}
        by_home: Dict[str, List[Tuple[int, ObjectID, int, Future]]] = {}
        for index, oid in enumerate(oids):
            entry = self._cache.get(oid)
            if (entry is not None or self._home_of(oid) == self.host.name
                    or self._pool_read(oid)):
                # Cached, home-resident, or pool-mapped: the
                # single-object path already serves these without
                # acquire/grant traffic.
                results[index] = yield from self.read(oid, offset, length)
                continue
            self._n_read_miss[0] += 1
            req_id, future = self._request("scan")
            by_home.setdefault(self._home_of(oid), []).append(
                (index, oid, req_id, future))
        for home, wanted in by_home.items():
            reqs = [{"oid": oid, "req_id": req_id}
                    for _, oid, req_id, _ in wanted]
            self._send_acquire(home, PERM_SHARED, reqs)
        for home, wanted in by_home.items():
            for index, oid, _, future in wanted:
                entry = yield future
                self._check_range(oid, len(entry.data), offset, length)
                results[index] = bytes(entry.data[offset : offset + length])
        return [results[i] for i in range(len(oids))]

    def read_objects(self, oids: Iterable[ObjectID]):
        """Process: read the *full images* of many objects, batching the
        Shared acquisitions per home into single multi-oid packets.

        Unlike :meth:`read_many` this takes no range — object sizes vary
        and each grant carries the whole authoritative copy — which is
        what the lazy-proxy resolver needs: one batched acquisition per
        reachability-walk level, whatever the objects' sizes.  Returns
        ``{oid: bytes}`` (duplicates collapse to one entry).
        """
        results: Dict[ObjectID, bytes] = {}
        by_home: Dict[str, List[Tuple[ObjectID, int, Future]]] = {}
        for oid in oids:
            if oid in results:
                continue
            entry = self._cache.get(oid)
            if entry is not None:
                self._n_cache_hit[0] += 1
                self._touch(oid)
                results[oid] = bytes(entry.data)
                continue
            if self._home_of(oid) == self.host.name:
                directory = self._home_directory(oid)
                if directory.owner is not None:
                    yield from self._home_local_barrier(oid, PERM_SHARED)
                self.tracer.count("coherence.home_hit")
                results[oid] = bytes(directory.data)
                continue
            if self._pool_read(oid):
                # The proxy resolver's fast path: the whole image comes
                # out of the rack pool in one load, no packets.
                self.tracer.count("coherence.pool_hit")
                results[oid] = yield from self._pool.load(oid)
                continue
            self._n_read_miss[0] += 1
            req_id, future = self._request("bulk")
            by_home.setdefault(self._home_of(oid), []).append(
                (oid, req_id, future))
        for home, wanted in by_home.items():
            reqs = [{"oid": oid, "req_id": req_id}
                    for oid, req_id, _ in wanted]
            self._send_acquire(home, PERM_SHARED, reqs)
        for home, wanted in by_home.items():
            for oid, _, future in wanted:
                results[oid] = bytes((yield future).data)
        return results

    def write(self, oid: ObjectID, offset: int, data: bytes):
        """Process: acquire Modified (if needed) and apply the store."""
        home = self._home_of(oid)
        entry = self._cache.get(oid)
        if entry is not None and entry.perm == PERM_MODIFIED:
            self._n_cache_hit[0] += 1
            self._touch(oid)
        elif entry is not None and entry.perm == PERM_SHARED and home != self.host.name:
            # §3.2's "upgrade access type": S -> M without re-shipping
            # the data we already hold (unless a concurrent writer
            # invalidated us while the upgrade was in flight).
            self._n_upgrade[0] += 1
            entry = yield from self._acquire(oid, PERM_MODIFIED, upgrade=True)
        elif home == self.host.name:
            # Home writes still invalidate remote copies first.
            directory = self._home_directory(oid)
            self._check_range(oid, len(directory.data), offset, len(data))
            yield from self._home_local_barrier(oid, PERM_MODIFIED)
            # A pool mapping would now serve stale bytes: drop it so
            # rack readers fall back to the (coherent) packet path.
            self._pool_invalidate(oid)
            directory.data[offset : offset + len(data)] = data
            self.tracer.count("coherence.home_write")
            return
        else:
            self._n_write_miss[0] += 1
            entry = yield from self._acquire(oid, PERM_MODIFIED)
        self._check_range(oid, len(entry.data), offset, len(data))
        entry.data[offset : offset + len(data)] = data
        entry.dirty = True

    def writeback(self, oid: ObjectID):
        """Process: release a Modified copy back to the home (voluntary)."""
        entry = self._cache.get(oid)
        if entry is None:
            raise CoherenceError(f"{self.host.name} has no cached copy of {oid.short()}")
        req_id, future = self._request("release")
        self.host.send(release_packet(
            self.host.name, self._home_of(oid), oid, req_id, entry.perm,
            bytes(entry.data) if entry.dirty else None))
        self._forget(oid)
        yield future

    def cached_perm(self, oid: ObjectID) -> Optional[str]:
        """The local cache permission for ``oid`` (S/M/None)."""
        entry = self._cache.get(oid)
        return entry.perm if entry else None

    def authoritative_data(self, oid: ObjectID) -> bytes:
        """Home-side accessor for tests/benchmarks."""
        directory = self._directory.get(oid)
        if directory is None:
            raise CoherenceError(f"{self.host.name} is not home of {oid.short()}")
        return bytes(directory.data)

    # -- requester side -----------------------------------------------------
    def _send_acquire(self, home: str, perm: str,
                      reqs: List[Dict[str, Any]]) -> None:
        self._n_acquire_pkts[0] += 1
        if len(reqs) > 1:
            self.tracer.count("coherence.batch.multi_acquire")
        self.host.send(acquire_packet(self.host.name, home, perm, reqs))

    def _request(self, label: str) -> Tuple[int, Future]:
        req_id = next(_req_ids)
        future = self._pending[req_id] = Future(
            self.sim, name=f"{label}-{req_id}")
        return req_id, future

    def _acquire(self, oid: ObjectID, perm: str, upgrade: bool = False):
        """Process: one acquisition, one wait.  ``upgrade`` asks for
        S -> M: the grant carries data only if our shared copy was
        invalidated while the request was in flight."""
        req_id, future = self._request("upgrade" if upgrade else "acquire")
        req: Dict[str, Any] = {"oid": oid, "req_id": req_id}
        if upgrade:
            req["upgrade"] = True
        self._send_acquire(self._home_of(oid), perm, [req])
        got = yield future
        # A Shared copy was installed as its grant arrived (_arrived); a
        # Modified one is installed here, in the step that applies the
        # store, so no eviction can come between the two.
        return self._fill(got) if perm == PERM_MODIFIED else got

    def _fill(self, granted: Dict[str, Any]) -> _CacheEntry:
        """Install a granted copy (an upgrade that kept its data flips in
        place) and answer, one event later, the probes held for it."""
        oid = granted["oid"]
        entry = self._cache.get(oid)
        if granted["data"] is not None or entry is None:
            entry = self._install(oid, _CacheEntry(
                bytearray(granted["data"]), granted["perm"],
                granted.get("dirty", False)))
        else:
            entry.perm = PERM_MODIFIED
            self._touch(oid)
        del self._pending[granted["req_id"]]
        for home, probe in self._held.pop(granted["req_id"], ()):
            self.sim.schedule(0.0, self._probed, home, [probe])
        return entry

    def _arrived(self, req_id: int, acks: int,
                 grant: Optional[Dict[str, Any]] = None) -> None:
        """A grant (which says how many invalidation acks the sharers owe
        us) or one such ack (``acks=-1``) came in; complete the wait when
        the grant and every ack have, in either order."""
        future = self._pending.get(req_id)
        if future is None:
            self.tracer.count("coherence.orphan_grant" if grant
                              else "coherence.orphan_probe_ack")
            return
        if acks or req_id in self._owed:
            state = self._owed.setdefault(req_id, [0, None])
            state[0] += acks
            grant = state[1] = grant or state[1]
            if state[0] or grant is None:
                return
            del self._owed[req_id]
        future.set_result(
            self._fill(grant) if grant["perm"] == PERM_SHARED else grant)

    def _home_local_barrier(self, oid: ObjectID, perm: str):
        """Recall/invalidate remote copies before a home-side access.

        Implemented by acquiring through our own directory via the same
        queued path remote requesters use, which keeps the serialization
        discipline in one place.  ``perm=S`` recalls an exclusive owner;
        ``perm=M`` also invalidates every sharer.
        """
        directory = self._home_directory(oid)
        if not directory.sharers and directory.owner is None:
            return
        req_id, future = self._request("homebarrier")
        txn = _Txn(self.host.name, req_id, perm, home_local=True)
        self._admit(oid, directory, txn)
        yield future
        # The grant for a home-local barrier carries no data we need.
        self._forget(oid)

    def _on_grant(self, packet: Packet) -> None:
        for entry in packet.payload["grants"]:
            if not entry.get("nack"):
                self._arrived(entry["req_id"], entry.get("acks", 0), entry)
                continue
            future = self._pending.pop(entry["req_id"], None)
            if future is None:
                self.tracer.count("coherence.orphan_grant")
                continue
            # The home refused: it never hosted this object (stale home
            # map).  Fault the waiting coroutine instead of leaving it
            # parked on the future forever.
            oid = entry["oid"]
            future.set_exception(CoherenceError(
                f"acquire {entry['perm']} of {oid.short()} NACKed by "
                f"{packet.src}: not the home (stale home map?)"))

    def _on_release_ack(self, packet: Packet) -> None:
        req_id = packet.payload["req_id"]
        oid = self._evict_inflight.pop(req_id, None)
        if oid is not None:
            # A fire-and-forget eviction release completed: the home has
            # the data, so the race buffer can let go of it.
            pending = self._evicting.get(oid)
            if pending is not None and pending[0] == req_id:
                del self._evicting[oid]
            return
        future = self._pending.pop(req_id, None)
        if future is not None:
            future.set_result(None)

    # -- home / directory side ------------------------------------------------
    def _on_acquire(self, packet: Packet) -> None:
        perm = packet.payload["perm"]
        for req in packet.payload["reqs"]:
            oid = req["oid"]
            directory = self._directory.get(oid)
            if directory is None:
                # Not our object (stale home map at the requester).  A
                # silent drop would leave the requester's future pending
                # forever, so answer with a NACK grant entry instead.
                self.tracer.count("coherence.bad_home")
                self._queue_grant(packet.src, {
                    "req_id": req["req_id"],
                    "oid": oid,
                    "perm": perm,
                    "data": None,
                    "nack": True,
                })
                continue
            txn = _Txn(packet.src, req["req_id"], perm,
                       upgrade=bool(req.get("upgrade")))
            self._admit(oid, directory, txn)

    def _admit(self, oid: ObjectID, directory: _DirectoryEntry,
               txn: _Txn) -> None:
        if directory.busy:
            directory.pending.append(txn)
            return
        directory.busy = txn
        self._start_transaction(oid, directory, txn)

    def _start_transaction(self, oid: ObjectID, directory: _DirectoryEntry,
                           txn: _Txn) -> None:
        # Who stands between this request and a legal grant?  Either an
        # exclusive owner (then nobody else holds a copy) or, for a
        # write, the other sharers.
        owner = directory.owner if directory.owner != txn.requester else None
        others = [owner] if owner else sorted(
            directory.sharers - {txn.requester}
            if txn.perm == PERM_MODIFIED else ())
        if owner is None and not (others and txn.home_local):
            # Nobody, or sharers only: the home's bytes are good, so it
            # grants at once and the requester collects the sharers' acks.
            self._grant(oid, directory, txn, others)
            return
        # The owner forwards the line to the requester and acks us; the
        # home's own barrier (it keeps no copy to forward to) has every
        # holder ack the home instead.  The line stays busy until then.
        self._collect[(oid, (txn.requester, txn.req_id))] = {
            "txn": txn, "waiting": set(others)}
        for target in others:
            self._probe(target, oid, directory, txn,
                        forward=not txn.home_local)

    def _probe(self, target: str, oid: ObjectID, directory: _DirectoryEntry,
               txn: _Txn, **reply: bool) -> None:
        """Queue one probe.  ``via`` names the acquisition that made
        ``target`` a holder: its grant may not have come from us, so it
        may still be on its way, and the target holds the probe for it."""
        self._n_probe[0] += 1
        # A Shared acquisition only needs the exclusive owner *downgraded*
        # to Shared (with writeback); Modified needs everyone at Invalid.
        self._queue_probe(target, {
            "oid": oid, "req_key": [txn.requester, txn.req_id],
            "downgrade_to": PERM_SHARED if txn.perm == PERM_SHARED else "I",
            "via": directory.via.get(target), **reply})

    # -- probe fan-out batching ----------------------------------------------
    def _queue_probe(self, target: str, probe: Dict[str, Any]) -> None:
        self._probe_out.setdefault(target, []).append(probe)
        if target not in self._probe_flush:
            self._probe_flush[target] = self.sim.schedule(
                0.0, self._flush_probes, target)

    def _flush_probes(self, target: str) -> None:
        self._probe_flush.pop(target, None)
        probes = self._probe_out.pop(target, None)
        if not probes:
            return
        self._n_probe_pkts[0] += 1
        if len(probes) > 1:
            self.tracer.count("coherence.batch.multi_probe")
        self.host.send(probe_packet(self.host.name, target, probes))

    def _on_probe(self, packet: Packet) -> None:
        self._probed(packet.src, packet.payload["probes"])

    def _probed(self, home: str, probes: List[Dict[str, Any]]) -> None:
        acks: Dict[str, List[Dict[str, Any]]] = {}
        for probe in probes:
            if probe.get("via") in self._pending:
                # The copy this probe is after is still on its way to us
                # (its grant took another path than the probe): hold the
                # probe until it is installed, or we would answer "not
                # present" and then install a copy nobody can revoke.  A
                # probe for an older copy is answered at once: our wait
                # may be queued at the home behind the prober's.
                self._n_probe_deferred[0] += 1
                self._held.setdefault(probe["via"], []).append((home, probe))
                continue
            oid = probe["oid"]
            requester, req_id = probe["req_key"]
            downgrade_to = probe.get("downgrade_to", "I")
            entry = self._cache.get(oid)
            ack: Dict[str, Any] = {"oid": oid, "req_key": probe["req_key"]}
            acks.setdefault(requester if probe.get("ack_requester") else home,
                            []).append(ack)
            if entry is None:
                # The directory thinks we hold a copy but we already let
                # go of it (silent-drop eviction, or a release still in
                # flight).  Answer "not present" so the home prunes us;
                # if a dirty eviction's writeback is racing this probe,
                # piggyback its data so the home never grants stale bytes.
                ack["present"] = False
                racing = self._evicting.get(oid)
                if racing is not None:
                    ack["data"] = racing[1]
                continue
            handed_over = False
            if probe.get("forward"):
                # We own the line: send it (and, when we give it up, the
                # duty to write it back) straight to the requester.
                self._n_forwarded[0] += 1
                ack["forwarded"] = True
                handed_over = entry.dirty and downgrade_to == "I"
                self._queue_grant(requester, {
                    "req_id": req_id, "oid": oid, "data": bytes(entry.data),
                    "perm": PERM_SHARED if downgrade_to == PERM_SHARED
                    else PERM_MODIFIED, "dirty": handed_over})
            if entry.dirty and not handed_over:
                ack["data"] = bytes(entry.data)
            if downgrade_to == PERM_SHARED:
                # M -> S: keep the (now clean) copy for future local reads.
                entry.perm = PERM_SHARED
                entry.dirty = False
                ack["kept_shared"] = True
                self._n_downgraded[0] += 1
            else:
                self._forget(oid)
                self._n_invalidated[0] += 1
                for callback in self._invalidation_listeners:
                    callback(oid)
        for target, batch in acks.items():
            self.host.send(probe_ack_packet(self.host.name, target, batch))

    def _on_probe_ack(self, packet: Packet) -> None:
        for ack in packet.payload["acks"]:
            oid = ack["oid"]
            key = tuple(ack["req_key"])
            state = self._collect.get((oid, key))
            if state is None:
                # Not a transaction of ours: a sharer's invalidation ack
                # for a write we are waiting on ourselves.
                self._n_ack_collected[0] += 1
                self._arrived(key[1], -1)
                continue
            directory = self._directory[oid]
            if ack.get("present") is False:
                # The holder silently dropped (or is releasing) its copy:
                # prune the stale sharer/owner instead of hanging the
                # transaction waiting for an invalidation that already
                # happened.
                self.tracer.count("coherence.probe_stale")
            if "data" in ack:  # dirty writeback piggybacked on the ack
                directory.data[:] = ack["data"]
            if ack.get("kept_shared"):
                # The owner downgraded M -> S: it stays a sharer.
                directory.sharers.add(packet.src)
            else:
                directory.sharers.discard(packet.src)
            if directory.owner == packet.src:
                directory.owner = None
            state["waiting"].discard(packet.src)
            if not state["waiting"]:
                del self._collect[(oid, key)]
                if ack.get("forwarded"):
                    self._name_holder(oid, directory, state["txn"])
                    self._finish_transaction(oid, directory)
                else:
                    self._grant(oid, directory, state["txn"])

    # -- grant coalescing -----------------------------------------------------
    def _name_holder(self, oid: ObjectID, directory: _DirectoryEntry,
                     txn: _Txn) -> None:
        if txn.perm == PERM_MODIFIED:
            # MSI stays authoritative over the pool: the mapping is
            # dropped before any writer can touch the data, so a pool
            # load can never observe post-grant bytes.
            self._pool_invalidate(oid)
            directory.sharers.clear()
            directory.owner = txn.requester
        else:
            directory.sharers.add(txn.requester)
        directory.via[txn.requester] = txn.req_id

    def _grant(self, oid: ObjectID, directory: _DirectoryEntry,
               txn: _Txn, ack_from: Sequence[str] = ()) -> None:
        """Grant from the home's bytes.  Sharers in ``ack_from`` are told
        to invalidate and ack the requester, which the grant tells how
        many acks to wait for; the directory moves on at once."""
        requester = txn.requester
        # An upgrade grant omits the data while the requester still holds
        # a valid shared copy; if an earlier transaction invalidated it,
        # ship fresh data (checked before we mutate the sharer set).
        upgrade_without_data = txn.upgrade and requester in directory.sharers
        entry = {
            "req_id": txn.req_id,
            "oid": oid,
            "perm": txn.perm,
            "data": None if upgrade_without_data else bytes(directory.data),
        }
        if ack_from:
            entry["acks"] = len(ack_from)
        for target in ack_from:
            self._probe(target, oid, directory, txn, ack_requester=True)
        self._name_holder(oid, directory, txn)
        self._n_grant[0] += 1
        if upgrade_without_data:
            self._n_upgrade_ack[0] += 1
        if txn.home_local:
            # Local barrier: complete without touching the network.
            directory.owner = None
            directory.sharers.discard(self.host.name)
            future = self._pending.pop(txn.req_id, None)
            if future is not None:
                future.set_result(entry)
        else:
            self._queue_grant(requester, entry)
        self._finish_transaction(oid, directory)

    def _queue_grant(self, requester: str, entry: Dict[str, Any]) -> None:
        """Coalesce grants completing at the same instant toward the
        same requester into one multi-oid grant packet (the sequential
        scan's reply-side half)."""
        self._grant_out.setdefault(requester, []).append(entry)
        if requester not in self._grant_flush:
            self._grant_flush[requester] = self.sim.schedule(
                0.0, self._flush_grants, requester)

    def _flush_grants(self, requester: str) -> None:
        self._grant_flush.pop(requester, None)
        grants = self._grant_out.pop(requester, None)
        if not grants:
            return
        self._n_grant_pkts[0] += 1
        if len(grants) > 1:
            self.tracer.count("coherence.batch.multi_grant")
        self.host.send(grant_packet(self.host.name, requester, grants))

    def _finish_transaction(self, oid: ObjectID, directory: _DirectoryEntry) -> None:
        directory.busy = None
        while directory.pending and directory.busy is None:
            waiting = directory.pending.popleft()
            if isinstance(waiting, Packet):
                self._on_release(waiting)
            else:
                directory.busy = waiting
                self._start_transaction(oid, directory, waiting)

    def _on_release(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        directory = self._directory.get(oid)
        if directory is None:
            self.tracer.count("coherence.bad_home")
            return
        if directory.busy and directory.busy.requester == packet.src:
            # The requester of the transfer in flight already lets the
            # line go (the owner's grant reached it before the owner's
            # ack reached us): record the transfer first, or its bytes
            # would count as a stranger's and be dropped.
            directory.pending.appendleft(packet)
            return
        if "data" in packet.payload and directory.owner in (None, packet.src):
            # Apply the writeback unless ownership has already moved on
            # (an eviction release racing a probe that re-granted M): the
            # new owner's copy supersedes these bytes.
            directory.data[:] = packet.payload["data"]
        directory.sharers.discard(packet.src)
        if directory.owner == packet.src:
            directory.owner = None
        self.host.send(Packet(
            kind=MSG_RELEASE_ACK, src=self.host.name, dst=packet.src, oid=oid,
            payload={"req_id": packet.payload["req_id"]},
            payload_bytes=COHERENCE_ENTRY_BYTES,
        ))
