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

**One frame.**  All six kinds are ``coherence_packet(kind, src, dst,
entries)``: raw host-addressed packets with the matching done here, so
the frame can ride either transport.  An entry is a plain dict::

  kind             an entry carries              and, when it applies
  coh.acquire      oid, req_id, perm             upgrade (S -> M, no data)
  coh.grant        oid, req_id, perm, data       acks owed, dirty, nack
  coh.probe_inv    oid, req_key, downgrade_to,   forward (owner grants),
                   via (the hold rule)           ack_requester
  coh.probe_ack    oid, req_key                  data, forwarded,
                                                 kept_shared, present=False
  coh.release      req_id, perm (oid in header)  data (the copy was dirty)
  coh.release_ack  req_id (oid in header)

Frames batch: a scan's acquisitions travel one acquire per home
(:meth:`CoherenceAgent.read_many`), and the grants and probes one
arrival fans out leave one frame per peer (``_queue`` / ``_flush``).

**One wait, four tables.**  Every wait is the ``_Wait`` ``_request()``
makes; the home's per-transaction state is the ``_Txn`` in
``directory.busy``; an agent keeps nothing else but::

  table        holds                                   emptied by
  _pending     req_id -> wait (its grant, the acks     _fill, the release-ack,
               owed, the probes held for it)           a barrier's grant, a NACK
  _acquiring   oid -> the wait fetching that line,     _fill, a NACK
               which later local accesses wait on
  _evicting    oid -> (req_id, bytes, timer) of a      the release-ack naming
               dirty eviction a racing probe may need  that req_id
  _out         (kind, peer) -> entries queued at       _flush, one zero-delay
               this instant                            event later

**Every wait ends**, as does every ``_evicting`` entry, at ``DEADLINE_US``
(100 ms; no bench scenario waits 6 ms).  An expired wait leaves the
tables, answers its held probes one event later as ``_fill`` does, and
raises :class:`CoherenceTimeout` in every process on it; its late grant
is dropped as a duplicate.  Nothing is resent (item 9): a lost probe or
ack parks the home's transaction, a lost O>R grant loses its bytes.

Caches are **capacity-bounded**: ``capacity_bytes`` evicts LRU lines on
insert.  A Modified line is written back (a release nobody waits on); a
Shared one follows ``shared_evict_policy``: ``notify`` releases it,
``silent_drop`` lets the home find out on its next probe (the ack says
"not present" and the home prunes instead of hanging).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.objectid import ObjectID
from ..sim import Future, Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .pool import SharedMemoryPool
from .messages import (
    MSG_ACQUIRE,
    MSG_GRANT,
    MSG_PROBE_ACK,
    MSG_PROBE_INVALIDATE,
    MSG_RELEASE,
    MSG_RELEASE_ACK,
    coherence_packet,
)

__all__ = [
    "CoherenceAgent",
    "CoherenceError",
    "CoherenceTimeout",
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


class CoherenceTimeout(CoherenceError):
    """A wait outlived :attr:`CoherenceAgent.DEADLINE_US` (module docstring)."""


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

    __slots__ = ("requester", "req_id", "perm", "upgrade", "home_local",
                 "waiting")

    def __init__(self, requester: str, req_id: int, perm: str,
                 upgrade: bool = False, home_local: bool = False):
        self.requester = requester
        self.req_id = req_id
        self.perm = perm
        self.upgrade = upgrade
        self.home_local = home_local
        # Holders whose probe acks the home collects, while it is busy.
        self.waiting: Optional[Set[str]] = None


class _Wait(Future):
    """The one wait of this module: an acquisition, a voluntary release
    or a home barrier, in ``_pending`` under ``req_id`` until it is over."""

    req_id = 0
    owed = 0      # invalidation acks still to come (negative: before the grant)
    grant: Optional[Dict[str, Any]] = None    # the grant entry, once it is in
    held: Tuple[Tuple[str, Dict[str, Any]], ...] = ()  # (home, probe) held for it
    store: Optional[Tuple[int, bytes]] = None  # a home barrier's (offset, data)


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

    DEADLINE_US = 100_000.0  # every wait's (module docstring)

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
        self._n_probe = self.tracer.cell("coherence.probe")
        self._n_downgraded = self.tracer.cell("coherence.downgraded")
        self._n_invalidated = self.tracer.cell("coherence.invalidated")
        self._n_grant = self.tracer.cell("coherence.grant")
        self._n_upgrade_ack = self.tracer.cell("coherence.upgrade_ack")
        self._n_forwarded = self.tracer.cell("coherence.forwarded")
        self._n_probe_deferred = self.tracer.cell("coherence.probe_deferred")
        self._n_ack_collected = self.tracer.cell("coherence.ack_collected")
        self._n_evict_modified = self.tracer.cell("coherence.evict.modified")
        self._n_evict_writeback = self.tracer.cell("coherence.evict.writeback")
        self._n_evict_shared = self.tracer.cell("coherence.evict.shared")
        # The kinds that batch: frames sent, and the key counting those
        # of more than one entry.
        self._n_frames = {
            MSG_ACQUIRE: (self.tracer.cell("coherence.batch.acquire_pkts"),
                          "coherence.batch.multi_acquire"),
            MSG_PROBE_INVALIDATE: (
                self.tracer.cell("coherence.batch.probe_pkts"),
                "coherence.batch.multi_probe"),
            MSG_GRANT: (self.tracer.cell("coherence.batch.grant_pkts"),
                        "coherence.batch.multi_grant"),
        }
        self.capacity_bytes = capacity_bytes
        self.shared_evict_policy = shared_evict_policy
        # LRU order: oldest entry first; hits move_to_end.
        self._cache: "OrderedDict[ObjectID, _CacheEntry]" = OrderedDict()
        self._cache_bytes = 0
        self._directory: Dict[ObjectID, _DirectoryEntry] = {}
        # The four tables of the module docstring.
        self._pending: Dict[int, _Wait] = {}
        self._acquiring: Dict[ObjectID, _Wait] = {}
        self._evicting: Dict[ObjectID, Tuple[int, bytes, list]] = {}
        self._out: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        host.on(MSG_ACQUIRE, self._on_acquire)
        host.on(MSG_GRANT, self._on_grant)
        host.on(MSG_PROBE_INVALIDATE, self._on_probe)
        host.on(MSG_PROBE_ACK, self._on_probe_ack)
        host.on(MSG_RELEASE, self._on_release)
        host.on(MSG_RELEASE_ACK, self._on_release_ack)
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
    def _check_range(oid: ObjectID, size: int, offset: int,
                     length: Optional[int]) -> int:
        """Fault accesses outside the object's backing bytes; returns the
        end of the range (``length=None``: the end of the object).

        Slice assignment past the end of a ``bytearray`` silently grows
        it, so an unchecked store would resize the object instead of
        faulting like real memory."""
        end = size if length is None else offset + length
        if not 0 <= offset <= end <= size:
            raise CoherenceError(
                f"range [{offset}:{end}) out of bounds for "
                f"{oid.short()} ({size} bytes)")
        return end

    # -- capacity-bounded cache management ------------------------------------
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
            for victim in self._cache:
                # Not the line just inserted, and not one a process of
                # this host is upgrading: its data-less grant counts on
                # the Shared copy.
                if victim != keep and victim not in self._acquiring:
                    break
            else:
                # Nothing to evict (a single object larger than the whole
                # cache): it stays resident until the next insert.
                return
            self._evict_one(victim)

    def _evict_one(self, oid: ObjectID) -> None:
        entry = self._forget(oid)
        assert entry is not None
        for callback in self._invalidation_listeners:
            callback(oid)
        if entry.perm == PERM_MODIFIED:
            self._n_evict_modified[0] += 1
        else:
            self._n_evict_shared[0] += 1
            if self.shared_evict_policy != EVICT_NOTIFY:
                # silent_drop: say nothing; the directory keeps us as a
                # sharer until its next probe comes back "not present".
                return
        # A release nobody waits on: its ack only empties _evicting.
        req_id = next(_req_ids)
        release: Dict[str, Any] = {"req_id": req_id, "perm": entry.perm}
        if entry.dirty:
            self._n_evict_writeback[0] += 1
            release["data"] = bytes(entry.data)
            self._evicting[oid] = (req_id, release["data"], self.sim.schedule(
                self.DEADLINE_US, self._expire_eviction, oid, req_id))
        self.host.send(coherence_packet(
            MSG_RELEASE, self.host.name, self._home_of(oid), [release], oid))

    # -- public operations (generator processes) -------------------------------
    def read(self, oid: ObjectID, offset: int = 0, length: Optional[int] = None):
        """Process: acquire Shared (if needed) and return the bytes
        (``length=None``: to the end of the object)."""
        while oid in self._acquiring:
            # Another process of this host is fetching the line: a second
            # acquisition would be answered from bytes the first is about
            # to make stale.  Wait for it, then look again.
            yield self._acquiring[oid]
        entry = self._cache.get(oid)
        if entry is not None:
            self._n_cache_hit[0] += 1
            self._touch(oid)
        elif self._home_of(oid) == self.host.name:
            directory = self._home_directory(oid)
            end = self._check_range(oid, len(directory.data), offset, length)
            if directory.owner is not None:
                # A remote Modified copy exists: recall it before reading.
                yield from self._home_local_barrier(oid, directory, PERM_SHARED)
            return bytes(directory.data[offset:end])
        elif self._pool_read(oid):
            # Pool-mapped: one load through the rack pool, no packets.
            # No cache entry is installed (a load is a one-shot access,
            # not a cache fill), so we owe the directory nothing.
            self.tracer.count("coherence.pool_hit")
            return (yield from self._pool.load(oid, offset, length))
        else:
            self._n_read_miss[0] += 1
            entry = yield from self._acquire(oid, PERM_SHARED)
        return bytes(entry.data[
            offset:self._check_range(oid, len(entry.data), offset, length)])

    def read_many(self, oids: Iterable[ObjectID], offset: int = 0,
                  length: Optional[int] = None):
        """Process: read the same range of many objects (``length=None``:
        each to its end), batching the acquisitions per home.

        A sequential-scan reader over N uncached, conflict-free objects
        with one home costs one acquire packet and one grant packet,
        instead of N of each.  A line named twice is fetched once."""
        oids = list(oids)
        results: Dict[ObjectID, bytes] = {}
        by_home: Dict[str, List[Tuple[ObjectID, _Wait]]] = {}
        for oid in dict.fromkeys(oids):
            home = self._home_of(oid)
            if (oid in self._cache or oid in self._acquiring
                    or home == self.host.name or self._pool_read(oid)):
                # Cached, being fetched, home-resident or pool-mapped: the
                # single-object path serves these without a new acquire.
                results[oid] = yield from self.read(oid, offset, length)
                continue
            self._n_read_miss[0] += 1
            wait = self._acquiring[oid] = self._request("scan")
            by_home.setdefault(home, []).append((oid, wait))
        for home, wanted in by_home.items():
            self._flush(MSG_ACQUIRE, home, [
                {"oid": oid, "req_id": wait.req_id, "perm": PERM_SHARED}
                for oid, wait in wanted])
        for wanted in by_home.values():
            for oid, wait in wanted:
                data = (yield wait).data
                results[oid] = bytes(data[
                    offset:self._check_range(oid, len(data), offset, length)])
        return [results[oid] for oid in oids]

    def read_objects(self, oids: Iterable[ObjectID]):
        """Process: the *full images* of many objects as ``{oid: bytes}``,
        fetched like :meth:`read_many` (one batched acquisition per home,
        whatever the objects' sizes): what the lazy-proxy resolver needs
        per reachability-walk level."""
        oids = list(oids)
        return dict(zip(oids, (yield from self.read_many(oids))))

    def write(self, oid: ObjectID, offset: int, data: bytes):
        """Process: acquire Modified (if needed) and apply the store."""
        while oid in self._acquiring:
            yield self._acquiring[oid]      # as in read()
        home = self._home_of(oid)
        entry = self._cache.get(oid)
        if entry is not None and entry.perm == PERM_MODIFIED:
            self._n_cache_hit[0] += 1
            self._touch(oid)
        elif entry is not None and home != self.host.name:
            # §3.2's "upgrade access type": S -> M without re-shipping
            # the data we already hold (unless a concurrent writer
            # invalidated us while the upgrade was in flight).
            self._n_upgrade[0] += 1
            entry = yield from self._acquire(oid, PERM_MODIFIED, upgrade=True)
        elif home == self.host.name:
            # Home writes still invalidate remote copies first; the store
            # lands in the step that ends the barrier.
            directory = self._home_directory(oid)
            self._check_range(oid, len(directory.data), offset, len(data))
            yield from self._home_local_barrier(oid, directory, PERM_MODIFIED,
                                                (offset, data))
            return
        else:
            self._n_write_miss[0] += 1
            entry = yield from self._acquire(oid, PERM_MODIFIED)
        self._check_range(oid, len(entry.data), offset, len(data))
        entry.data[offset : offset + len(data)] = data
        entry.dirty = True

    def writeback(self, oid: ObjectID):
        """Process: release a Modified copy back to the home (voluntary)."""
        entry = self._forget(oid)
        if entry is None:
            raise CoherenceError(f"{self.host.name} has no cached copy of {oid.short()}")
        wait = self._request("release")
        release: Dict[str, Any] = {"req_id": wait.req_id, "perm": entry.perm}
        if entry.dirty:
            release["data"] = bytes(entry.data)
        self.host.send(coherence_packet(
            MSG_RELEASE, self.host.name, self._home_of(oid), [release], oid))
        yield wait

    def cached_perm(self, oid: ObjectID) -> Optional[str]:
        """The local cache permission for ``oid`` (S/M/None)."""
        entry = self._cache.get(oid)
        return entry.perm if entry else None

    def authoritative_data(self, oid: ObjectID) -> bytes:
        """Home-side accessor for tests/benchmarks."""
        return bytes(self._home_directory(oid).data)

    # -- frames out -----------------------------------------------------------
    def _flush(self, kind: str, peer: str,
               entries: Optional[List[Dict[str, Any]]] = None) -> None:
        """One frame of a batching kind leaves for ``peer``: the batch
        ``_queue`` holds for it, or ``entries`` that never waited."""
        if entries is None:
            entries = self._out.pop((kind, peer))
        sent, multi = self._n_frames[kind]
        sent[0] += 1
        if len(entries) > 1:
            self.tracer.count(multi)
        self.host.send(coherence_packet(kind, self.host.name, peer, entries))

    def _queue(self, kind: str, peer: str, entry: Dict[str, Any]) -> None:
        """Coalesce the grants (or probes) of this instant toward one
        peer into one frame: everything a single arrival fans out to
        leaves a zero-delay event later, one wire packet per peer."""
        batch = self._out.get((kind, peer))
        if batch is None:
            batch = self._out[(kind, peer)] = []
            self.sim.schedule(0.0, self._flush, kind, peer)
        batch.append(entry)

    # -- requester side -----------------------------------------------------
    def _request(self, label: str) -> _Wait:
        """The one place a wait is made, and its deadline armed."""
        req_id = next(_req_ids)
        wait = self._pending[req_id] = _Wait(self.sim, f"{label}-{req_id}")
        wait.req_id = req_id
        wait.timer = self.sim.schedule(self.DEADLINE_US, self._expire, wait)
        return wait

    def _expire(self, wait: _Wait) -> None:
        """A wait outlived its deadline (module docstring)."""
        del self._pending[wait.req_id]
        for oid in [o for o, w in self._acquiring.items() if w is wait]:
            del self._acquiring[oid]
        for home, probe in wait.held:
            self.sim.schedule(0.0, self._probed, home, [probe])
        self.tracer.count("coherence.timeout")
        wait.set_exception(CoherenceTimeout(f"{wait.name} on {self.host.name}"))

    def _acquire(self, oid: ObjectID, perm: str, upgrade: bool = False):
        """Process: one acquisition, one wait.  ``upgrade`` asks for
        S -> M: the grant carries data only if our shared copy was
        invalidated while the request was in flight."""
        wait = self._acquiring[oid] = self._request(
            "upgrade" if upgrade else "acquire")
        req: Dict[str, Any] = {"oid": oid, "req_id": wait.req_id, "perm": perm}
        if upgrade:
            req["upgrade"] = True
        self._flush(MSG_ACQUIRE, self._home_of(oid), [req])
        got = yield wait
        # A Shared copy was installed as its grant arrived (_arrived); a
        # Modified one is installed here, in the step that applies the
        # store, so no eviction can come between the two.
        return self._fill(got) if perm == PERM_MODIFIED else got

    def _fill(self, granted: Dict[str, Any]) -> _CacheEntry:
        """Install a granted copy (an upgrade that kept its data flips in
        place), end its wait and answer, one event later, the probes
        held for it."""
        oid = granted["oid"]
        wait = self._pending.pop(granted["req_id"])
        del self._acquiring[oid]
        entry = self._cache.get(oid)
        if granted["data"] is not None or entry is None:
            entry = self._install(oid, _CacheEntry(
                bytearray(granted["data"]), granted["perm"],
                granted.get("dirty", False)))
        else:
            entry.perm = PERM_MODIFIED
            self._touch(oid)
        for home, probe in wait.held:
            self.sim.schedule(0.0, self._probed, home, [probe])
        return entry

    def _arrived(self, req_id: int, acks: int,
                 grant: Optional[Dict[str, Any]] = None) -> None:
        """A grant (which says how many invalidation acks the sharers owe
        us) or one such ack (``acks=-1``) came in; complete the wait when
        the grant and every ack have, in either order."""
        wait = self._pending.get(req_id)
        if wait is None:
            return  # no pending request: a duplicate delivery
        wait.owed += acks
        grant = wait.grant = grant or wait.grant
        if wait.owed == 0 and grant is not None:
            self.sim.cancel(wait.timer)
            wait.set_result(
                self._fill(grant) if grant["perm"] == PERM_SHARED else grant)

    def _home_local_barrier(self, oid: ObjectID, directory: _DirectoryEntry,
                            perm: str, store: Optional[Tuple[int, bytes]] = None):
        """Recall/invalidate remote copies before a home-side access, and
        apply the home's ``store`` in the step that ends the barrier: the
        next queued acquisition is granted in that same step, and must
        ship the new bytes.

        Implemented by acquiring through our own directory via the same
        queued path remote requesters use, which keeps the serialization
        discipline in one place.  ``perm=S`` recalls an exclusive owner;
        ``perm=M`` also invalidates every sharer.
        """
        if directory.sharers or directory.owner is not None or directory.busy:
            wait = self._request("homebarrier")
            wait.store = store
            self._admit(oid, directory, _Txn(self.host.name, wait.req_id, perm,
                                             home_local=True))
            yield wait
        elif store is not None:
            self._home_store(oid, directory, store)

    def _home_store(self, oid: ObjectID, directory: _DirectoryEntry,
                    store: Tuple[int, bytes]) -> None:
        offset, data = store
        # A pool mapping would now serve stale bytes: drop it so rack
        # readers fall back to the (coherent) packet path.
        self._pool_invalidate(oid)
        directory.data[offset : offset + len(data)] = data

    def _on_grant(self, packet: Packet) -> None:
        for entry in packet.payload["entries"]:
            if "nack" not in entry:
                self._arrived(entry["req_id"], entry.get("acks", 0), entry)
                continue
            wait = self._pending.pop(entry["req_id"], None)
            if wait is None:
                continue  # no pending request: a duplicate delivery
            # The home refused: it never hosted this object (stale home
            # map).  Fault the waiting coroutines now.
            oid = entry["oid"]
            del self._acquiring[oid]
            self.sim.cancel(wait.timer)
            wait.set_exception(CoherenceError(
                f"acquire {entry['perm']} of {oid.short()} NACKed by "
                f"{packet.src}: not the home (stale home map?)"))

    def _on_release_ack(self, packet: Packet) -> None:
        req_id = packet.payload["entries"][0]["req_id"]
        wait = self._pending.pop(req_id, None)
        if wait is not None:
            self.sim.cancel(wait.timer)
            wait.set_result(None)        # a voluntary writeback
            return
        racing = self._evicting.get(packet.oid)
        if racing is not None and racing[0] == req_id:
            # The home has this dirty eviction's bytes: the race buffer
            # can let go of them.
            self.sim.cancel(racing[2])
            del self._evicting[packet.oid]

    def _expire_eviction(self, oid: ObjectID, req_id: int) -> None:
        """No ack came for a dirty eviction's release: let its bytes go."""
        if self._evicting.get(oid, (None,))[0] == req_id:
            del self._evicting[oid]
            self.tracer.count("coherence.timeout")

    # -- home / directory side ------------------------------------------------
    def _on_acquire(self, packet: Packet) -> None:
        for req in packet.payload["entries"]:
            oid = req["oid"]
            directory = self._directory.get(oid)
            if directory is None:
                # Not our object (stale home map at the requester): a
                # NACK ends the requester's wait now, not at its deadline.
                self.tracer.count("coherence.bad_home")
                self._queue(MSG_GRANT, packet.src, {
                    "req_id": req["req_id"], "oid": oid, "perm": req["perm"],
                    "data": None, "nack": True})
                continue
            self._admit(oid, directory, _Txn(
                packet.src, req["req_id"], req["perm"], "upgrade" in req))

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
        txn.waiting = set(others)
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
        self._queue(MSG_PROBE_INVALIDATE, target, {
            "oid": oid, "req_key": [txn.requester, txn.req_id],
            "downgrade_to": PERM_SHARED if txn.perm == PERM_SHARED else "I",
            "via": directory.via.get(target), **reply})

    def _on_probe(self, packet: Packet) -> None:
        self._probed(packet.src, packet.payload["entries"])

    def _probed(self, home: str, probes: List[Dict[str, Any]]) -> None:
        acks: Dict[str, List[Dict[str, Any]]] = {}
        for probe in probes:
            wait = self._pending.get(probe["via"])
            if wait is not None:
                # The copy this probe is after is still on its way to us
                # (its grant took another path than the probe): hold the
                # probe until it is installed, or we would answer "not
                # present" and then install a copy nobody can revoke.  A
                # probe for an older copy is answered at once: our wait
                # may be queued at the home behind the prober's.
                self._n_probe_deferred[0] += 1
                wait.held += ((home, probe),)
                continue
            oid = probe["oid"]
            requester, req_id = probe["req_key"]
            downgrade_to = probe["downgrade_to"]
            entry = self._cache.get(oid)
            ack: Dict[str, Any] = {"oid": oid, "req_key": probe["req_key"]}
            acks.setdefault(requester if "ack_requester" in probe else home,
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
                self._queue(MSG_GRANT, requester, {
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
            self.host.send(coherence_packet(
                MSG_PROBE_ACK, self.host.name, target, batch))

    def _on_probe_ack(self, packet: Packet) -> None:
        for ack in packet.payload["entries"]:
            oid = ack["oid"]
            requester, req_id = ack["req_key"]
            directory = self._directory.get(oid)
            txn = directory.busy if directory is not None else None
            if (txn is None or txn.req_id != req_id
                    or txn.requester != requester):
                # Not the transaction we are collecting for: a sharer's
                # invalidation ack for a write we are waiting on ourselves.
                self._n_ack_collected[0] += 1
                self._arrived(req_id, -1)
                continue
            if ack.get("present") is False:
                # The holder silently dropped (or is releasing) its copy:
                # prune the stale sharer/owner instead of hanging the
                # transaction waiting for an invalidation that already
                # happened.
                self.tracer.count("coherence.probe_stale")
            if "data" in ack:  # dirty writeback piggybacked on the ack
                directory.data[:] = ack["data"]
            if "kept_shared" in ack:
                # The owner downgraded M -> S: it stays a sharer.
                directory.sharers.add(packet.src)
            else:
                directory.sharers.discard(packet.src)
            if directory.owner == packet.src:
                directory.owner = None
            txn.waiting.discard(packet.src)
            if txn.waiting:
                continue
            if "forwarded" in ack:
                self._name_holder(oid, directory, txn)
                self._finish_transaction(oid, directory)
            else:
                self._grant(oid, directory, txn)

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
        for target in ack_from:
            self._probe(target, oid, directory, txn, ack_requester=True)
        self._name_holder(oid, directory, txn)
        self._n_grant[0] += 1
        if upgrade_without_data:
            self._n_upgrade_ack[0] += 1
        if txn.home_local:
            # Local barrier: it ends here, without touching the network,
            # and the home's own store lands before the next grant.
            directory.owner = None
            directory.sharers.discard(self.host.name)
            wait = self._pending.pop(txn.req_id, None)
            if wait is not None:     # else it expired: its store is off
                self.sim.cancel(wait.timer)
                if wait.store is not None:
                    self._home_store(oid, directory, wait.store)
                wait.set_result(None)
        else:
            entry = {"req_id": txn.req_id, "oid": oid, "perm": txn.perm,
                     "data": None if upgrade_without_data
                     else bytes(directory.data)}
            if ack_from:
                entry["acks"] = len(ack_from)
            self._queue(MSG_GRANT, requester, entry)
        self._finish_transaction(oid, directory)

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
        release = packet.payload["entries"][0]
        if "data" in release and directory.owner in (None, packet.src):
            # Apply the writeback unless ownership has already moved on
            # (an eviction release racing a probe that re-granted M): the
            # new owner's copy supersedes these bytes.
            directory.data[:] = release["data"]
        directory.sharers.discard(packet.src)
        if directory.owner == packet.src:
            directory.owner = None
        self.host.send(coherence_packet(
            MSG_RELEASE_ACK, self.host.name, packet.src,
            [{"req_id": release["req_id"]}], oid))
