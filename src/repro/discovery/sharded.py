"""The sharded controller discovery plane with requester-side leases.

§4 concedes the controller scheme "may be less scalable" than E2E: one
controller host absorbs every advertisement and is a single point of
failure.  This module splits that directory across N controller hosts
and moves the hot path onto requester-side leases:

* :class:`ShardMap` — rendezvous (highest-random-weight) hashing of the
  128-bit object ID over the shard host names.  Every host derives the
  same map locally from the ID alone — no coordination traffic, the
  same philosophy as the paper's decentralized ID allocation.
* :class:`ShardDirectory` — one shard of the directory, attached to a
  controller host.  Stores ``{oid: owner}`` for the IDs that hash to
  it, acks advertisements (so owners can detect a dead shard), grants
  TTL leases on resolve, and pushes invalidations to outstanding lease
  holders when an advertisement changes an object's owner.
* :class:`ShardAdvertiser` — owner-side agent: advertises each resident
  object to its owning shard with ack-monitored retries, failing over
  to the successor shard when the owner shard is down (and optionally
  re-advertising on a refresh interval, which is what heals the
  directory after a shard crash mid-run).
* :class:`LeaseCachingResolver` — requester-side: a location cache with
  TTL leases.  A live lease is 1 RTT straight to the holder; a miss is
  2 RTTs (resolve via the owning shard, then the unicast access).
  Stale hits NACK-and-refresh exactly like E2E; shard crashes are
  absorbed by resolving against the successor shard.

:class:`repro.discovery.workload.Testbed` wires these onto a fabric, and
:func:`repro.discovery.workload.run_sharded_point` drives them (or an
E2E baseline on the same fabric) under a Zipf-skewed access stream —
the E18 workload.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Tuple

from ..core.objectid import ObjectID
from ..obs.registry import MetricsRegistry
from ..sim import Simulator, Timeout, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .base import (
    ACCESS_BYTES,
    KIND_ACCESS_NACK,
    KIND_ACCESS_REQ,
    KIND_ACCESS_RSP,
    KIND_ADVERTISE,
    KIND_ADVERTISE_ACK,
    KIND_LEASE_INVALIDATE,
    KIND_RESOLVE_REQ,
    KIND_RESOLVE_RSP,
    AccessRecord,
    DiscoveryError,
)
from .controller import DirectoryController

__all__ = [
    "ShardMap",
    "ShardDirectory",
    "ShardAdvertiser",
    "LeaseCachingResolver",
]


class ShardMap:
    """Rendezvous hashing of object IDs over the shard host names.

    For each (oid, shard) pair a keyed digest yields a 64-bit score;
    the shard with the highest score owns the ID, the next-highest is
    its failover successor, and so on.  The ranking is a pure function
    of the ID and the shard list, so every host computes the same map
    with zero coordination, and removing one shard only reassigns the
    IDs that shard owned.
    """

    # Rankings memoized per ObjectID; the map is immutable, so entries
    # never go stale.  Bounded so a multi-million-object run cannot grow
    # without limit: on overflow the whole memo resets (deterministic —
    # no eviction order to get wrong), and hot IDs simply re-memoize.
    CACHE_LIMIT = 1 << 16

    def __init__(self, shards: Sequence[str]):
        if not shards:
            raise DiscoveryError("a shard map needs at least one shard")
        if len(set(shards)) != len(shards):
            raise DiscoveryError("duplicate shard names in shard map")
        self.shards: Tuple[str, ...] = tuple(shards)
        self._ranked_cache: Dict[ObjectID, Tuple[str, ...]] = {}

    @staticmethod
    def _score(oid: ObjectID, shard: str) -> int:
        digest = hashlib.blake2b(
            oid.value.to_bytes(16, "big") + shard.encode("utf-8"),
            digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def ranked(self, oid: ObjectID) -> Tuple[str, ...]:
        """All shards, highest rendezvous score first (the failover order).

        Memoized: every resolve and advertisement ranks its ID, so the
        O(shards) digest-and-sort was the directory plane's hot-path
        scan under open-loop load.
        """
        cached = self._ranked_cache.get(oid)
        if cached is None:
            cached = tuple(sorted(
                self.shards, key=lambda shard: self._score(oid, shard),
                reverse=True))
            if len(self._ranked_cache) >= self.CACHE_LIMIT:
                self._ranked_cache.clear()
            self._ranked_cache[oid] = cached
        return cached

    def shard_of(self, oid: ObjectID) -> str:
        """The shard owning ``oid``'s directory entry."""
        return self.ranked(oid)[0]



class ShardDirectory(DirectoryController):
    """One shard of the controller directory.

    Shares the advertisement ingress with :class:`SdnController` via
    :class:`DirectoryController`; instead of pushing switch routes it
    acks the advertiser (liveness signal for shard failover), serves
    ``shard.resolve_req`` with TTL leases, and pushes invalidations to
    every live lease holder when an object's owner changes.
    """

    def __init__(self, host: Host, lease_ttl_us: float = 100_000.0,
                 metrics: Optional[MetricsRegistry] = None):
        if lease_ttl_us <= 0:
            raise DiscoveryError("lease TTL must be positive")
        super().__init__(host, metrics=metrics,
                         metrics_name=f"discovery.shard.{host.name}")
        self.lease_ttl_us = lease_ttl_us
        # oid -> {requester host: lease expiry} for leases we granted.
        self.leases: Dict[ObjectID, Dict[str, float]] = {}
        host.on(KIND_RESOLVE_REQ, self._on_resolve)

    def _accepted(self, oid: ObjectID, owner: str, previous: Optional[str],
                  packet: Packet) -> None:
        self.tracer.count("shard.advertised")
        if "req_id" in packet.payload:
            self.host.send(packet.reply(KIND_ADVERTISE_ACK, payload_bytes=16))
        if previous is not None and previous != owner:
            self._invalidate_leases(oid)

    def _invalidate_leases(self, oid: ObjectID) -> None:
        granted = self.leases.pop(oid, None)
        if not granted:
            return
        now = self.sim.now
        for requester, expiry in granted.items():
            if expiry <= now:
                continue  # already lapsed; nothing to push
            self.tracer.count("shard.invalidations")
            self.host.send(Packet(
                kind=KIND_LEASE_INVALIDATE, src=self.host.name,
                dst=requester, oid=oid, payload_bytes=16,
            ))

    def _on_resolve(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        owner = self.owner_of.get(oid)
        if owner is None:
            payload = {"holder": None, "ttl_us": 0.0}
        else:
            self.leases.setdefault(oid, {})[packet.src] = \
                self.sim.now + self.lease_ttl_us
            payload = {"holder": owner, "ttl_us": self.lease_ttl_us}
        self.host.send(packet.reply(KIND_RESOLVE_RSP, payload, 24))


class ShardAdvertiser:
    """Owner-side advertisement agent for the sharded plane.

    Each advertised object gets a monitor process that sends the
    advertisement to the object's owning shard and waits for the ack.
    After ``ACK_RETRIES`` unanswered sends (``ACK_TIMEOUT_US`` apart, one
    :meth:`Host.request`) the monitor fails over to the successor shard
    in rendezvous order (counted as ``shard.failover``).  With a
    ``refresh_interval_us`` the monitor re-advertises periodically — that
    refresh is what re-homes a directory entry after its shard crashes
    mid-run, and what moves it back once the shard recovers (each cycle
    restarts from the primary shard).
    """

    ACK_TIMEOUT_US = 1_000.0
    ACK_RETRIES = 2

    def __init__(self, host: Host, shard_map: ShardMap,
                 refresh_interval_us: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if refresh_interval_us is not None and refresh_interval_us <= 0:
            raise DiscoveryError("refresh interval must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.shard_map = shard_map
        self.refresh_interval_us = refresh_interval_us
        self.tracer = Tracer()
        if metrics is not None:
            metrics.register(f"discovery.advertiser.{host.name}",
                             self.tracer, replace=True)
        # Version per oid: bumping it retires the running monitor, so
        # advertise-after-move and withdraw are race-free.
        self._versions: Dict[ObjectID, int] = {}
        host.on(KIND_ADVERTISE_ACK, host.complete)

    def advertise(self, oid: ObjectID) -> None:
        """Start (or restart) advertising ``oid`` as held by this host."""
        version = self._versions.get(oid, 0) + 1
        self._versions[oid] = version
        self.sim.spawn(self._monitor(oid, version),
                       name=f"shadv-{self.host.name}-{oid.short()}")

    def withdraw(self, oid: ObjectID) -> None:
        """Stop advertising ``oid`` (it moved away or was dropped)."""
        if oid in self._versions:
            self._versions[oid] += 1

    def stop(self) -> None:
        """Withdraw every advertisement (lets a run's event heap drain)."""
        for oid in list(self._versions):
            self.withdraw(oid)

    def _current(self, oid: ObjectID, version: int) -> bool:
        return self._versions.get(oid) == version

    def _monitor(self, oid: ObjectID, version: int):
        while self._current(oid, version):
            yield from self._advertise_once(oid, version)
            if self.refresh_interval_us is None:
                return None
            yield Timeout(self.refresh_interval_us)
        return None

    def _advertise_once(self, oid: ObjectID, version: int):
        """Process: one ack-monitored advertisement, walking the failover
        order until a shard answers.  Returns True on ack."""
        for index, shard in enumerate(self.shard_map.ranked(oid)):
            if index > 0:
                self.tracer.count("shard.failover")
            if not self._current(oid, version):
                return False
            ack = yield self.host.request(Packet(
                kind=KIND_ADVERTISE, src=self.host.name, dst=shard,
                oid=oid, payload={"owner": self.host.name},
                payload_bytes=24,
            ), self.ACK_TIMEOUT_US, self.ACK_RETRIES)
            if ack is not None:
                return True
        return False


class LeaseCachingResolver:
    """Requester-side accessor for the sharded plane.

    A live cached lease sends the access straight to the holder (1 RTT);
    otherwise the resolver asks the object's owning shard first (2 RTTs
    total), walking the rendezvous failover order when a shard is dead
    or does not know the ID yet.  A NACK from a stale holder drops the
    lease and re-resolves — the E2E NACK-and-refresh shape — and shard
    invalidation pushes drop leases before they can go stale at all.
    With ``use_leases=False`` every access resolves via the shard (the
    cache-off baseline in the E18 sweep).
    """

    def __init__(self, host: Host, shard_map: ShardMap,
                 timeout_us: float = 50_000.0, max_retries: int = 3,
                 use_leases: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        if timeout_us <= 0:
            raise DiscoveryError("timeout must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.shard_map = shard_map
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.use_leases = use_leases
        self.tracer = Tracer()
        if metrics is not None:
            metrics.register("discovery.lease", self.tracer, replace=True)
        self.cache: Dict[ObjectID, Tuple[str, float]] = {}  # oid -> (holder, expiry)
        self._seen: set = set()
        host.on(KIND_RESOLVE_RSP, host.complete)
        host.on(KIND_ACCESS_RSP, host.complete)
        host.on(KIND_ACCESS_NACK, host.complete)
        host.on(KIND_LEASE_INVALIDATE, self._on_invalidate)

    def _on_invalidate(self, packet: Packet) -> None:
        if packet.oid in self.cache:
            del self.cache[packet.oid]
            self.tracer.count("lease.invalidated")

    # -- the access operation ------------------------------------------------
    def access(self, oid: ObjectID, offset: int = 0, length: int = ACCESS_BYTES):
        """Process: read one cache line of ``oid``; returns AccessRecord."""
        record = AccessRecord(oid=oid, start_us=self.sim.now)
        if oid not in self._seen:
            record.was_new = True
            self._seen.add(oid)
        for _ in range(self.max_retries):
            holder = self._leased_holder(oid)
            if holder is not None:
                self.tracer.count("lease.hit")
            else:
                self.tracer.count("lease.miss")
                holder = yield from self._resolve(oid, record)
                if holder is None:
                    continue  # every shard timed out or was blank; retry
            reply = yield from self._access_once(holder, oid, offset, length,
                                                 record)
            if reply is None:
                # Access timed out: the lease may point at a corpse.
                self.cache.pop(oid, None)
                continue
            if reply.kind == KIND_ACCESS_RSP:
                record.ok = True
                break
            # NACK: the leased holder no longer has the object.  Drop
            # the lease and re-resolve (NACK-and-refresh, like E2E).
            record.was_stale = True
            self.tracer.count("lease.stale")
            self.cache.pop(oid, None)
        record.end_us = self.sim.now
        return record

    def _leased_holder(self, oid: ObjectID) -> Optional[str]:
        if not self.use_leases:
            return None
        entry = self.cache.get(oid)
        if entry is None:
            return None
        holder, expiry = entry
        if expiry <= self.sim.now:
            del self.cache[oid]
            self.tracer.count("lease.expired")
            return None
        return holder

    def _resolve(self, oid: ObjectID, record: AccessRecord):
        """Process: ask the owning shard (then its successors) where
        ``oid`` lives; caches the lease and returns the holder, or None."""
        for index, shard in enumerate(self.shard_map.ranked(oid)):
            if index > 0:
                self.tracer.count("shard.failover")
            record.round_trips += 1
            reply = yield self.host.request(Packet(
                kind=KIND_RESOLVE_REQ, src=self.host.name, dst=shard,
                oid=oid, payload_bytes=24,
            ), self.timeout_us)
            if reply is None or reply.payload["holder"] is None:
                continue  # dead, or no entry here: ask the successor
            holder = reply.payload["holder"]
            if self.use_leases:
                self.cache[oid] = (
                    holder, self.sim.now + reply.payload["ttl_us"])
            return holder
        return None

    def _access_once(self, holder: str, oid: ObjectID, offset: int,
                     length: int, record: AccessRecord):
        """Process: one unicast access exchange; returns the reply or None."""
        record.round_trips += 1
        return (yield self.host.request(Packet(
            kind=KIND_ACCESS_REQ, src=self.host.name, dst=holder, oid=oid,
            payload={"offset": offset, "length": length}, payload_bytes=24,
        ), self.timeout_us))
