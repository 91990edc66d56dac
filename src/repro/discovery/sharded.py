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

:func:`run_sharded_point` drives the whole plane (or an E2E baseline on
the same fabric) under a Zipf-skewed access stream — the E18 workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.objectid import IDAllocator, ObjectID
from ..core.space import ObjectSpace
from ..obs.registry import MetricsRegistry
from ..sim import Simulator, Timeout, Tracer, summarize
from ..net.host import Host
from ..net.packet import Packet
from ..net.topology import Network
from ..faults import FaultInjector, FaultPlan
from ..loadgen.popularity import ZipfSampler
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
    ObjectHome,
    move_object,
)
from .controller import DirectoryController
from .e2e import E2EResolver

__all__ = [
    "ShardMap",
    "ShardDirectory",
    "ShardAdvertiser",
    "LeaseCachingResolver",
    "ShardedTestbed",
    "ShardedSweepResult",
    "run_sharded_point",
    "SCHEME_SHARDED",
]

SCHEME_SHARDED = "sharded"


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

    def successor(self, oid: ObjectID, after: str) -> str:
        """The next shard in ``oid``'s failover order after ``after``."""
        ranked = self.ranked(oid)
        return ranked[(ranked.index(after) + 1) % len(ranked)]

    def load(self, oids: Sequence[ObjectID]) -> Dict[str, int]:
        """How many of ``oids`` each shard owns (balance introspection)."""
        counts = {shard: 0 for shard in self.shards}
        for oid in oids:
            counts[self.shard_of(oid)] += 1
        return counts


class ShardDirectory(DirectoryController):
    """One shard of the controller directory.

    Shares the advertisement ingress with :class:`SdnController` via
    :class:`DirectoryController`; instead of pushing switch routes it
    acks the advertiser (liveness signal for shard failover), serves
    ``shard.resolve_req`` with TTL leases, and pushes invalidations to
    every live lease holder when an object's owner changes.
    """

    def __init__(self, host: Host, lease_ttl_us: float = 100_000.0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_name: Optional[str] = None):
        if lease_ttl_us <= 0:
            raise DiscoveryError("lease TTL must be positive")
        super().__init__(host, tracer=tracer, metrics=metrics,
                         metrics_name=metrics_name or f"discovery.shard.{host.name}")
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
            self.tracer.count("shard.resolve_unknown")
            payload = {"holder": None, "ttl_us": 0.0}
        else:
            self.tracer.count("shard.resolved")
            self.leases.setdefault(oid, {})[packet.src] = \
                self.sim.now + self.lease_ttl_us
            payload = {"holder": owner, "ttl_us": self.lease_ttl_us}
        self.host.send(packet.reply(KIND_RESOLVE_RSP, payload, 24))


class ShardAdvertiser:
    """Owner-side advertisement agent for the sharded plane.

    Each advertised object gets a monitor process that sends the
    advertisement to the object's owning shard and waits for the ack.
    After ``ack_retries`` unanswered attempts the monitor fails over to
    the successor shard in rendezvous order (counted as
    ``shard.failover``).  With a ``refresh_interval_us`` the monitor
    re-advertises periodically — that refresh is what re-homes a
    directory entry after its shard crashes mid-run, and what moves it
    back once the shard recovers (each cycle restarts from the primary
    shard).
    """

    def __init__(self, host: Host, shard_map: ShardMap,
                 ack_timeout_us: float = 1_000.0, ack_retries: int = 2,
                 refresh_interval_us: Optional[float] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_name: Optional[str] = None):
        if ack_timeout_us <= 0:
            raise DiscoveryError("ack timeout must be positive")
        if ack_retries < 1:
            raise DiscoveryError("need at least one advertisement attempt")
        if refresh_interval_us is not None and refresh_interval_us <= 0:
            raise DiscoveryError("refresh interval must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.shard_map = shard_map
        self.ack_timeout_us = ack_timeout_us
        self.ack_retries = ack_retries
        self.refresh_interval_us = refresh_interval_us
        self.tracer = tracer or Tracer()
        if metrics is not None:
            metrics.register(
                metrics_name or f"discovery.advertiser.{host.name}",
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
            for _ in range(self.ack_retries):
                if not self._current(oid, version):
                    return False
                ack = yield self.host.request(Packet(
                    kind=KIND_ADVERTISE, src=self.host.name, dst=shard,
                    oid=oid, payload={"owner": self.host.name},
                    payload_bytes=24,
                ), self.ack_timeout_us)
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
                 resolve_attempts: int = 1, use_leases: bool = True,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_name: str = "discovery.lease"):
        if timeout_us <= 0:
            raise DiscoveryError("timeout must be positive")
        if resolve_attempts < 1:
            raise DiscoveryError("need at least one resolve attempt per shard")
        self.host = host
        self.sim: Simulator = host.sim
        self.shard_map = shard_map
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.resolve_attempts = resolve_attempts
        self.use_leases = use_leases
        self.tracer = tracer or Tracer()
        if metrics is not None:
            metrics.register(metrics_name, self.tracer, replace=True)
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
        self.tracer.sample("lease.access_us", record.latency_us)
        self.tracer.count("lease.access_ok" if record.ok
                          else "lease.access_failed")
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
            for _ in range(self.resolve_attempts):
                record.round_trips += 1
                reply = yield self.host.request(Packet(
                    kind=KIND_RESOLVE_REQ, src=self.host.name, dst=shard,
                    oid=oid, payload_bytes=24,
                ), self.timeout_us)
                if reply is None:
                    self.tracer.count("lease.timeout")
                    continue
                holder = reply.payload["holder"]
                if holder is None:
                    break  # this shard has no entry; ask the successor
                if self.use_leases:
                    self.cache[oid] = (
                        holder, self.sim.now + reply.payload["ttl_us"])
                return holder
        return None

    def _access_once(self, holder: str, oid: ObjectID, offset: int,
                     length: int, record: AccessRecord):
        """Process: one unicast access exchange; returns the reply or None."""
        record.round_trips += 1
        reply = yield self.host.request(Packet(
            kind=KIND_ACCESS_REQ, src=self.host.name, dst=holder, oid=oid,
            payload={"offset": offset, "length": length}, payload_bytes=24,
        ), self.timeout_us)
        if reply is None:
            self.tracer.count("lease.timeout")
        return reply


# ---------------------------------------------------------------------------
# the E18 workload: Zipf-skewed accesses over the sharded plane
# ---------------------------------------------------------------------------


@dataclass
class ShardedSweepResult:
    """Aggregates of one sharded-discovery sweep point."""

    scheme: str
    n_shards: int
    use_leases: bool
    mean_rtt_us: float
    p95_rtt_us: float
    mean_round_trips: float
    failures: int
    lease_hits: int
    lease_misses: int
    lease_invalidated: int
    shard_failovers: int
    advertise_load: Dict[str, int]
    counters: Dict[str, int]
    records: List[AccessRecord] = field(repr=False, default_factory=list)


class ShardedTestbed:
    """A star fabric with a driver, responder homes, and shard hosts.

    ``scheme`` picks the access plane: :data:`SCHEME_SHARDED` runs the
    shard directories + lease resolver; ``"e2e"`` runs the broadcast
    resolver on the identical topology and workload (the E18 baseline).
    """

    def __init__(self, n_shards: int, seed: int, n_responders: int = 2,
                 object_size: int = 1024, scheme: str = SCHEME_SHARDED,
                 use_leases: bool = True, lease_ttl_us: float = 100_000.0,
                 refresh_interval_us: Optional[float] = None,
                 ack_timeout_us: float = 1_000.0,
                 resolver_timeout_us: float = 2_000.0,
                 max_retries: int = 6,
                 latency_us: float = 5.0):
        if n_shards < 1:
            raise DiscoveryError("need at least one shard")
        if scheme not in (SCHEME_SHARDED, "e2e"):
            raise DiscoveryError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.net.add_switch("s0")
        self.responders = tuple(f"resp{i + 1}" for i in range(n_responders))
        self.shard_hosts = tuple(f"shard{i + 1}" for i in range(n_shards))
        for name in ("driver",) + self.responders + self.shard_hosts:
            self.net.add_host(name)
            self.net.connect(name, "s0", latency_us=latency_us)
        self.shard_map = ShardMap(self.shard_hosts)
        self.allocator = IDAllocator(seed=seed + 1)
        self.homes: Dict[str, ObjectHome] = {}
        self.advertisers: Dict[str, ShardAdvertiser] = {}
        for name in self.responders:
            home = ObjectHome(self.net.host(name),
                              ObjectSpace(self.allocator, host_name=name))
            self.homes[name] = home
            self.net.metrics.register(f"discovery.home.{name}", home.tracer)
        self.shards: Dict[str, ShardDirectory] = {}
        driver = self.net.host("driver")
        if scheme == SCHEME_SHARDED:
            for name in self.shard_hosts:
                self.shards[name] = ShardDirectory(
                    self.net.host(name), lease_ttl_us=lease_ttl_us,
                    metrics=self.net.metrics)
            for name in self.responders:
                self.advertisers[name] = ShardAdvertiser(
                    self.net.host(name), self.shard_map,
                    ack_timeout_us=ack_timeout_us,
                    refresh_interval_us=refresh_interval_us,
                    metrics=self.net.metrics)
            self.accessor = LeaseCachingResolver(
                driver, self.shard_map, timeout_us=resolver_timeout_us,
                max_retries=max_retries, use_leases=use_leases,
                metrics=self.net.metrics)
        else:
            self.accessor = E2EResolver(driver, metrics=self.net.metrics)
        self.object_size = object_size
        self.location: Dict[ObjectID, str] = {}

    # -- object lifecycle ---------------------------------------------------
    def create_object(self, responder: str) -> ObjectID:
        home = self.homes[responder]
        obj = home.space.create_object(size=self.object_size)
        self.location[obj.oid] = responder
        if self.scheme == SCHEME_SHARDED:
            self.advertisers[responder].advertise(obj.oid)
        return obj.oid

    def move(self, oid: ObjectID) -> str:
        """Migrate ``oid`` to the next responder; returns the new holder."""
        src = self.location[oid]
        dst = self.responders[
            (self.responders.index(src) + 1) % len(self.responders)]
        move_object(oid, self.homes[src], self.homes[dst])
        self.location[oid] = dst
        if self.scheme == SCHEME_SHARDED:
            self.advertisers[src].withdraw(oid)
            self.advertisers[dst].advertise(oid)
        return dst

    def settle(self, us: float = 2_000.0):
        """Process: let control traffic (advertise/ack cycles) finish."""
        yield Timeout(us)

    def quiesce(self) -> None:
        """Retire every advertisement monitor so the event heap drains."""
        for advertiser in self.advertisers.values():
            advertiser.stop()

    def advertise_load(self) -> Dict[str, int]:
        """Advertisements accepted per shard host."""
        return {name: shard.tracer.counters.get("shard.advertised")
                for name, shard in self.shards.items()}


def run_sharded_point(
    n_shards: int,
    n_objects: int = 40,
    n_accesses: int = 100,
    zipf_s: float = 1.1,
    percent_moved: int = 0,
    gap_us: float = 0.0,
    seed: int = 42,
    scheme: str = SCHEME_SHARDED,
    use_leases: bool = True,
    lease_ttl_us: float = 100_000.0,
    refresh_interval_us: Optional[float] = None,
    shard_crash_window: Optional[Tuple[float, float]] = None,
) -> ShardedSweepResult:
    """One E18 sweep point: a Zipf-skewed access stream over the sharded
    plane (or the E2E baseline on the same fabric).

    ``shard_crash_window=(from_us, until_us)`` crashes the shard owning
    the *hottest* object's directory entry for that interval via a
    :class:`FaultPlan` — lease-covered accesses keep running at 1 RTT,
    and misses fail over to the successor shard (counter-visible as
    ``shard.failover``).  ``gap_us`` spaces accesses out so a stream can
    span the window.
    """
    if not 0 <= percent_moved <= 100:
        raise ValueError("percent_moved must be in [0, 100]")
    bed = ShardedTestbed(
        n_shards, seed=seed, scheme=scheme, use_leases=use_leases,
        lease_ttl_us=lease_ttl_us, refresh_interval_us=refresh_interval_us)
    rng = bed.sim.rng
    pool = [bed.create_object(bed.responders[i % len(bed.responders)])
            for i in range(n_objects)]
    popularity = ZipfSampler(n_objects, zipf_s)
    if shard_crash_window is not None:
        if bed.scheme != SCHEME_SHARDED:
            raise DiscoveryError("shard crash windows need the sharded scheme")
        victim = bed.shard_map.shard_of(pool[0])
        FaultInjector(bed.net, FaultPlan().crash_window(
            victim, *shard_crash_window)).arm()
    records: List[AccessRecord] = []

    def driver_proc():
        yield from bed.settle()
        for oid in pool:  # warm leases / destination caches (not measured)
            yield bed.sim.spawn(bed.accessor.access(oid), name="warmup")
        for _ in range(n_accesses):
            oid = pool[popularity.sample(rng)]
            if percent_moved and rng.random() < percent_moved / 100.0:
                bed.move(oid)
                yield from bed.settle(200.0)
            record = yield bed.sim.spawn(bed.accessor.access(oid),
                                         name="access")
            records.append(record)
            if gap_us > 0:
                yield Timeout(gap_us)
        bed.quiesce()
        return None

    bed.sim.run_process(driver_proc(), name="sharded-driver")
    latencies = [r.latency_us for r in records if r.ok]
    stats = summarize(latencies) if latencies else None
    snapshot = bed.net.metrics.snapshot()["counters"]
    lease = (bed.accessor.tracer.counters if bed.scheme == SCHEME_SHARDED
             else None)
    failovers = sum(adv.tracer.counters.get("shard.failover")
                    for adv in bed.advertisers.values())
    if lease is not None:
        failovers += lease.get("shard.failover")
    return ShardedSweepResult(
        scheme=bed.scheme,
        n_shards=n_shards,
        use_leases=use_leases,
        mean_rtt_us=stats.mean if stats else 0.0,
        p95_rtt_us=stats.p95 if stats else 0.0,
        mean_round_trips=(sum(r.round_trips for r in records)
                          / max(len(records), 1)),
        failures=sum(1 for r in records if not r.ok),
        lease_hits=lease.get("lease.hit") if lease else 0,
        lease_misses=lease.get("lease.miss") if lease else 0,
        lease_invalidated=lease.get("lease.invalidated") if lease else 0,
        shard_failovers=failovers,
        advertise_load=bed.advertise_load(),
        counters=dict(sorted(snapshot.items())),
        records=records,
    )
