"""The §4 testbed and the workload drivers built on it.

:class:`Testbed` is the one place that wires a discovery scheme onto a
network: object homes on the responder hosts, the scheme's directory
pieces, the driver's accessor, and advertisement on create and move.
Each driver builds a fresh seeded simulator, runs a batch of object
accesses from the driver host, and reports the statistics its figure
plots: access round-trip time, and broadcast messages per 100 accesses.

* :func:`run_fig2_point` — a mix of accesses to *new* objects (never
  accessed before) and *old* ones, under either scheme.
* :func:`run_fig3_point` — E2E accesses while objects migrate between
  the responder hosts, staling the driver's destination cache.
* :func:`run_sharded_point` — a Zipf-skewed stream over the sharded
  plane (or an E2E baseline on the same fabric), the E18 workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.objectid import IDAllocator, ObjectID
from ..core.space import ObjectSpace
from ..faults import FaultInjector, FaultPlan
from ..loadgen.popularity import ZipfSampler
from ..net.topology import Network, build_paper_topology
from ..sim import Simulator, Timeout, summarize
from .base import AccessRecord, DiscoveryError, ObjectHome, move_object
from .controller import CONTROLLER_HOST, IdentityAccessor, SdnController, advertise
from .e2e import E2EResolver
from .hybrid import HybridAccessor
from .sharded import LeaseCachingResolver, ShardAdvertiser, ShardDirectory, ShardMap

__all__ = [
    "Testbed",
    "build_shard_star",
    "SweepPoint",
    "run_fig2_point",
    "run_fig3_point",
    "ShardedSweepResult",
    "run_sharded_point",
    "SCHEME_E2E",
    "SCHEME_CONTROLLER",
    "SCHEME_HYBRID",
    "SCHEME_SHARDED",
]

SCHEME_E2E = "e2e"
SCHEME_CONTROLLER = "controller"
SCHEME_HYBRID = "hybrid"
SCHEME_SHARDED = "sharded"
_SCHEMES = (SCHEME_E2E, SCHEME_CONTROLLER, SCHEME_HYBRID, SCHEME_SHARDED)

# Under the sharded scheme, every host whose name starts with this is a
# directory shard (``build_shard_star`` names them ``shard1``...).
SHARD_HOST_PREFIX = "shard"

_RESPONDERS = ("resp1", "resp2")


class Testbed:
    """One §4 environment over the caller's network, ready to drive accesses.

    * an :class:`ObjectHome` on each responder, drawing IDs from an
      allocator seeded one past the simulator;
    * an :class:`SdnController` exactly when the network has a host
      named :data:`CONTROLLER_HOST`, whatever the scheme;
    * under :data:`SCHEME_SHARDED`, a :class:`ShardDirectory` on every
      ``shard*`` host and a :class:`ShardAdvertiser` on each responder;
    * the scheme's accessor on the driver host, given ``timeout_us`` and
      ``max_retries``.

    :meth:`create_object` and :meth:`move` advertise to whichever
    directory exists.  An object nobody should advertise is created on
    ``bed.homes[r].space`` directly.
    """

    __test__ = False  # a fixture, not a pytest class

    def __init__(self, scheme: str, net: Network, object_size: int,
                 responders: Sequence[str] = _RESPONDERS,
                 driver: str = "driver",
                 timeout_us: float = 50_000.0, max_retries: int = 3,
                 use_leases: bool = True, lease_ttl_us: float = 100_000.0,
                 refresh_interval_us: Optional[float] = None):
        if scheme not in _SCHEMES:
            raise DiscoveryError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.net = net
        self.sim: Simulator = net.sim
        self.object_size = object_size
        self.responders = tuple(responders)
        self.allocator = IDAllocator(seed=self.sim.seed + 1)
        self.homes: Dict[str, ObjectHome] = {}
        for name in self.responders:
            home = ObjectHome(net.host(name),
                              ObjectSpace(self.allocator, host_name=name))
            self.homes[name] = home
            net.metrics.register(f"discovery.home.{name}", home.tracer)
        self.controller: Optional[SdnController] = None
        if CONTROLLER_HOST in net.nodes:
            self.controller = SdnController(net, net.host(CONTROLLER_HOST),
                                            metrics=net.metrics)
        self.shard_map: Optional[ShardMap] = None
        self.shards: Dict[str, ShardDirectory] = {}
        self.advertisers: Dict[str, ShardAdvertiser] = {}
        host = net.host(driver)
        if scheme == SCHEME_SHARDED:
            self.shard_map = ShardMap(tuple(
                h.name for h in net.hosts if h.name.startswith(SHARD_HOST_PREFIX)))
            for name in self.shard_map.shards:
                self.shards[name] = ShardDirectory(
                    net.host(name), lease_ttl_us=lease_ttl_us, metrics=net.metrics)
            for name in self.responders:
                self.advertisers[name] = ShardAdvertiser(
                    net.host(name), self.shard_map,
                    refresh_interval_us=refresh_interval_us, metrics=net.metrics)
            self.accessor = LeaseCachingResolver(
                host, self.shard_map, timeout_us=timeout_us,
                max_retries=max_retries, use_leases=use_leases, metrics=net.metrics)
        elif scheme == SCHEME_CONTROLLER:
            self.accessor = IdentityAccessor(host, timeout_us=timeout_us,
                                             max_retries=max_retries)
        elif scheme == SCHEME_HYBRID:
            # The hybrid keeps its budget as class constants; the given
            # one is set on the instance.
            self.accessor = HybridAccessor(host)
            self.accessor.TIMEOUT_US = timeout_us
            self.accessor.MAX_RETRIES = max_retries
        else:
            self.accessor = E2EResolver(host, timeout_us=timeout_us,
                                        max_retries=max_retries, metrics=net.metrics)
        self.location: Dict[ObjectID, str] = {}

    # -- object lifecycle ---------------------------------------------------
    def _advertise(self, responder: str, oid: ObjectID) -> None:
        if self.advertisers:
            self.advertisers[responder].advertise(oid)
        elif self.controller is not None:
            advertise(self.homes[responder].host, oid)

    def create_object(self, responder: str) -> ObjectID:
        """Create an object on ``responder`` and advertise it."""
        oid = self.homes[responder].space.create_object(size=self.object_size).oid
        self.location[oid] = responder
        self._advertise(responder, oid)
        return oid

    def move(self, oid: ObjectID) -> str:
        """Migrate ``oid`` to the next responder; returns the new holder."""
        src = self.location[oid]
        dst = self.responders[
            (self.responders.index(src) + 1) % len(self.responders)]
        move_object(oid, self.homes[src], self.homes[dst])
        self.location[oid] = dst
        if self.advertisers:
            self.advertisers[src].withdraw(oid)
        self._advertise(dst, oid)
        return dst

    def settle(self, us: float = 2_000.0):
        """Process: let control traffic (advertise/ack cycles) finish."""
        yield Timeout(us)

    def quiesce(self) -> None:
        """Retire every advertisement monitor so the event heap drains."""
        for advertiser in self.advertisers.values():
            advertiser.stop()


def build_shard_star(sim: Simulator, n_shards: int) -> Network:
    """E18's fabric: one switch joining the driver, the two responders
    and ``n_shards`` shard hosts."""
    net = Network(sim)
    net.add_switch("s0")
    shards = tuple(f"{SHARD_HOST_PREFIX}{i + 1}" for i in range(n_shards))
    for name in ("driver",) + _RESPONDERS + shards:
        net.add_host(name)
        net.connect(name, "s0")
    return net


@dataclass
class SweepPoint:
    """Aggregated results of one sweep point (one bar/box in the figure)."""

    scheme: str
    percent: int
    mean_rtt_us: float
    p50_rtt_us: float
    p95_rtt_us: float
    stdev_rtt_us: float
    min_rtt_us: float
    max_rtt_us: float
    broadcasts_per_100: float
    mean_round_trips: float
    failures: int
    records: List[AccessRecord] = field(repr=False, default_factory=list)


def _aggregate(scheme: str, percent: int, records: List[AccessRecord]) -> SweepPoint:
    latencies = [r.latency_us for r in records if r.ok]
    stats = summarize(latencies)
    broadcasts = sum(r.broadcasts for r in records)
    return SweepPoint(
        scheme=scheme,
        percent=percent,
        mean_rtt_us=stats.mean,
        p50_rtt_us=stats.p50,
        p95_rtt_us=stats.p95,
        stdev_rtt_us=stats.stdev,
        min_rtt_us=stats.minimum,
        max_rtt_us=stats.maximum,
        broadcasts_per_100=100.0 * broadcasts / max(len(records), 1),
        mean_round_trips=sum(r.round_trips for r in records) / max(len(records), 1),
        failures=sum(1 for r in records if not r.ok),
        records=records,
    )


# Every Figure 2/3 sweep point draws from a pool of this many objects of
# this size; a Figure 3 point measures this many accesses.
_POOL_OBJECTS = 20
_OBJECT_SIZE = 4096
FIG3_ACCESSES = 100


def _paper_bed(scheme: str, seed: int) -> Testbed:
    sim = Simulator(seed=seed)
    net = build_paper_topology(
        sim, with_controller_host=(scheme == SCHEME_CONTROLLER))
    return Testbed(scheme, net, _OBJECT_SIZE)


def run_fig2_point(
    scheme: str,
    percent_new: int,
    n_accesses: int = 100,
    seed: int = 42,
) -> SweepPoint:
    """One Figure 2 sweep point: ``percent_new``% of accesses target
    objects never accessed before; the rest revisit warmed-up objects."""
    if not 0 <= percent_new <= 100:
        raise ValueError("percent_new must be in [0, 100]")
    bed = _paper_bed(scheme, seed * 1000 + percent_new)
    rng = bed.sim.rng
    old_pool = [
        bed.create_object(_RESPONDERS[i % len(_RESPONDERS)])
        for i in range(_POOL_OBJECTS)
    ]
    records: List[AccessRecord] = []

    def driver_proc():
        yield from bed.settle()
        # Warm-up: touch every old object once (not measured) so later
        # accesses to them are cache/table hits.
        for oid in old_pool:
            yield bed.sim.spawn(bed.accessor.access(oid), name="warmup")
        for _ in range(n_accesses):
            if rng.random() < percent_new / 100.0:
                responder = rng.choice(_RESPONDERS)
                oid = bed.create_object(responder)
                if bed.scheme == SCHEME_CONTROLLER:
                    # Creation-time advertisement is control traffic; it
                    # completes before the application touches the object.
                    yield from bed.settle(100.0)
            else:
                oid = rng.choice(old_pool)
            record = yield bed.sim.spawn(bed.accessor.access(oid), name="access")
            records.append(record)
        return None

    bed.sim.run_process(driver_proc(), name="fig2-driver")
    return _aggregate(scheme, percent_new, records)


def run_fig3_point(
    percent_moved: int,
    use_forwarding_hints: bool = False,
    scheme: str = SCHEME_E2E,
) -> SweepPoint:
    """One Figure 3 sweep point: before each of :data:`FIG3_ACCESSES`
    accesses, with probability ``percent_moved``% the target object
    migrates to the other responder, staling the driver's destination
    cache (E2E) or the switch routes (controller variant)."""
    if not 0 <= percent_moved <= 100:
        raise ValueError("percent_moved must be in [0, 100]")
    bed = _paper_bed(scheme, 42 * 1000 + percent_moved)
    if use_forwarding_hints:
        for home in bed.homes.values():
            home.forward_stale_accesses = True
    rng = bed.sim.rng
    pool = [
        bed.create_object(_RESPONDERS[i % len(_RESPONDERS)])
        for i in range(_POOL_OBJECTS)
    ]
    records: List[AccessRecord] = []

    def driver_proc():
        yield from bed.settle()
        for oid in pool:  # warm the destination cache / switch tables
            yield bed.sim.spawn(bed.accessor.access(oid), name="warmup")
        for _ in range(FIG3_ACCESSES):
            oid = rng.choice(pool)
            if rng.random() < percent_moved / 100.0:
                bed.move(oid)
                if bed.scheme == SCHEME_CONTROLLER:
                    yield from bed.settle(100.0)
            record = yield bed.sim.spawn(bed.accessor.access(oid), name="access")
            records.append(record)
        return None

    bed.sim.run_process(driver_proc(), name="fig3-driver")
    return _aggregate(scheme, percent_moved, records)


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


# E18 objects are this size; its resolver gives up sooner and retries
# more than the §4 default, so a crashed shard costs milliseconds.
_SHARDED_OBJECT_SIZE = 1024
_SHARDED_TIMEOUT_US = 2_000.0
_SHARDED_MAX_RETRIES = 6


def run_sharded_point(
    n_shards: int,
    n_objects: int = 40,
    n_accesses: int = 100,
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
    bed = Testbed(
        scheme, build_shard_star(Simulator(seed=seed), n_shards),
        _SHARDED_OBJECT_SIZE, timeout_us=_SHARDED_TIMEOUT_US,
        max_retries=_SHARDED_MAX_RETRIES, use_leases=use_leases,
        lease_ttl_us=lease_ttl_us, refresh_interval_us=refresh_interval_us)
    rng = bed.sim.rng
    pool = [bed.create_object(_RESPONDERS[i % len(_RESPONDERS)])
            for i in range(n_objects)]
    popularity = ZipfSampler(n_objects, 1.1)
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
        advertise_load={name: shard.tracer.counters.get("shard.advertised")
                        for name, shard in bed.shards.items()},
        counters=dict(sorted(snapshot.items())),
        records=records,
    )
