"""Workload drivers that regenerate the paper's Figures 2 and 3.

Each sweep point builds a fresh seeded simulator over the §4 topology
(three hosts, four interconnected switches), runs a batch of object
accesses from the driver host, and reports the statistics the figures
plot: access round-trip time, and broadcast messages per 100 accesses.

* :func:`run_fig2_point` — a mix of accesses to *new* objects (never
  accessed before) and *old* ones, under either scheme.
* :func:`run_fig3_point` — E2E accesses while objects migrate between
  the responder hosts, staling the driver's destination cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.objectid import ObjectID
from ..core.space import ObjectSpace
from ..core.objectid import IDAllocator
from ..sim import Simulator, Timeout, summarize
from ..net.topology import Network, build_paper_topology
from .base import AccessRecord, ObjectHome, move_object
from .controller import IdentityAccessor, SdnController, advertise
from .e2e import E2EResolver

__all__ = [
    "SweepPoint",
    "run_fig2_point",
    "run_fig3_point",
    "SCHEME_E2E",
    "SCHEME_CONTROLLER",
]

SCHEME_E2E = "e2e"
SCHEME_CONTROLLER = "controller"

_RESPONDERS = ("resp1", "resp2")


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


# Every sweep point draws from a pool of this many objects of this size.
_POOL_OBJECTS = 20
_OBJECT_SIZE = 4096


class _Testbed:
    """One instantiation of the §4 environment, ready to drive accesses."""

    def __init__(self, scheme: str, seed: int):
        if scheme not in (SCHEME_E2E, SCHEME_CONTROLLER):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.sim = Simulator(seed=seed)
        self.net: Network = build_paper_topology(
            self.sim, with_controller_host=(scheme == SCHEME_CONTROLLER))
        self.allocator = IDAllocator(seed=seed + 1)
        self.homes: Dict[str, ObjectHome] = {
            name: ObjectHome(
                self.net.host(name),
                ObjectSpace(self.allocator, host_name=name),
            )
            for name in _RESPONDERS
        }
        for name, home in self.homes.items():
            self.net.metrics.register(f"discovery.home.{name}", home.tracer)
        driver = self.net.host("driver")
        if scheme == SCHEME_CONTROLLER:
            self.controller = SdnController(self.net, self.net.host("controller"),
                                            metrics=self.net.metrics)
            self.accessor = IdentityAccessor(driver)
        else:
            self.controller = None
            self.accessor = E2EResolver(driver, metrics=self.net.metrics)
        self.location: Dict[ObjectID, str] = {}

    # -- object lifecycle ---------------------------------------------------
    def create_object(self, responder: str) -> ObjectID:
        """Create (and, under the controller scheme, advertise) an object."""
        home = self.homes[responder]
        obj = home.space.create_object(size=_OBJECT_SIZE)
        self.location[obj.oid] = responder
        if self.scheme == SCHEME_CONTROLLER:
            advertise(home.host, obj.oid)
        return obj.oid

    def move(self, oid: ObjectID) -> str:
        """Migrate ``oid`` to the other responder; returns the new holder."""
        src = self.location[oid]
        dst = _RESPONDERS[1 - _RESPONDERS.index(src)]
        move_object(oid, self.homes[src], self.homes[dst])
        self.location[oid] = dst
        if self.scheme == SCHEME_CONTROLLER:
            advertise(self.homes[dst].host, oid)
        return dst

    def settle(self, us: float = 2_000.0):
        """Process: let control traffic (advertisements) finish."""
        yield Timeout(us)


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
    bed = _Testbed(scheme, seed=seed * 1000 + percent_new)
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
    n_accesses: int = 100,
    use_forwarding_hints: bool = False,
    scheme: str = SCHEME_E2E,
) -> SweepPoint:
    """One Figure 3 sweep point: before each access, with probability
    ``percent_moved``% the target object migrates to the other responder,
    staling the driver's destination cache (E2E) or the switch routes
    (controller variant)."""
    if not 0 <= percent_moved <= 100:
        raise ValueError("percent_moved must be in [0, 100]")
    bed = _Testbed(scheme, seed=42 * 1000 + percent_moved)
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
        for _ in range(n_accesses):
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
