"""The sharded controller discovery plane with requester-side leases.

Covers the tentpole pieces of `repro.discovery.sharded`: the
coordination-free rendezvous `ShardMap`, the per-shard directory with
TTL leases and invalidation push, the ack-monitored advertiser with
successor failover, the lease-caching resolver (1-RTT hits, 2-RTT
misses, NACK-and-refresh on staleness), shard crash under a
`FaultPlan`, and same-seed byte-determinism of the counters.
Assertions hold for any seed; CI re-runs the module under several
``REPRO_SEED_OFFSET`` values.
"""

import collections
import json
import os

import pytest

from repro.core import IDAllocator
from repro.discovery import (
    CONTROLLER_HOST,
    SCHEME_E2E,
    SCHEME_SHARDED,
    DiscoveryError,
    ShardDirectory,
    ShardMap,
    Testbed,
    advertise,
    build_shard_star,
    run_sharded_point,
)
from repro.net import build_star
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n):
    return n + SEED_OFFSET


# ---------------------------------------------------------------------------
# the shard map
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_ranking_is_a_pure_function_of_id_and_shards(self):
        shards = ("shard1", "shard2", "shard3", "shard4")
        oid = IDAllocator(seed=_seed(1)).allocate()
        a, b = ShardMap(shards), ShardMap(shards)
        assert a.ranked(oid) == b.ranked(oid)
        assert a.shard_of(oid) == a.ranked(oid)[0]

    def test_ranking_insensitive_to_declaration_order(self):
        # Every host derives the same map locally, however it happens to
        # list the shard names.
        oid = IDAllocator(seed=_seed(2)).allocate()
        a = ShardMap(("shard1", "shard2", "shard3"))
        b = ShardMap(("shard3", "shard1", "shard2"))
        assert a.ranked(oid) == b.ranked(oid)

    def test_load_spreads_over_shards(self):
        alloc = IDAllocator(seed=_seed(4))
        m = ShardMap(tuple(f"s{i}" for i in range(4)))
        load = collections.Counter(
            m.shard_of(alloc.allocate()) for _ in range(200))
        assert sum(load.values()) == 200
        assert set(load) == set(m.shards)  # every shard owns some

    def test_removing_a_shard_only_moves_its_objects(self):
        # The rendezvous property: objects owned by surviving shards
        # never change owner when one shard disappears.
        alloc = IDAllocator(seed=_seed(5))
        oids = [alloc.allocate() for _ in range(100)]
        full = ShardMap(("s1", "s2", "s3", "s4"))
        reduced = ShardMap(("s1", "s2", "s3"))
        for oid in oids:
            if full.shard_of(oid) != "s4":
                assert reduced.shard_of(oid) == full.shard_of(oid)

    def test_validation(self):
        with pytest.raises(DiscoveryError):
            ShardMap([])
        with pytest.raises(DiscoveryError):
            ShardMap(["a", "a"])


# ---------------------------------------------------------------------------
# the lease protocol on a live fabric
# ---------------------------------------------------------------------------


def _bed(seed, n_shards=2, **kwargs):
    net = build_shard_star(Simulator(seed=seed), n_shards)
    return Testbed(SCHEME_SHARDED, net, 1024, **kwargs)


def _settle_and_access(bed, oid, repeat=1):
    records = []

    def proc():
        yield from bed.settle()
        for _ in range(repeat):
            record = yield bed.sim.spawn(bed.accessor.access(oid))
            records.append(record)
        bed.quiesce()
        return None

    bed.sim.run_process(proc())
    return records


class TestLeaseProtocol:
    def test_miss_is_two_exchanges_hit_is_one(self):
        bed = _bed(_seed(11))
        oid = bed.create_object("resp1")
        first, second = _settle_and_access(bed, oid, repeat=2)
        assert first.ok and second.ok
        assert first.round_trips == 2  # resolve via shard + access
        assert second.round_trips == 1  # straight to the leased holder
        assert second.latency_us < first.latency_us
        counters = bed.accessor.tracer.counters
        assert counters["lease.miss"] == 1
        assert counters["lease.hit"] == 1

    def test_cache_off_always_resolves(self):
        bed = _bed(_seed(12), use_leases=False)
        oid = bed.create_object("resp1")
        records = _settle_and_access(bed, oid, repeat=3)
        assert all(r.ok and r.round_trips == 2 for r in records)
        assert bed.accessor.tracer.counters["lease.hit"] == 0

    def test_lease_expiry_forces_a_fresh_resolve(self):
        bed = _bed(_seed(13), lease_ttl_us=500.0)
        oid = bed.create_object("resp1")

        def proc():
            yield from bed.settle()
            yield bed.sim.spawn(bed.accessor.access(oid))
            yield Timeout(1_000.0)  # outlive the lease
            record = yield bed.sim.spawn(bed.accessor.access(oid))
            bed.quiesce()
            return record

        record = bed.sim.run_process(proc())
        assert record.ok and record.round_trips == 2
        assert bed.accessor.tracer.counters["lease.expired"] == 1

    def test_migration_pushes_invalidation_to_lease_holders(self):
        bed = _bed(_seed(14))
        oid = bed.create_object("resp1")

        def proc():
            yield from bed.settle()
            yield bed.sim.spawn(bed.accessor.access(oid))  # lease cached
            assert oid in bed.accessor.cache
            bed.move(oid)  # re-advertisement reaches the shard...
            yield from bed.settle()
            assert oid not in bed.accessor.cache  # ...which pushed the drop
            record = yield bed.sim.spawn(bed.accessor.access(oid))
            bed.quiesce()
            return record

        record = bed.sim.run_process(proc())
        assert record.ok
        assert not record.was_stale  # invalidation beat the next access
        assert bed.accessor.tracer.counters["lease.invalidated"] == 1
        shard = bed.shards[bed.shard_map.shard_of(oid)]
        assert shard.tracer.counters["shard.invalidations"] == 1

    def test_stale_lease_nacks_and_refreshes(self):
        # Plant a stale lease by hand (the window where the object moved
        # but the invalidation has not landed yet): the old holder NACKs,
        # the resolver drops the lease and re-resolves — E2E's shape.
        bed = _bed(_seed(15))
        oid = bed.create_object("resp1")

        def proc():
            yield from bed.settle()
            bed.accessor.cache[oid] = ("resp2", bed.sim.now + 1e9)
            record = yield bed.sim.spawn(bed.accessor.access(oid))
            bed.quiesce()
            return record

        record = bed.sim.run_process(proc())
        assert record.ok
        assert record.was_stale
        # NACKed access + fresh resolve + retried access.
        assert record.round_trips == 3
        assert bed.accessor.tracer.counters["lease.stale"] == 1

    def test_plain_advertise_is_accepted_without_ack(self):
        # The unsharded `advertise()` helper carries no req_id; a shard
        # stores the entry and simply skips the ack.
        sim = Simulator(seed=_seed(16))
        net = build_star(sim, 1)
        net.add_host(CONTROLLER_HOST)  # where advertise() sends
        net.connect(CONTROLLER_HOST, "s0")
        shard = ShardDirectory(net.host(CONTROLLER_HOST))
        oid = IDAllocator(seed=_seed(16)).allocate()

        def proc():
            advertise(net.host("h0"), oid)
            yield Timeout(100.0)
            return None

        sim.run_process(proc())
        assert shard.owner_of[oid] == "h0"
        assert shard.tracer.counters["shard.advertised"] == 1


# ---------------------------------------------------------------------------
# shard crash -> failover (the faults integration)
# ---------------------------------------------------------------------------


class TestShardFailover:
    def test_crash_window_completes_stream_via_successor(self):
        point = run_sharded_point(
            4, n_objects=16, n_accesses=60, seed=_seed(21),
            lease_ttl_us=20_000.0, refresh_interval_us=5_000.0,
            gap_us=1_000.0, shard_crash_window=(30_000.0, 90_000.0))
        assert point.failures == 0  # every access completed
        assert point.shard_failovers >= 1  # and the failover path ran
        assert point.counters.get(
            "faults.injector:faults.injected.crash") == 1

    def test_failover_counters_visible_in_snapshot(self):
        point = run_sharded_point(
            2, n_objects=8, n_accesses=30, seed=_seed(22),
            lease_ttl_us=10_000.0, refresh_interval_us=4_000.0,
            gap_us=1_000.0, shard_crash_window=(20_000.0, 60_000.0))
        assert point.failures == 0
        advertiser_failovers = sum(
            count for key, count in point.counters.items()
            if key.startswith("discovery.advertiser.") and
            key.endswith(":shard.failover"))
        assert advertiser_failovers >= 1

    def test_crash_window_requires_sharded_scheme(self):
        with pytest.raises(DiscoveryError):
            run_sharded_point(2, n_accesses=5, seed=_seed(23), scheme=SCHEME_E2E,
                              shard_crash_window=(10.0, 20.0))


# ---------------------------------------------------------------------------
# determinism and scale
# ---------------------------------------------------------------------------


class TestShardedDeterminism:
    def test_same_seed_byte_identical_counters(self):
        def run():
            point = run_sharded_point(4, n_objects=24, n_accesses=50,
                                      seed=_seed(25), percent_moved=10)
            return json.dumps(point.counters, sort_keys=True)

        assert run() == run()

    def test_different_seeds_change_the_stream(self):
        a = run_sharded_point(4, n_objects=24, n_accesses=50,
                              seed=_seed(26), percent_moved=10)
        b = run_sharded_point(4, n_objects=24, n_accesses=50,
                              seed=_seed(26) + 1, percent_moved=10)
        assert a.counters != b.counters

    def test_sharding_divides_advertise_load(self):
        baseline = run_sharded_point(1, n_objects=40, n_accesses=20,
                                     seed=_seed(27))
        sharded = run_sharded_point(4, n_objects=40, n_accesses=20,
                                    seed=_seed(27))
        total = sum(baseline.advertise_load.values())
        assert total == 40
        assert sum(sharded.advertise_load.values()) == total
        assert max(sharded.advertise_load.values()) < total
