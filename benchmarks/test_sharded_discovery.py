"""E18 / §3: sharding the controller directory and leasing its answers.

Paper: "a directory service... could be implemented in a distributed
fashion across controllers" and requesters "could cache the result of
discovery" so repeated accesses skip the lookup.  This experiment
shards the directory over N controller hosts with a rendezvous hash
(no coordination, every host derives the same map) and puts a TTL
lease cache in front of it:

* advertise load divides across shards — with 4 shards no shard sees
  more than ~1/3 of what the single controller absorbed;
* a lease hit is one RTT (straight to the holder), a miss two (shard
  lookup, then the access) — against E2E's broadcast-per-miss;
* a shard crash mid-stream is absorbed: advertisers re-register with
  the successor shard, requesters fail over on resolve timeouts, and
  the whole access stream still completes.
"""

from repro.discovery import SCHEME_E2E, run_sharded_point

from conftest import print_table

SEED = 18
N_OBJECTS = 40
N_ACCESSES = 120
SHARD_COUNTS = [1, 2, 4]


def test_advertise_load_divides_across_shards():
    points = {n: run_sharded_point(n, n_objects=N_OBJECTS,
                                   n_accesses=N_ACCESSES, seed=SEED)
              for n in SHARD_COUNTS}

    baseline = sum(points[1].advertise_load.values())
    assert baseline == N_OBJECTS
    rows = []
    for n in SHARD_COUNTS:
        load = points[n].advertise_load
        rows.append((n, sum(load.values()), max(load.values()),
                     points[n].mean_rtt_us))
        assert sum(load.values()) == baseline  # nothing went missing
    # The acceptance bar: with 4 shards no shard absorbs more than
    # about a third of the single-controller advertise load.
    assert max(points[4].advertise_load.values()) <= baseline / 3 + 1
    print_table(
        "E18a: directory advertise load vs shard count",
        ["shards", "adverts total", "max per shard", "mean RTT (us)"],
        rows)


def test_lease_hits_are_one_rtt():
    leased = run_sharded_point(4, n_objects=N_OBJECTS,
                               n_accesses=N_ACCESSES, seed=SEED)
    unleased = run_sharded_point(4, n_objects=N_OBJECTS,
                                 n_accesses=N_ACCESSES, seed=SEED,
                                 use_leases=False)
    moved = run_sharded_point(4, n_objects=N_OBJECTS, n_accesses=N_ACCESSES,
                              seed=SEED, percent_moved=25)

    # Warm-up resolved every object, so the measured stream runs
    # entirely on lease hits: exactly one exchange per access.
    assert leased.failures == 0 and unleased.failures == 0
    assert leased.mean_round_trips == 1.0
    assert leased.lease_hits == N_ACCESSES
    # Without the cache every access pays the shard lookup first.
    assert unleased.mean_round_trips == 2.0
    assert unleased.lease_hits == 0
    assert leased.mean_rtt_us < unleased.mean_rtt_us
    # A lease is safe to cache: when an object moves, its shard
    # pushes an invalidation that lands before the next access, so
    # no access goes to the old holder.
    assert moved.failures == 0 and moved.lease_invalidated > 0
    assert not any(record.was_stale for record in moved.records)
    print_table(
        "E18b: the lease cache halves the access path",
        ["cache", "mean RTT (us)", "p95 RTT (us)", "RTTs/access",
         "hits", "misses"],
        [("leases", leased.mean_rtt_us, leased.p95_rtt_us,
          leased.mean_round_trips, leased.lease_hits,
          leased.lease_misses),
         ("none", unleased.mean_rtt_us, unleased.p95_rtt_us,
          unleased.mean_round_trips, unleased.lease_hits,
          unleased.lease_misses),
         ("leases, 25% moved", moved.mean_rtt_us, moved.p95_rtt_us,
          moved.mean_round_trips, moved.lease_hits, moved.lease_misses)])


def test_sharded_tracks_e2e_on_a_warm_rack():
    points = [
        (SCHEME_E2E, run_sharded_point(1, n_objects=N_OBJECTS,
                                       n_accesses=N_ACCESSES, seed=SEED,
                                       scheme=SCHEME_E2E)),
        ("1 shard", run_sharded_point(1, n_objects=N_OBJECTS,
                                      n_accesses=N_ACCESSES, seed=SEED)),
        ("4 shards", run_sharded_point(4, n_objects=N_OBJECTS,
                                       n_accesses=N_ACCESSES, seed=SEED)),
    ]

    rows = []
    for label, point in points:
        assert point.failures == 0
        rows.append((label, point.mean_rtt_us, point.p95_rtt_us,
                     point.mean_round_trips))
    by_label = dict(points)
    # Once leases are warm, the sharded scheme matches E2E's cached
    # fast path (both go straight to the holder) — the directory
    # pays only on misses, not on every access.
    assert abs(by_label["4 shards"].mean_rtt_us
               - by_label[SCHEME_E2E].mean_rtt_us) < 5.0
    print_table(
        "E18c: warm-rack access RTT by scheme (Zipf stream)",
        ["scheme", "mean RTT (us)", "p95 RTT (us)", "RTTs/access"],
        rows)


def test_shard_crash_absorbed_by_failover():
    point = run_sharded_point(
        4, n_objects=16, n_accesses=80, seed=SEED,
        lease_ttl_us=20_000.0, refresh_interval_us=5_000.0,
        gap_us=1_000.0, shard_crash_window=(30_000.0, 90_000.0))

    # The hottest object's shard is down for 60 simulated ms in the
    # middle of the stream; every access must still complete.
    assert point.counters.get("faults.injector:faults.injected.crash") == 1
    assert point.failures == 0
    assert point.shard_failovers >= 1
    print_table(
        "E18d: shard crash mid-stream",
        ["accesses", "failed", "failovers", "lease hits", "invalidated",
         "mean RTT (us)"],
        [(80, point.failures, point.shard_failovers, point.lease_hits,
          point.lease_invalidated, point.mean_rtt_us)])
