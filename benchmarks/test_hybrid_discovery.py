"""E12h / §4: the hybrid scheme under limited switch memory.

Paper: "consider combinations of approaches in case of limited hardware
capabilities."

The hybrid accessor layers a host destination cache over controller-
installed identity routes.  Sweeping the switch identity-table capacity
against a fixed object population shows the combination's value: access
latency stays at ~1 RTT across the whole range, while the cost of
insufficient table memory appears as flood traffic (first-touch only)
instead of latency — and a pure-E2E client pays 2 RTTs on every first
touch regardless of table size.
"""

import pytest

from repro.core import IDAllocator, ObjectSpace
from repro.discovery import E2EResolver, HybridAccessor, ObjectHome, SdnController, advertise
from repro.net import build_paper_topology
from repro.sim import Simulator, Timeout, summarize

from conftest import bench_check, print_table

N_OBJECTS = 40
CAPACITIES = [0.0, 0.25, 0.5, 1.0]  # fraction of the population in-table


def run_hybrid_point(table_fraction: float, seed: int = 23, scheme: str = "hybrid"):
    """Touch every object once, then re-touch; report per-phase stats."""
    sim = Simulator(seed=seed)
    capacity = max(1, int(N_OBJECTS * table_fraction)) if table_fraction else 1
    net = build_paper_topology(
        sim, with_controller_host=True,
        identity_capacity=capacity if table_fraction > 0 else 1,
    )
    allocator = IDAllocator(seed=seed + 1)
    homes = {
        name: ObjectHome(net.host(name), ObjectSpace(allocator, host_name=name))
        for name in ("resp1", "resp2")
    }
    controller = SdnController(net, net.host("controller"))
    if scheme == "hybrid":
        accessor = HybridAccessor(net.host("driver"))
    else:
        accessor = E2EResolver(net.host("driver"))
    pool = []
    for i in range(N_OBJECTS):
        home = homes["resp1"] if i % 2 == 0 else homes["resp2"]
        obj = home.space.create_object(size=1024)
        pool.append(obj.oid)
        if table_fraction > 0:
            advertise(home.host, obj.oid)
    first, second = [], []
    flood_baseline = {}

    def driver():
        yield Timeout(5_000)
        # Snapshot control-plane flooding (advertisements to a not-yet-
        # learned controller) so the reported count is data-path only.
        flood_baseline["n"] = sum(
            s.tracer.counters["switch.flooded"] for s in net.switches)
        for oid in pool:
            record = yield sim.spawn(accessor.access(oid))
            first.append(record)
        for oid in pool:
            record = yield sim.spawn(accessor.access(oid))
            second.append(record)
        return None

    sim.run_process(driver())
    flooded = (sum(s.tracer.counters["switch.flooded"] for s in net.switches)
               - flood_baseline["n"])
    assert all(r.ok for r in first + second)
    return {
        "first_mean_us": summarize([r.latency_us for r in first]).mean,
        "first_rtts": sum(r.round_trips for r in first) / len(first),
        "second_mean_us": summarize([r.latency_us for r in second]).mean,
        "flooded_packets": flooded,
        "install_failures": controller.install_failures,
    }


@pytest.fixture(scope="module")
def sweep():
    results = {fraction: run_hybrid_point(fraction) for fraction in CAPACITIES}
    results["e2e"] = run_hybrid_point(1.0, scheme="e2e")
    return results


def test_hybrid_table(sweep, benchmark):
    benchmark.pedantic(lambda: run_hybrid_point(0.5), rounds=2, iterations=1)
    rows = []
    for fraction in CAPACITIES:
        stats = sweep[fraction]
        rows.append([f"hybrid {fraction:.0%}", stats["first_mean_us"],
                     stats["first_rtts"], stats["second_mean_us"],
                     stats["flooded_packets"], stats["install_failures"]])
    e2e = sweep["e2e"]
    rows.append(["pure E2E", e2e["first_mean_us"], e2e["first_rtts"],
                 e2e["second_mean_us"], e2e["flooded_packets"],
                 e2e["install_failures"]])
    print_table(
        f"Hybrid discovery vs identity-table coverage ({N_OBJECTS} objects)",
        ["scheme/coverage", "first_mean_us", "first_rtts", "repeat_mean_us",
         "flooded_pkts", "tbl_fails"],
        rows,
    )


def test_hybrid_first_touch_is_single_round_trip(sweep, benchmark):
    def check():
        for fraction in CAPACITIES:
            assert sweep[fraction]["first_rtts"] == pytest.approx(1.0, abs=0.01)

    bench_check(benchmark, check)


def test_e2e_first_touch_pays_two_round_trips(sweep, benchmark):
    def check():
        assert sweep["e2e"]["first_rtts"] == pytest.approx(2.0, abs=0.01)

    bench_check(benchmark, check)


def test_flood_traffic_shrinks_with_table_coverage(sweep, benchmark):
    def check():
        floods = [sweep[f]["flooded_packets"] for f in CAPACITIES]
        assert floods == sorted(floods, reverse=True)
        assert floods[-1] == 0  # full coverage: flood-free data path

    bench_check(benchmark, check)


def test_repeat_accesses_uniform_everywhere(sweep, benchmark):
    def check():
        base = sweep[1.0]["second_mean_us"]
        for fraction in CAPACITIES:
            assert sweep[fraction]["second_mean_us"] == pytest.approx(base, rel=0.05)

    bench_check(benchmark, check)


def test_partial_tables_log_install_failures(sweep, benchmark):
    def check():
        assert sweep[0.25]["install_failures"] > 0
        assert sweep[1.0]["install_failures"] == 0

    bench_check(benchmark, check)


def run_skewed_point(hot_coverage_only: bool, seed: int = 27,
                     n_accesses: int = 150, skew: float = 1.2):
    """Zipf-skewed accesses with a table sized for just the hot set.

    With real (skewed) popularity, covering the hot objects captures
    most of the traffic — the practical argument for small identity
    tables.  ``hot_coverage_only=False`` runs the same workload with
    full coverage as the reference.
    """
    from repro.loadgen import ZipfSampler

    sim = Simulator(seed=seed)
    hot_set = max(1, N_OBJECTS // 8)
    capacity = hot_set if hot_coverage_only else N_OBJECTS
    net = build_paper_topology(sim, with_controller_host=True,
                               identity_capacity=capacity)
    allocator = IDAllocator(seed=seed + 1)
    homes = {
        name: ObjectHome(net.host(name), ObjectSpace(allocator, host_name=name))
        for name in ("resp1", "resp2")
    }
    SdnController(net, net.host("controller"))
    accessor = HybridAccessor(net.host("driver"))
    pool = []
    for i in range(N_OBJECTS):
        home = homes["resp1"] if i % 2 == 0 else homes["resp2"]
        obj = home.space.create_object(size=1024)
        pool.append(obj.oid)
        # Advertise in popularity order: the table fills with the hot set.
        advertise(home.host, obj.oid)
    popularity = ZipfSampler(len(pool), skew)
    records = []
    flood_baseline = {}

    def driver():
        yield Timeout(5_000)
        flood_baseline["n"] = sum(
            s.tracer.counters["switch.flooded"] for s in net.switches)
        for _ in range(n_accesses):
            record = yield sim.spawn(accessor.access(pool[popularity.sample(sim.rng)]))
            records.append(record)
        return None

    sim.run_process(driver())
    flooded = (sum(s.tracer.counters["switch.flooded"] for s in net.switches)
               - flood_baseline["n"])
    assert all(r.ok for r in records)
    return {
        "mean_us": summarize([r.latency_us for r in records]).mean,
        "flooded": flooded,
        "distinct_objects": len({r.oid for r in records}),
    }


def test_skewed_popularity_makes_partial_tables_cheap(benchmark):
    """With Zipf accesses, a table covering only the hot eighth of the
    population removes most flood traffic relative to its size."""

    def check():
        partial = run_skewed_point(hot_coverage_only=True)
        full = run_skewed_point(hot_coverage_only=False)
        rows = [
            [f"hot-set table ({N_OBJECTS // 8} entries)", partial["mean_us"],
             partial["flooded"], partial["distinct_objects"]],
            [f"full table ({N_OBJECTS} entries)", full["mean_us"],
             full["flooded"], full["distinct_objects"]],
        ]
        print_table(
            f"Zipf(1.2) accesses over {N_OBJECTS} objects: hot-set vs full coverage",
            ["identity table", "mean_us", "data_floods", "distinct_objs"],
            rows,
        )
        # Latency identical; floods happen only on cold first touches.
        assert partial["mean_us"] == pytest.approx(full["mean_us"], rel=0.05)
        assert full["flooded"] == 0
        # The partial table floods at most once per *cold* distinct object,
        # far below one flood per access.
        cold_distinct = partial["distinct_objects"]
        assert partial["flooded"] <= cold_distinct * 10  # 10 copies per flood

    bench_check(benchmark, check)
