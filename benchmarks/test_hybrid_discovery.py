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

from repro.discovery import SCHEME_E2E, SCHEME_HYBRID, Testbed
from repro.net import build_paper_topology
from repro.sim import Simulator, summarize

from conftest import print_table

N_OBJECTS = 40
CAPACITIES = [0.0, 0.25, 0.5, 1.0]  # fraction of the population in-table


def run_hybrid_point(table_fraction: float, seed: int = 23,
                     scheme: str = SCHEME_HYBRID):
    """Touch every object once, then re-touch; report per-phase stats.

    Both schemes run over a live controller; at 0% coverage nobody
    advertises, so the objects are created on their homes directly."""
    sim = Simulator(seed=seed)
    capacity = max(1, int(N_OBJECTS * table_fraction)) if table_fraction else 1
    net = build_paper_topology(
        sim, with_controller_host=True,
        switch_kwargs={
            "identity_capacity": capacity if table_fraction > 0 else 1},
    )
    bed = Testbed(scheme, net, 1024)
    pool = []
    for i in range(N_OBJECTS):
        responder = bed.responders[i % 2]
        if table_fraction > 0:
            pool.append(bed.create_object(responder))
        else:
            pool.append(bed.homes[responder].space.create_object(
                size=bed.object_size).oid)
    accessor = bed.accessor
    first, second = [], []
    flood_baseline = {}

    def driver():
        yield from bed.settle(5_000.0)
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
        "install_failures": bed.controller.install_failures,
    }


@pytest.fixture(scope="module")
def sweep():
    results = {fraction: run_hybrid_point(fraction) for fraction in CAPACITIES}
    results[SCHEME_E2E] = run_hybrid_point(1.0, scheme=SCHEME_E2E)
    return results


def test_hybrid_table(sweep):
    rows = []
    for fraction in CAPACITIES:
        stats = sweep[fraction]
        rows.append([f"hybrid {fraction:.0%}", stats["first_mean_us"],
                     stats["first_rtts"], stats["second_mean_us"],
                     stats["flooded_packets"], stats["install_failures"]])
    e2e = sweep[SCHEME_E2E]
    rows.append(["pure E2E", e2e["first_mean_us"], e2e["first_rtts"],
                 e2e["second_mean_us"], e2e["flooded_packets"],
                 e2e["install_failures"]])
    print_table(
        f"Hybrid discovery vs identity-table coverage ({N_OBJECTS} objects)",
        ["scheme/coverage", "first_mean_us", "first_rtts", "repeat_mean_us",
         "flooded_pkts", "tbl_fails"],
        rows,
    )


def test_hybrid_first_touch_is_single_round_trip(sweep):
    for fraction in CAPACITIES:
        assert sweep[fraction]["first_rtts"] == pytest.approx(1.0, abs=0.01)


def test_e2e_first_touch_pays_two_round_trips(sweep):
    assert sweep[SCHEME_E2E]["first_rtts"] == pytest.approx(2.0, abs=0.01)


def test_flood_traffic_shrinks_with_table_coverage(sweep):
    floods = [sweep[f]["flooded_packets"] for f in CAPACITIES]
    assert floods == sorted(floods, reverse=True)
    assert floods[-1] == 0  # full coverage: flood-free data path


def test_repeat_accesses_uniform_everywhere(sweep):
    base = sweep[1.0]["second_mean_us"]
    for fraction in CAPACITIES:
        assert sweep[fraction]["second_mean_us"] == pytest.approx(base, rel=0.05)


def test_partial_tables_log_install_failures(sweep):
    assert sweep[0.25]["install_failures"] > 0
    assert sweep[1.0]["install_failures"] == 0


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
                               switch_kwargs={"identity_capacity": capacity})
    bed = Testbed(SCHEME_HYBRID, net, 1024)
    # Created, so advertised, in popularity order: the table fills with
    # the hot set.
    pool = [bed.create_object(bed.responders[i % 2]) for i in range(N_OBJECTS)]
    accessor = bed.accessor
    popularity = ZipfSampler(len(pool), skew)
    records = []
    flood_baseline = {}

    def driver():
        yield from bed.settle(5_000.0)
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


def test_skewed_popularity_makes_partial_tables_cheap():
    """With Zipf accesses, a table covering only the hot eighth of the
    population removes most flood traffic relative to its size."""

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
