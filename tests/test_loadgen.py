"""Tests for the open-loop load generator (ISSUE 7).

Covers the generator's statistics end to end: same-seed byte
determinism (shifted by ``REPRO_SEED_OFFSET`` so the CI fault-seed
matrix exercises several seeds), empirical Zipf skew against the
configured alpha, histogram percentiles against exact percentiles on
small traces, the open-loop saturation signature, and the live-profile
cache regression (identical placement inputs before/after the
incremental rewrite).
"""

import fractions
import os
import random

import pytest

from repro.loadgen import (DeterministicArrivals, LatencyHistogram,
                           LoadGenerator, ParetoSampler, PoissonArrivals,
                           TenantSpec, UniformSampler, ZipfSampler,
                           make_arrivals, make_popularity)
from repro.net.topology import build_star
from repro.runtime.engine import GlobalSpaceRuntime
from repro.sim import Simulator

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def seed(n: int) -> int:
    return n + SEED_OFFSET


def build_cluster(seed_value, n_hosts=4, bandwidth_gbps=0.05):
    sim = Simulator(seed=seed_value)
    net = build_star(sim, n_hosts, default_bandwidth_gbps=bandwidth_gbps,
                     default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net)
    for i in range(n_hosts):
        runtime.add_node(f"h{i}")
    return sim, runtime


def run_mix(seed_value, rate=2_000.0, duration_us=100_000.0):
    sim, runtime = build_cluster(seed_value)
    tenants = [
        TenantSpec(name="alpha", client="h0", rate_per_sec=rate,
                   popularity="zipf", skew=1.1, keyspace=50_000,
                   mix=(("load", 0.5), ("store", 0.2), ("invoke", 0.2),
                        ("proxied_invoke", 0.1)), flops=1e5),
        TenantSpec(name="beta", client="h1", rate_per_sec=rate / 2,
                   popularity="pareto", skew=1.3, keyspace=1_000_000,
                   mix=(("load", 1.0),)),
    ]
    report = LoadGenerator(runtime, tenants, duration_us=duration_us).run()
    return sim, runtime, report


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------


def test_poisson_arrivals_mean_gap():
    rng = random.Random(seed(7))
    arrivals = PoissonArrivals(10_000.0)
    gaps = arrivals.gaps(rng)
    drawn = [next(gaps) for _ in range(20_000)]
    mean = sum(drawn) / len(drawn)
    assert mean == pytest.approx(arrivals.mean_gap_us, rel=0.05)
    assert min(drawn) >= 0.0


def test_deterministic_arrivals_are_a_metronome():
    gaps = DeterministicArrivals(5_000.0).gaps(random.Random(seed(1)))
    assert [next(gaps) for _ in range(5)] == [200.0] * 5


def test_make_arrivals_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_arrivals("uniformish", 100.0)
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


# ---------------------------------------------------------------------------
# popularity
# ---------------------------------------------------------------------------


def test_zipf_empirical_skew_matches_alpha():
    """The log-log slope of rank frequencies recovers the configured
    alpha within tolerance (the satellite acceptance check)."""
    import math

    alpha = 1.0
    sampler = ZipfSampler(10_000, alpha=alpha)
    rng = random.Random(seed(13))
    counts = {}
    n = 200_000
    for _ in range(n):
        rank = sampler.sample(rng)
        counts[rank] = counts.get(rank, 0) + 1
    # Regress log(freq) on log(rank+1) over the well-sampled head.
    head = [(r, counts[r]) for r in range(50) if counts.get(r, 0) > 100]
    xs = [math.log(r + 1) for r, _ in head]
    ys = [math.log(c) for _, c in head]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert -slope == pytest.approx(alpha, abs=0.1)


def test_zipf_head_dominates_and_stays_in_range():
    sampler = ZipfSampler(1_000_000, alpha=1.2)
    rng = random.Random(seed(5))
    draws = [sampler.sample(rng) for _ in range(20_000)]
    assert all(0 <= r < 1_000_000 for r in draws)
    head_share = sum(1 for r in draws if r < 100) / len(draws)
    assert head_share > 0.5  # a 1M keyspace, yet the head dominates


class _TopRng:
    """Always draws the largest value ``random.random()`` can return."""

    def random(self):
        return 1.0 - 2.0 ** -53


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.1, 1.2, 2.0])
def test_zipf_top_draw_stays_in_range(alpha):
    """The top draw maps to the coldest rank, never one past it.  A CDF
    normalised as it accumulates can end just below 1.0 (at alpha 1.1
    for 123 of n = 2..200), so bisecting it with a draw near 1.0
    returns n; comparing against ``draw * total`` cannot overshoot."""
    for keyspace in range(1, 201):
        assert ZipfSampler(keyspace, alpha).sample(_TopRng()) < keyspace


@pytest.mark.parametrize("alpha", [0.9, 1.2])
def test_zipf_draws_equal_a_list_backed_reference(alpha):
    """The packed cumulative table draws exactly the ranks a list of
    Python floats accumulated the same way would."""
    import bisect
    import itertools

    keyspace = 100_000
    sampler = ZipfSampler(keyspace, alpha=alpha)
    cumulative = list(itertools.accumulate(
        1.0 / ((rank + 1) ** alpha) for rank in range(keyspace)))
    rng, ref_rng = random.Random(seed(21)), random.Random(seed(21))
    draws = [sampler.sample(rng) for _ in range(20_000)]
    expected = [bisect.bisect_left(cumulative, ref_rng.random() * cumulative[-1])
                for _ in range(20_000)]
    assert draws == expected


def test_pareto_is_heavy_tailed_but_bounded():
    sampler = ParetoSampler(1_000_000, alpha=1.1)
    rng = random.Random(seed(9))
    draws = [sampler.sample(rng) for _ in range(20_000)]
    assert all(0 <= r < 1_000_000 for r in draws)
    assert sum(1 for r in draws if r == 0) / len(draws) > 0.3
    assert max(draws) > 1_000  # the tail is actually used


def test_uniform_sampler_is_flat():
    sampler = UniformSampler(100)
    rng = random.Random(seed(3))
    draws = [sampler.sample(rng) for _ in range(50_000)]
    share = sum(1 for r in draws if r < 10) / len(draws)
    assert share == pytest.approx(0.1, rel=0.15)


def test_make_popularity_dispatch():
    assert isinstance(make_popularity("zipf", 10, 1.0), ZipfSampler)
    assert isinstance(make_popularity("pareto", 10, 1.0), ParetoSampler)
    assert isinstance(make_popularity("uniform", 10), UniformSampler)
    with pytest.raises(ValueError):
        make_popularity("hotcold", 10)
    with pytest.raises(ValueError):
        make_popularity("zipf", 0)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def exact_percentile(values, p):
    # Exact nearest rank: ceil(p/100 * n), computed over the decimal
    # value of ``p`` so fractional percentiles cannot truncate.
    ordered = sorted(values)
    frac_p = fractions.Fraction(str(p))
    rank = max(1, -(-(frac_p * len(ordered)) // 100))
    return ordered[rank - 1]


def test_histogram_percentiles_track_exact_percentiles():
    """Bucket percentiles sit within the quantization bound of the
    exact nearest-rank percentile on small traces — including
    fractional percentiles, whose rank must not truncate."""
    rng = random.Random(seed(21))
    hist = LatencyHistogram(min_us=1.0, max_us=1e7, subbuckets=32)
    values = [rng.expovariate(1.0 / 500.0) + 1.0 for _ in range(5_000)]
    for v in values:
        hist.record(v)
    for p in (50.0, 90.0, 99.0, 99.9, 12.34, 50.25, 66.67, 99.99):
        exact = exact_percentile(values, p)
        got = hist.percentile(p)
        # Upper bucket edge: never below exact, within one bucket above.
        assert got >= exact * (1.0 - 1e-9)
        assert got <= exact * (1.0 + 2.0 / 32) + 1.0


def test_histogram_fractional_percentile_never_under_reports():
    """Regression: the rank computed ``ceil(int(p*count)/100)``
    truncated away the fractional part of ``p*count``, so p=50.25 over
    two samples returned rank 1 instead of rank 2 — under-reporting the
    tail the documented guarantee promises never to."""
    hist = LatencyHistogram(min_us=1.0, max_us=1024.0, subbuckets=4)
    hist.record(2.0)
    hist.record(512.0)
    # Nearest rank of p=50.25 over 2 samples is ceil(1.005) = 2: the
    # large sample's bucket, never the small one's.
    assert hist.percentile(50.25) >= 512.0
    # Integer-boundary percentiles are unchanged: p=50 is rank 1.
    assert hist.percentile(50.0) <= 4.0


def test_histogram_mean_and_count_are_exact():
    hist = LatencyHistogram()
    values = [3.5, 10.0, 250.0, 99_999.0]
    for v in values:
        hist.record(v)
    assert hist.count == len(values)
    assert hist.mean() == pytest.approx(sum(values) / len(values))
    assert hist.max_recorded_us == 99_999.0


def test_histogram_memory_is_fixed():
    hist = LatencyHistogram()
    buckets = len(hist._counts)
    rng = random.Random(seed(2))
    for _ in range(100_000):
        hist.record(rng.uniform(0.0, 1e6))
    assert len(hist._counts) == buckets  # no growth, ever
    assert hist.count == 100_000


def test_histogram_edges_and_merge():
    hist = LatencyHistogram(min_us=1.0, max_us=1024.0, subbuckets=4)
    hist.record(0.0)          # below min -> bucket 0
    hist.record(5e9)          # above max -> clamped to last bucket
    assert hist.percentile(1) == 1.0
    other = LatencyHistogram(min_us=1.0, max_us=1024.0, subbuckets=4)
    other.record(100.0)
    hist.merge(other)
    assert hist.count == 3
    with pytest.raises(ValueError):
        hist.merge(LatencyHistogram(min_us=2.0, max_us=1024.0, subbuckets=4))
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(0.0)


def test_histogram_empty_reports_zero():
    hist = LatencyHistogram()
    assert hist.percentile(99.9) == 0.0
    assert hist.mean() == 0.0


# ---------------------------------------------------------------------------
# generator end to end
# ---------------------------------------------------------------------------


def test_same_seed_same_bytes():
    """Two runs from one seed produce identical counters — the
    byte-determinism the bench gate depends on (REPRO_SEED_OFFSET
    shifts the seed in the CI matrix, so this holds for any seed)."""
    _, _, r1 = run_mix(seed(42))
    _, _, r2 = run_mix(seed(42))
    assert r1.counters("loadgen.") == r2.counters("loadgen.")


def test_different_seeds_differ():
    _, _, r1 = run_mix(seed(42))
    _, _, r2 = run_mix(seed(43))
    assert r1.counters() != r2.counters()


def test_accounting_balances_and_ops_complete():
    _, _, report = run_mix(seed(11))
    for name, tr in report.tenants.items():
        assert tr.offered == tr.completed + tr.dropped + tr.failed
        assert tr.completed > 0
        assert tr.overall.count == tr.completed
        assert sum(h.count for h in tr.by_op.values()) == tr.completed
    alpha = report.tenants["alpha"]
    assert set(alpha.by_op) == {"load", "store", "invoke", "proxied_invoke"}
    assert all(h.count > 0 for h in alpha.by_op.values())


def test_lazy_keyspace_materializes_only_touched_ranks():
    _, runtime, report = run_mix(seed(8))
    beta = report.tenants["beta"]
    # A million-rank keyspace under Pareto skew touches a tiny slice.
    assert 0 < beta.materialized < 1_000
    assert beta.materialized <= beta.offered


def test_open_loop_sheds_past_outstanding_cap():
    sim, runtime = build_cluster(seed(31), bandwidth_gbps=0.002)
    tenant = TenantSpec(name="flood", client="h0", rate_per_sec=50_000.0,
                        popularity="uniform", keyspace=1_000,
                        mix=(("load", 1.0),), max_outstanding=32)
    report = LoadGenerator(runtime, [tenant], duration_us=50_000.0).run()
    tr = report.tenants["flood"]
    assert tr.dropped > 0  # far past saturation: the valve opened
    assert tr.offered == tr.completed + tr.dropped + tr.failed


def test_saturation_degrades_p999_monotonically():
    """The acceptance-criteria property, at test scale: p999 is
    non-decreasing in offered rate and collapses past the knee."""
    p999s = []
    for rate in (2_000.0, 8_000.0, 32_000.0):
        sim, runtime = build_cluster(seed(17), bandwidth_gbps=0.01)
        tenant = TenantSpec(name="t", client="h0", rate_per_sec=rate,
                            popularity="zipf", skew=1.0, keyspace=10_000,
                            mix=(("load", 0.8), ("store", 0.2)),
                            max_outstanding=512)
        report = LoadGenerator(runtime, [tenant], duration_us=80_000.0).run()
        p999s.append(report.tenants["t"].percentile(99.9))
    assert p999s[0] <= p999s[1] <= p999s[2]
    assert p999s[2] > 5 * p999s[0]


def test_loadgen_obs_keys_are_emitted():
    sim, runtime, report = run_mix(seed(4))
    counters = runtime.metrics.snapshot()["counters"]
    assert counters["workloads.loadgen.alpha:loadgen.offered"] > 0
    assert counters["workloads.loadgen.alpha:loadgen.completed"] > 0
    assert counters["workloads.loadgen.alpha:loadgen.materialized"] > 0
    assert counters["workloads.loadgen.beta:loadgen.offered"] > 0
    alpha = runtime.metrics.get("workloads.loadgen.alpha")
    sampled = set(alpha.series.keys())
    assert any(k.startswith("loadgen.p50_us.") for k in sampled)
    assert any(k.startswith("loadgen.p99_us.") for k in sampled)
    assert any(k.startswith("loadgen.p999_us.") for k in sampled)
    assert "loadgen.p99_us.all" in sampled


def test_report_counters_are_integers():
    _, _, report = run_mix(seed(6))
    for key, value in report.counters("loadgen.").items():
        assert isinstance(value, int), key
    merged = report.merged_histogram()
    assert merged.count == sum(t.completed for t in report.tenants.values())


def test_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(name="x", client="h0", rate_per_sec=100.0, mix=())
    with pytest.raises(ValueError):
        TenantSpec(name="x", client="h0", rate_per_sec=100.0,
                   mix=(("teleport", 1.0),))
    with pytest.raises(ValueError):
        TenantSpec(name="x", client="h0", rate_per_sec=100.0,
                   mix=(("load", 0.0),))
    with pytest.raises(ValueError):
        TenantSpec(name="", client="h0", rate_per_sec=100.0)
    sim, runtime = build_cluster(seed(1))
    spec = TenantSpec(name="x", client="nope", rate_per_sec=100.0)
    with pytest.raises(ValueError):
        LoadGenerator(runtime, [spec], duration_us=1_000.0)
    good = TenantSpec(name="x", client="h0", rate_per_sec=100.0)
    with pytest.raises(ValueError):
        LoadGenerator(runtime, [good, good], duration_us=1_000.0)


def test_a_store_from_a_staged_copy_lands_at_the_home():
    """The client is the only node that executes, so an eager invoke
    stages the object there; the store that follows must still reach
    the object's home, not just the client's copy."""
    sim = Simulator(seed=seed(5))
    net = build_star(sim, 3, default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net)
    runtime.add_node("h0")
    for name in ("h1", "h2"):
        runtime.add_node(name, can_execute=False)
    tenant = TenantSpec(name="w", client="h0", rate_per_sec=1.0, keyspace=1,
                        mix=(("invoke", 1.0), ("store", 1.0)))
    generator = LoadGenerator(runtime, [tenant], duration_us=1.0)
    state = generator._states[0]
    ref = generator._ref_for(state, 0)
    (home,) = runtime.holders(ref.oid)
    assert home != "h0"
    runtime.node(home).space.get(ref.oid).write(0, b"\xaa" * 64)

    def proc():
        for op in ("invoke", "store"):
            state.inflight += 1
            yield sim.spawn(generator._run_op(state, op, ref, 0))

    sim.run_process(proc())
    assert (state.completed, state.failed) == (2, 0)
    assert runtime.holders(ref.oid) == {"h0", home}
    stored = bytes(64)
    assert runtime.node(home).space.get(ref.oid).read(0, 64) == stored
    assert runtime.node("h0").space.get(ref.oid).read(0, 64) == stored


# ---------------------------------------------------------------------------
# live-profile cache regression (the satellite bugfix)
# ---------------------------------------------------------------------------


def test_live_profiles_match_uncached_ground_truth_under_load():
    """After the incremental rewrite, cached profiles must equal a
    fresh recompute at every placement-relevant moment — checked here
    under a full multi-tenant run with invokes (queue churn) and then
    with explicit health transitions."""
    sim, runtime, _ = run_mix(seed(23))
    names = sorted(runtime.nodes)
    assert runtime.live_profiles(names) == [
        runtime._compute_profile(n) for n in names]


def test_live_profiles_track_queue_and_suspicion_transitions():
    sim, runtime = build_cluster(seed(3))
    names = sorted(runtime.nodes)

    def check():
        assert runtime.live_profiles(names) == [
            runtime._compute_profile(n) for n in names]

    check()
    before = {p.name: p.active_jobs for p in runtime.live_profiles(names)}
    # Queue churn invalidates exactly the touched node.
    runtime.nodes["h1"].active_jobs += 3
    check()
    assert runtime.live_profiles(["h1"])[0].active_jobs == before["h1"] + 3
    runtime.nodes["h1"].active_jobs -= 3
    check()
    # A suspicion both penalizes immediately...
    runtime.health.suspect("h2")
    check()
    penalized = runtime.live_profiles(["h2"])[0].active_jobs
    assert penalized == before["h2"] + runtime.health.suspect_penalty_jobs
    # ...and expires by TTL with no event firing (the horizon case).
    sim.schedule(runtime.health.suspicion_ttl_us + 1.0, lambda: None)
    sim.run()
    check()
    assert runtime.live_profiles(["h2"])[0].active_jobs == before["h2"]
    # An explicit clear invalidates through the listener.
    runtime.health.suspect("h0")
    check()
    runtime.health.clear("h0")
    check()
    assert runtime.live_profiles(["h0"])[0].active_jobs == before["h0"]


def test_placement_decisions_identical_to_uncached_walk():
    """Placement over cached profiles picks the same node with the
    same cost as placement over freshly rebuilt profiles."""
    from repro.runtime.engine import MODE_EAGER

    sim, runtime = build_cluster(seed(19))
    from repro.loadgen.generator import LOADGEN_ENTRY, register_loadgen_touch
    register_loadgen_touch(runtime.registry)
    _, code_ref = runtime.create_code("h0", LOADGEN_ENTRY, text_size=256)
    obj = runtime.create_object("h2", size=512)
    from repro.core.refs import GlobalRef
    ref = GlobalRef(obj.oid, 0, "read")
    runtime.nodes["h1"].active_jobs += 2  # skew the queue picture
    runtime.health.suspect("h3")

    request_decisions = []
    original_decide = runtime.placement.decide

    def spying_decide(request, candidates, distance):
        fresh = [runtime._compute_profile(p.name) for p in candidates]
        assert list(candidates) == fresh
        decision = original_decide(request, candidates, distance)
        request_decisions.append((decision.node, decision.total_us))
        return decision

    runtime.placement.decide = spying_decide
    try:
        result = sim.run_process(runtime.invoke(
            "h0", code_ref, data_refs={"blob": ref},
            values={"nbytes": 64}, mode=MODE_EAGER))
    finally:
        runtime.placement.decide = original_decide
    assert result.value["bytes"] == 64
    assert request_decisions  # placement actually ran over the cache
