"""Unit and integration tests for object discovery (E2E and controller),
and for the testbed that wires every scheme."""

import pytest

from repro.core import IDAllocator
from repro.discovery import (
    CONTROLLER_HOST,
    SCHEME_CONTROLLER,
    SCHEME_E2E,
    SCHEME_HYBRID,
    SCHEME_SHARDED,
    DiscoveryError,
    Testbed,
    advertise,
    build_shard_star,
    move_object,
    run_fig2_point,
    run_fig3_point,
)
from repro.net import build_paper_topology
from repro.sim import Simulator, Timeout


def _e2e_bed(seed=1, **accessor):
    net = build_paper_topology(Simulator(seed=seed))
    bed = Testbed(SCHEME_E2E, net, 256, **accessor)
    return bed.sim, bed.net, bed.homes, bed.accessor


def _controller_bed(seed=1, **topology):
    net = build_paper_topology(Simulator(seed=seed), with_controller_host=True,
                               switch_kwargs=topology)
    bed = Testbed(SCHEME_CONTROLLER, net, 256)
    return bed.sim, bed.net, bed.homes, bed.controller, bed.accessor


class TestE2E:
    def test_first_access_is_two_round_trips(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.was_new
        assert record.round_trips == 2
        assert record.broadcasts == 1

    def test_cached_access_is_one_round_trip(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            yield sim.spawn(resolver.access(obj.oid))
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert not record.was_new
        assert record.round_trips == 1
        assert record.broadcasts == 0

    def test_cached_is_faster_than_first(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            first = yield sim.spawn(resolver.access(obj.oid))
            second = yield sim.spawn(resolver.access(obj.oid))
            return first.latency_us, second.latency_us

        first, second = sim.run_process(proc())
        assert second < first

    def test_stale_cache_rediscovers_with_data(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            yield sim.spawn(resolver.access(obj.oid))
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.was_stale
        assert record.round_trips == 2  # NACK round + combined find round
        assert record.broadcasts == 1
        assert resolver.cache[obj.oid] == "resp2"

    def test_forwarding_hints_avoid_broadcast(self):
        sim, net, homes, resolver = _e2e_bed()
        for home in homes.values():
            home.forward_stale_accesses = True
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            yield sim.spawn(resolver.access(obj.oid))
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.broadcasts == 0
        assert homes["resp1"].tracer.counters["home.access_forwarded"] == 1

    def test_nack_hint_retries_unicast(self):
        sim, net, homes, resolver = _e2e_bed()
        for home in homes.values():
            home.include_move_hints = True
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            yield sim.spawn(resolver.access(obj.oid))
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            # NACK carries the moved-to hint; resolver retries unicast.
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.broadcasts == 0
        assert resolver.cache[obj.oid] == "resp2"

    def test_missing_object_fails_after_retries(self):
        sim, net, _, resolver = _e2e_bed(seed=3, timeout_us=500.0, max_retries=2)
        ghost = IDAllocator(seed=77).allocate()

        def proc():
            record = yield sim.spawn(resolver.access(ghost))
            return record

        record = sim.run_process(proc())
        assert not record.ok
        assert resolver.tracer.counters["e2e.timeout"] == 2

    def test_access_reads_real_bytes(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)
        obj.write(0, b"expected-bytes")

        def proc():
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok


def test_hybrid_testbed_takes_the_given_budget():
    """An access nobody answers (identity-routed, flooded, and silently
    dropped by every home that lacks the object) gives up after the
    testbed's budget, 2 x 2 ms, not the accessor's 3 x 50 ms."""
    bed = Testbed(SCHEME_HYBRID, build_paper_topology(Simulator(seed=1)), 256,
                  timeout_us=2_000.0, max_retries=2)
    ghost = IDAllocator(seed=77).allocate()
    record = bed.sim.run_process(bed.accessor.access(ghost))
    assert not record.ok
    assert record.round_trips == 2
    assert record.end_us - record.start_us == 4_000.0


class TestController:
    def test_uniform_one_round_trip(self):
        sim, net, homes, controller, accessor = _controller_bed()
        objs = [homes["resp1"].space.create_object(size=256) for _ in range(3)]

        def proc():
            for obj in objs:
                advertise(homes["resp1"].host, obj.oid)
            yield Timeout(2000)
            records = []
            for obj in objs:
                record = yield sim.spawn(accessor.access(obj.oid))
                records.append(record)
            return records

        records = sim.run_process(proc())
        assert all(r.ok and r.round_trips == 1 for r in records)
        # Uniform latency, as the paper says (approx: float scheduling noise).
        first = records[0].latency_us
        assert all(r.latency_us == pytest.approx(first, rel=1e-6) for r in records)

    def test_no_broadcasts_on_access_path(self):
        sim, net, homes, controller, accessor = _controller_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            advertise(homes["resp1"].host, obj.oid)
            yield Timeout(2000)
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert net.host("driver").tracer.counters["host.tx_broadcast"] == 0

    def test_routes_installed_on_every_switch(self):
        sim, net, homes, controller, accessor = _controller_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            advertise(homes["resp1"].host, obj.oid)
            yield Timeout(2000)

        sim.run_process(proc())
        for switch in net.switches:
            assert obj.oid in switch.identity_table

    def test_movement_reroutes(self):
        sim, net, homes, controller, accessor = _controller_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            advertise(homes["resp1"].host, obj.oid)
            yield Timeout(2000)
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            advertise(homes["resp2"].host, obj.oid)
            yield Timeout(2000)
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert controller.owner_of[obj.oid] == "resp2"

    def test_superseded_advertisement_ignored(self):
        sim, net, homes, controller, accessor = _controller_bed()
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            # Two advertisements in quick succession: the second must win.
            advertise(homes["resp1"].host, obj.oid)
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            advertise(homes["resp2"].host, obj.oid)
            yield Timeout(5000)
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert controller.owner_of[obj.oid] == "resp2"

    def test_table_capacity_limits_install(self):
        sim, net, homes, controller, _ = _controller_bed(seed=5, identity_capacity=2)
        home = homes["resp1"]

        def proc():
            for _ in range(4):
                obj = home.space.create_object(size=64)
                advertise(home.host, obj.oid)
            yield Timeout(5000)

        sim.run_process(proc())
        assert controller.install_failures > 0


class TestWorkloadSweeps:
    def test_fig2_controller_flat_and_broadcast_free(self):
        low = run_fig2_point(SCHEME_CONTROLLER, 0, n_accesses=30)
        high = run_fig2_point(SCHEME_CONTROLLER, 90, n_accesses=30)
        assert low.broadcasts_per_100 == 0
        assert high.broadcasts_per_100 == 0
        assert high.mean_rtt_us == pytest.approx(low.mean_rtt_us, rel=0.05)

    def test_fig2_e2e_rtt_and_broadcasts_grow(self):
        low = run_fig2_point(SCHEME_E2E, 0, n_accesses=40)
        high = run_fig2_point(SCHEME_E2E, 90, n_accesses=40)
        assert high.mean_rtt_us > low.mean_rtt_us
        assert high.broadcasts_per_100 > 50
        assert low.broadcasts_per_100 == 0

    def test_fig2_no_failures(self):
        point = run_fig2_point(SCHEME_E2E, 50, n_accesses=40)
        assert point.failures == 0

    def test_fig3_mean_rises_toward_two_rtt(self):
        fresh = run_fig3_point(0)
        stale = run_fig3_point(90)
        assert stale.mean_rtt_us > 1.5 * fresh.mean_rtt_us
        assert stale.mean_round_trips > 1.7

    def test_fig3_variability_peaks_mid_sweep(self):
        # §4: "As staleness becomes overwhelming, the variability drops
        # again since nearly all accesses require 2 round trips."
        low = run_fig3_point(0)
        mid = run_fig3_point(50)
        high = run_fig3_point(95)
        assert mid.stdev_rtt_us > low.stdev_rtt_us
        assert mid.stdev_rtt_us > high.stdev_rtt_us

    def test_fig3_forwarding_absorbs_staleness(self):
        plain = run_fig3_point(60)
        forwarded = run_fig3_point(60, use_forwarding_hints=True)
        assert forwarded.mean_rtt_us < plain.mean_rtt_us
        assert forwarded.broadcasts_per_100 == 0

    def test_fig3_controller_variant_stays_flat(self):
        point = run_fig3_point(60, scheme=SCHEME_CONTROLLER)
        assert point.failures == 0
        assert point.mean_round_trips == pytest.approx(1.0, abs=0.2)

    def test_sweep_points_are_deterministic(self):
        a = run_fig2_point(SCHEME_E2E, 40, n_accesses=30, seed=9)
        b = run_fig2_point(SCHEME_E2E, 40, n_accesses=30, seed=9)
        assert a.mean_rtt_us == b.mean_rtt_us
        assert a.broadcasts_per_100 == b.broadcasts_per_100

    def test_invalid_percent_rejected(self):
        with pytest.raises(ValueError):
            run_fig2_point(SCHEME_E2E, 101)
        with pytest.raises(ValueError):
            run_fig3_point(-1)


class TestE2ERetryAccounting:
    """Regression: timed-out attempts are full wire exchanges and must
    each count toward ``round_trips`` (pre-fix, the caller counted one
    per call site no matter how many resends happened)."""

    def test_round_trips_counted_per_attempt(self):
        sim, net, homes, resolver = _e2e_bed(seed=31, timeout_us=1_000.0,
                                             max_retries=3)
        home = homes["resp1"]
        obj = home.space.create_object(size=256)
        # The responder is down for the first two find attempts and back
        # up for the third (attempts go out at t=0, 1000, 2000).
        net.host("resp1").fail()
        sim.schedule(1_900.0, net.host("resp1").recover)

        def proc():
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.broadcasts == 3  # every find attempt hit the wire
        # 2 timed-out finds + the answered find + the unicast access.
        assert record.round_trips == 4
        assert resolver.tracer.counters["e2e.timeout"] == 2

    def test_single_attempt_accounting_unchanged(self):
        # The fix must not inflate the no-loss path: first access is
        # still find (1) + access (1).
        sim, net, homes, resolver = _e2e_bed(seed=33)
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.round_trips == 2


def _testbed_network(scheme, with_controller):
    sim = Simulator(seed=7)
    if scheme != SCHEME_SHARDED:
        return build_paper_topology(sim, with_controller_host=with_controller)
    net = build_shard_star(sim, 2)
    if with_controller:
        net.add_host(CONTROLLER_HOST)
        net.connect(CONTROLLER_HOST, "s0")
    return net


@pytest.mark.parametrize(
    "scheme", [SCHEME_E2E, SCHEME_CONTROLLER, SCHEME_HYBRID, SCHEME_SHARDED])
def test_testbed_wires_each_scheme(scheme):
    """What `Testbed` builds: a controller exactly when the network has a
    controller host; advertisement on create and move to whichever
    directory exists (the shards under the sharded scheme, otherwise the
    controller); and a sharded move retires the old holder's advertiser."""
    for with_controller in (False, True):
        bed = Testbed(scheme, _testbed_network(scheme, with_controller), 256,
                      refresh_interval_us=500.0)
        assert (bed.controller is not None) == with_controller
        oid = bed.create_object("resp1")
        old_holder = bed.net.host("resp1")
        owners = []

        def proc():
            yield from bed.settle()
            directory = (bed.shards[bed.shard_map.shard_of(oid)]
                         if scheme == SCHEME_SHARDED else bed.controller)
            owners.append(directory and directory.owner_of.get(oid))
            assert bed.move(oid) == "resp2"
            sent_at_move = old_holder.tracer.counters["host.tx"]
            yield from bed.settle()
            owners.append(directory and directory.owner_of.get(oid))
            # Four refresh intervals later the old holder has sent nothing.
            owners.append(old_holder.tracer.counters["host.tx"] - sent_at_move)
            bed.quiesce()

        bed.sim.run_process(proc())
        if scheme == SCHEME_SHARDED or with_controller:
            assert owners == ["resp1", "resp2", 0]
        else:
            assert owners == [None, None, 0]
            assert old_holder.tracer.counters["host.tx"] == 0
    with pytest.raises(DiscoveryError):
        Testbed(scheme.upper(), _testbed_network(scheme, True), 256)
