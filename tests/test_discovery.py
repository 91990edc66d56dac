"""Unit and integration tests for object discovery (E2E and controller)."""

import pytest

from repro.core import IDAllocator, ObjectSpace
from repro.discovery import (
    E2EResolver,
    IdentityAccessor,
    ObjectHome,
    SCHEME_CONTROLLER,
    SCHEME_E2E,
    SdnController,
    advertise,
    move_object,
    run_fig2_point,
    run_fig3_point,
)
from repro.net import build_paper_topology
from repro.sim import Simulator, Timeout


def _e2e_bed(seed=1):
    sim = Simulator(seed=seed)
    net = build_paper_topology(sim)
    allocator = IDAllocator(seed=seed + 1)
    homes = {
        name: ObjectHome(net.host(name), ObjectSpace(allocator, host_name=name))
        for name in ("resp1", "resp2")
    }
    resolver = E2EResolver(net.host("driver"))
    return sim, net, homes, resolver


def _controller_bed(seed=1):
    sim = Simulator(seed=seed)
    net = build_paper_topology(sim, with_controller_host=True)
    allocator = IDAllocator(seed=seed + 1)
    homes = {
        name: ObjectHome(net.host(name), ObjectSpace(allocator, host_name=name))
        for name in ("resp1", "resp2")
    }
    controller = SdnController(net, net.host("controller"))
    accessor = IdentityAccessor(net.host("driver"))
    return sim, net, homes, controller, accessor


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
        sim = Simulator(seed=3)
        net = build_paper_topology(sim)
        resolver = E2EResolver(net.host("driver"), timeout_us=500.0, max_retries=2)
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
        sim = Simulator(seed=5)
        net = build_paper_topology(sim, with_controller_host=True,
                                   identity_capacity=2)
        allocator = IDAllocator(seed=6)
        home = ObjectHome(net.host("resp1"),
                          ObjectSpace(allocator, host_name="resp1"))
        controller = SdnController(net, net.host("controller"))

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
        fresh = run_fig3_point(0, n_accesses=40)
        stale = run_fig3_point(90, n_accesses=40)
        assert stale.mean_rtt_us > 1.5 * fresh.mean_rtt_us
        assert stale.mean_round_trips > 1.7

    def test_fig3_variability_peaks_mid_sweep(self):
        # §4: "As staleness becomes overwhelming, the variability drops
        # again since nearly all accesses require 2 round trips."
        low = run_fig3_point(0, n_accesses=60)
        mid = run_fig3_point(50, n_accesses=60)
        high = run_fig3_point(95, n_accesses=60)
        assert mid.stdev_rtt_us > low.stdev_rtt_us
        assert mid.stdev_rtt_us > high.stdev_rtt_us

    def test_fig3_forwarding_absorbs_staleness(self):
        plain = run_fig3_point(60, n_accesses=40)
        forwarded = run_fig3_point(60, n_accesses=40, use_forwarding_hints=True)
        assert forwarded.mean_rtt_us < plain.mean_rtt_us
        assert forwarded.broadcasts_per_100 == 0

    def test_fig3_controller_variant_stays_flat(self):
        point = run_fig3_point(60, n_accesses=30, scheme=SCHEME_CONTROLLER)
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
        sim = Simulator(seed=31)
        net = build_paper_topology(sim)
        allocator = IDAllocator(seed=32)
        home = ObjectHome(net.host("resp1"),
                          ObjectSpace(allocator, host_name="resp1"))
        resolver = E2EResolver(net.host("driver"), timeout_us=1_000.0,
                               max_retries=3)
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
