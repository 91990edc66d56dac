"""Unit and integration tests for the WAN overlay."""

import pytest

from repro.core import IDAllocator
from repro.discovery import SCHEME_CONTROLLER, Testbed
from repro.net import RegionDirectory, build_multi_region
from repro.sim import Simulator

WAN_LATENCY_US = 2_000.0  # build_multi_region's gateway-to-core links


def make_overlay(seed=61, n_regions=2, hosts_per_region=2, **accessor):
    """An overlay with a home on every host and the accessor on
    ``r0_h0``; the overlay's regional control plane installs the
    identity routes (the network has no controller host)."""
    sim = Simulator(seed=seed)
    mr = build_multi_region(sim, n_regions=n_regions,
                            hosts_per_region=hosts_per_region)
    holders = [name for hosts in mr.hosts_by_region.values() for name in hosts]
    bed = Testbed(SCHEME_CONTROLLER, mr.network, 256, responders=holders,
                  driver="r0_h0", **accessor)
    return sim, mr, bed


def place_object(mr, bed, region, holder, size=256):
    home = bed.homes[holder]
    obj = home.space.create_object(size=size)
    mr.register_local_object(obj.oid, region, holder)
    return home, obj


class TestRegionDirectory:
    def test_object_and_host_registration(self):
        directory = RegionDirectory()
        oid = IDAllocator(seed=1).allocate()
        directory.register_object(oid, "r0")
        directory.register_host("h", "r1")
        assert directory.region_of_object(oid) == "r0"
        assert directory.region_of_host("h") == "r1"
        assert directory.object_count == 1

    def test_unknown_lookups_return_none(self):
        directory = RegionDirectory()
        assert directory.region_of_object(IDAllocator(seed=2).allocate()) is None
        assert directory.region_of_host("ghost") is None


class TestBuilder:
    def test_shape(self):
        sim, mr, bed = make_overlay(n_regions=3, hosts_per_region=2)
        net = mr.network
        assert len(net.switches) == 4  # 3 racks + wan core
        assert len(mr.gateways) == 3
        assert len(mr.hosts_by_region["r0"]) == 2

    def test_needs_two_regions(self):
        sim = Simulator(seed=3)
        with pytest.raises(ValueError):
            build_multi_region(sim, n_regions=1, hosts_per_region=2)

    def test_hosts_registered_in_directory(self):
        sim, mr, bed = make_overlay()
        assert mr.directory.region_of_host("r0_h0") == "r0"
        assert mr.directory.region_of_host("r1_gw") == "r1"


class TestCrossRegionAccess:
    def test_intra_region_access_stays_local(self):
        sim, mr, bed = make_overlay()
        home, obj = place_object(mr, bed, "r0", "r0_h1")
        accessor = bed.accessor

        def proc():
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.latency_us < WAN_LATENCY_US / 10
        gateway = mr.gateways["r0"]
        assert gateway.tracer.counters["gateway.tunnelled"] == 0

    def test_cross_region_access_succeeds(self):
        sim, mr, bed = make_overlay()
        home, obj = place_object(mr, bed, "r1", "r1_h0")
        obj.write(0, b"far")
        accessor = bed.accessor

        def proc():
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        # Each gateway-to-gateway trip crosses two WAN links (gateway ->
        # core -> gateway); the access is one such trip each way.
        assert record.latency_us > 4 * WAN_LATENCY_US
        assert record.latency_us < 5 * WAN_LATENCY_US

    def test_both_gateways_participate(self):
        sim, mr, bed = make_overlay()
        home, obj = place_object(mr, bed, "r1", "r1_h0")
        accessor = bed.accessor

        def proc():
            yield sim.spawn(accessor.access(obj.oid))
            return None

        sim.run_process(proc())
        assert mr.gateways["r0"].tracer.counters["gateway.tunnelled"] == 1
        assert mr.gateways["r0"].tracer.counters["gateway.delivered"] == 1
        assert mr.gateways["r1"].tracer.counters["gateway.tunnelled"] == 1
        assert mr.gateways["r1"].tracer.counters["gateway.delivered"] == 1

    def test_switch_state_stays_regional(self):
        """The hierarchical-overlay scaling claim: each rack's identity
        table is bounded by its own region's objects."""
        sim, mr, bed = make_overlay(n_regions=3)
        for region, count in (("r0", 3), ("r1", 5), ("r2", 2)):
            holder = f"{region}_h0"
            for _ in range(count):
                place_object(mr, bed, region, holder, size=64)
        net = mr.network
        assert len(net.switch("r0_sw").identity_table) == 3
        assert len(net.switch("r1_sw").identity_table) == 5
        assert len(net.switch("r2_sw").identity_table) == 2
        assert len(net.switch("wan_core").identity_table) == 0

    def test_three_regions_any_to_any(self):
        sim, mr, bed = make_overlay(n_regions=3)
        homes = {}
        for region in ("r1", "r2"):
            homes[region] = place_object(mr, bed, region, f"{region}_h0")
        accessor = bed.accessor

        def proc():
            records = []
            for region in ("r1", "r2"):
                record = yield sim.spawn(accessor.access(homes[region][1].oid))
                records.append(record)
            return records

        records = sim.run_process(proc())
        assert all(r.ok for r in records)

    def test_unregistered_object_times_out(self):
        sim, mr, bed = make_overlay(timeout_us=1_000.0, max_retries=2)
        # Resident but never registered with the overlay control plane.
        obj = bed.homes["r1_h0"].space.create_object(size=64)
        accessor = bed.accessor

        def proc():
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert not record.ok
        assert mr.gateways["r0"].tracer.counters["gateway.unroutable"] >= 1

    def test_repeat_access_same_cost(self):
        # Identity routing is stateless at the client: the overlay path
        # costs the same every time (no destination caching layer here).
        sim, mr, bed = make_overlay()
        home, obj = place_object(mr, bed, "r1", "r1_h0")
        accessor = bed.accessor

        def proc():
            first = yield sim.spawn(accessor.access(obj.oid))
            second = yield sim.spawn(accessor.access(obj.oid))
            return first, second

        first, second = sim.run_process(proc())
        assert second.latency_us == pytest.approx(first.latency_us, rel=0.2)
