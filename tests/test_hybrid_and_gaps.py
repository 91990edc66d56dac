"""Unit tests for the hybrid accessor plus assorted less-travelled paths."""

from repro.core import IDAllocator, ObjectSpace
from repro.discovery import SCHEME_HYBRID, ObjectHome, Testbed, advertise, move_object
from repro.net import build_paper_topology
from repro.sim import Simulator, Timeout


def hybrid_bed(seed=101, **topology):
    net = build_paper_topology(Simulator(seed=seed), with_controller_host=True,
                               switch_kwargs=topology)
    bed = Testbed(SCHEME_HYBRID, net, 256)
    return bed.sim, bed.net, bed.homes, bed.controller, bed.accessor


class TestHybridAccessor:
    def test_first_access_via_identity_routing(self):
        sim, net, homes, controller, accessor = hybrid_bed()
        obj = homes["resp1"].space.create_object(size=256)
        advertise(homes["resp1"].host, obj.oid)

        def proc():
            yield Timeout(2_000)
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.was_new
        assert record.round_trips == 1
        assert accessor.cache[obj.oid] == "resp1"

    def test_cached_access_goes_unicast(self):
        sim, net, homes, controller, accessor = hybrid_bed()
        obj = homes["resp1"].space.create_object(size=256)
        advertise(homes["resp1"].host, obj.oid)

        def proc():
            yield Timeout(2_000)
            yield sim.spawn(accessor.access(obj.oid))
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert not record.was_new
        assert accessor.tracer.counters["hybrid.unicast"] == 1

    def test_uninstalled_object_reached_via_flood_fallback(self):
        sim, net, homes, controller, accessor = hybrid_bed(identity_capacity=1)
        first = homes["resp1"].space.create_object(size=256)
        second = homes["resp2"].space.create_object(size=256)
        advertise(homes["resp1"].host, first.oid)
        advertise(homes["resp2"].host, second.oid)  # table full: not installed

        def proc():
            yield Timeout(2_000)
            record = yield sim.spawn(accessor.access(second.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.round_trips == 1
        assert controller.install_failures > 0

    def test_stale_cache_recovers_through_identity_routing(self):
        sim, net, homes, controller, accessor = hybrid_bed()
        obj = homes["resp1"].space.create_object(size=256)
        advertise(homes["resp1"].host, obj.oid)

        def proc():
            yield Timeout(2_000)
            yield sim.spawn(accessor.access(obj.oid))
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            advertise(homes["resp2"].host, obj.oid)
            yield Timeout(2_000)
            record = yield sim.spawn(accessor.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert record.ok
        assert record.was_stale
        assert accessor.cache[obj.oid] == "resp2"

    def test_timeout_validation(self):
        # An access nobody answers gives up after MAX_RETRIES attempts,
        # each waiting the (positive) TIMEOUT_US.
        sim, net, homes, controller, accessor = hybrid_bed()
        assert accessor.TIMEOUT_US > 0
        oid = IDAllocator(seed=999).allocate()  # held by no one

        def proc():
            yield Timeout(2_000)
            record = yield sim.spawn(accessor.access(oid))
            return record

        record = sim.run_process(proc())
        assert not record.ok
        assert record.round_trips == accessor.MAX_RETRIES
        assert record.end_us - record.start_us == (
            accessor.MAX_RETRIES * accessor.TIMEOUT_US)


class TestTocttou:
    """Footnote 1: location-based references open TOCTTOU windows;
    identity-based references do not."""

    def test_location_reference_goes_stale_between_check_and_use(self):
        sim, net, homes, controller, accessor = hybrid_bed(seed=103)
        obj = homes["resp1"].space.create_object(size=256)
        obj.write(0, b"v1")
        advertise(homes["resp1"].host, obj.oid)

        def proc():
            yield Timeout(2_000)
            # CHECK: resolve to a *location* (what an RPC API would hand out).
            yield sim.spawn(accessor.access(obj.oid))
            location_ref = accessor.cache[obj.oid]
            assert location_ref == "resp1"
            # ... the object moves in the window ...
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            advertise(homes["resp2"].host, obj.oid)
            yield Timeout(2_000)
            # USE: the location-based reference now points at the wrong
            # host (the stale entry), while the identity-based access
            # still lands on the data.
            record = yield sim.spawn(accessor.access(obj.oid))
            return location_ref, record

        location_ref, record = sim.run_process(proc())
        assert location_ref == "resp1"          # stale location
        assert record.ok                         # identity still resolves
        assert record.was_stale                  # and detected the staleness
        assert accessor.cache[obj.oid] == "resp2"


class TestWorkloadSettleAndMovement:
    def test_move_object_updates_spaces_and_hints(self):
        sim = Simulator(seed=105)
        net = build_paper_topology(sim)
        allocator = IDAllocator(seed=106)
        src = ObjectHome(net.host("resp1"), ObjectSpace(allocator, host_name="resp1"))
        dst = ObjectHome(net.host("resp2"), ObjectSpace(allocator, host_name="resp2"))
        obj = src.space.create_object(size=128)
        obj.write(0, b"moving")
        move_object(obj.oid, src, dst)
        assert obj.oid not in src.space
        assert dst.space.get(obj.oid).read(0, 6) == b"moving"
        assert src.moved_to[obj.oid] == "resp2"
        # Moving back clears the forward hint at the new source.
        move_object(obj.oid, dst, src)
        assert dst.moved_to[obj.oid] == "resp1"
        assert obj.oid not in src.moved_to
