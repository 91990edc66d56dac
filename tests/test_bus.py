"""Tests for the event bus: delivery contracts, credit backpressure,
redelivery across faults, and isolated mode.

Deterministic but seed-shiftable: CI's fault-seed matrix re-runs this
module under several ``REPRO_SEED_OFFSET`` values, so assertions are
structural (zero loss, exactly-once handling) rather
than tied to one seed's event interleaving.
"""

import os

import pytest

from repro.core import FunctionRegistry, GlobalRef, IDAllocator
from repro.faults import FaultInjector, FaultPlan, HealthLedger
from repro.net import build_star
from repro.pubsub import (
    AT_LEAST_ONCE,
    AT_MOST_ONCE,
    BusError,
    EventBus,
    FormatField,
    PacketFormat,
    PubSubFabric,
)
from repro.runtime import GlobalSpaceRuntime, MODE_ISOLATED
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))

FMT = PacketFormat("events", [FormatField("kind", 16)])


def _seed(n):
    return n + SEED_OFFSET


def _bed(seed, n_hosts=3, **constants):
    """A bus over an ``n_hosts`` star; ``constants`` (``BUFFER_CAP=2``)
    override the bus's class constants, to shape a run."""
    sim = Simulator(seed=_seed(seed))
    net = build_star(sim, n_hosts, prefix="n")
    health = HealthLedger(sim)
    fabric = PubSubFabric(net, FMT, health=health)
    bus = EventBus(fabric)
    for name, value in constants.items():
        setattr(bus, name, value)
    topic = IDAllocator(seed=_seed(seed) + 1).allocate()
    return sim, net, fabric, bus, topic


# ---------------------------------------------------------------------------
# construction and contract validation
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_bad_contract_rejected(self):
        sim, net, fabric, bus, topic = _bed(3)
        with pytest.raises(BusError):
            bus.subscribe("n1", topic, lambda f, p: None, contract="maybe")
        with pytest.raises(BusError):
            bus.subscribe("n1", topic, lambda f, p: None, credits=0)

    def test_bad_windows_rejected(self):
        sim, net, fabric, bus, topic = _bed(2)
        with pytest.raises(BusError):
            bus.subscribe("n1", topic, lambda f, p: None, credits=-1)
        # The buffer, default window and redelivery budget are class
        # constants; none may be empty.
        assert EventBus.BUFFER_CAP >= 1
        assert EventBus.DEFAULT_CREDITS >= 1
        assert EventBus.REDELIVERY_BUDGET >= 1
        sub = bus.subscribe("n1", topic, lambda f, p: None)
        assert sub.credit_window == EventBus.DEFAULT_CREDITS

    def test_bus_inherits_fabric_health(self):
        sim, net, fabric, bus, topic = _bed(4)
        assert bus.health is fabric.health


# ---------------------------------------------------------------------------
# delivery contracts
# ---------------------------------------------------------------------------


class TestContracts:
    def test_basic_at_least_once_all_acked(self):
        sim, net, fabric, bus, topic = _bed(10)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_LEAST_ONCE)

        def pub():
            for i in range(5):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(100.0)

        sim.run_process(pub())
        sim.run()
        assert got == [0, 1, 2, 3, 4]
        assert bus.outstanding("n0", topic) == 0
        assert bus.tracer.counters.get("bus.acked") == 5
        assert bus.tracer.counters.get("bus.deduped") == 0

    def test_at_least_once_crash_window_zero_loss(self):
        """The tentpole acceptance: events published while the consumer
        host is crashed are redelivered after recovery; the handler sees
        every event exactly once (delivered + deduped == published)."""
        sim, net, fabric, bus, topic = _bed(
            11, REDELIVERY_US=4_000.0, REDELIVERY_BUDGET=20)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_LEAST_ONCE)
        FaultInjector(net, FaultPlan().crash_window("n1", 3_000, 29_000)).arm()

        def pub():
            for i in range(10):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(2_000.0)

        sim.run_process(pub())
        sim.run()
        c = bus.tracer.counters
        assert sorted(got) == list(range(10)), f"lost or duplicated: {got}"
        assert c.get("bus.delivered") + c.get("bus.deduped") == \
            c.get("bus.published") == 10
        assert c.get("bus.redelivered") > 0
        assert bus.outstanding("n0", topic) == 0

    def test_at_most_once_crash_window_loses_quietly(self):
        """Same fault, weaker contract: in-window events are simply gone
        — no redelivery machinery engages."""
        sim, net, fabric, bus, topic = _bed(12)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_MOST_ONCE)
        FaultInjector(net, FaultPlan().crash_window("n1", 3_000, 29_000)).arm()

        def pub():
            for i in range(10):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(2_000.0)

        sim.run_process(pub())
        sim.run()
        assert 0 < len(got) < 10
        assert bus.tracer.counters.get("bus.redelivered") == 0
        assert bus.outstanding("n0", topic) == 0

    def test_forced_duplicates_are_deduped(self):
        """A consumer slower than the redelivery interval acks late, so
        the publisher retransmits events the consumer already holds; the
        dedup layer suppresses every copy before the handler."""
        sim, net, fabric, bus, topic = _bed(
            13, REDELIVERY_US=3_000.0, REDELIVERY_BUDGET=20,
            SUSPECT_AFTER=1000)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_LEAST_ONCE, service_us=10_000.0)

        def pub():
            for i in range(3):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(100.0)

        sim.run_process(pub())
        sim.run()
        assert got == [0, 1, 2]
        assert bus.tracer.counters.get("bus.deduped") > 0
        assert bus.outstanding("n0", topic) == 0

    def test_at_least_once_survives_partition(self):
        sim, net, fabric, bus, topic = _bed(
            14, n_hosts=2, REDELIVERY_US=4_000.0, REDELIVERY_BUDGET=20)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_LEAST_ONCE)
        net.set_partition([["n0"], ["n1"]])
        sim.schedule(20_000.0, net.clear_partition)

        def pub():
            for i in range(5):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(1_000.0)

        sim.run_process(pub())
        sim.run()
        assert sorted(got) == list(range(5))
        assert bus.outstanding("n0", topic) == 0

    def test_redelivery_budget_exhaustion_quiesces(self):
        """A consumer that never comes back costs exactly
        ``redelivery_budget`` attempts per event, then the event is shed
        and the simulation quiesces — no immortal timers."""
        sim, net, fabric, bus, topic = _bed(
            15, REDELIVERY_US=2_000.0, REDELIVERY_BUDGET=3)
        bus.subscribe("n1", topic, lambda f, p: None, contract=AT_LEAST_ONCE)
        FaultInjector(net, FaultPlan().crash("n1", at=1_000)).arm()

        def pub():
            yield Timeout(2_000.0)  # publish only after the crash
            bus.publish("n0", topic, {"kind": 1}, b"e")

        sim.run_process(pub())
        sim.run()  # must terminate
        c = bus.tracer.counters
        assert c.get("bus.redelivered") == 3
        assert c.get("bus.shed") == 1
        assert bus.outstanding("n0", topic) == 0

    def test_repeated_redelivery_suspects_host_and_grant_clears(self):
        sim, net, fabric, bus, topic = _bed(
            16, REDELIVERY_US=2_000.0, REDELIVERY_BUDGET=20, SUSPECT_AFTER=3)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      contract=AT_LEAST_ONCE)
        FaultInjector(net, FaultPlan().crash_window("n1", 500, 20_000)).arm()
        suspected = []
        bus.health.add_listener(
            lambda node: suspected.append((sim.now, node)))

        def pub():
            yield Timeout(1_000.0)
            bus.publish("n0", topic, {"kind": 7}, b"e")

        sim.run_process(pub())
        sim.run()
        assert got == [7]
        assert any(node == "n1" for _, node in suspected)
        assert not bus.health.is_suspected("n1")  # grant cleared it
        assert fabric.tracer.counters.get("pubsub.dead_route_pruned") > 0

    def test_per_subscription_contracts_share_one_stream(self):
        """The same published stream, consumed at-most-once by one
        subscriber and at-least-once by another on a different host."""
        sim, net, fabric, bus, topic = _bed(
            17, REDELIVERY_US=4_000.0, REDELIVERY_BUDGET=20)
        amo, alo = [], []
        bus.subscribe("n1", topic, lambda f, p: amo.append(f["kind"]),
                      contract=AT_MOST_ONCE)
        bus.subscribe("n2", topic, lambda f, p: alo.append(f["kind"]),
                      contract=AT_LEAST_ONCE)
        FaultInjector(net, FaultPlan().crash_window("n2", 3_000, 25_000)).arm()

        def pub():
            for i in range(8):
                bus.publish("n0", topic, {"kind": i}, b"e")
                yield Timeout(2_000.0)

        sim.run_process(pub())
        sim.run()
        assert amo == list(range(8))            # n1 never crashed
        assert sorted(alo) == list(range(8))    # n2 recovered everything
        assert bus.outstanding("n0", topic) == 0

    def test_predicate_filtered_events_still_ack(self):
        from repro.pubsub import Eq

        sim, net, fabric, bus, topic = _bed(18, REDELIVERY_US=2_000.0)
        got = []
        sub = bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                            contract=AT_LEAST_ONCE, predicate=Eq("kind", 1))

        def pub():
            bus.publish("n0", topic, {"kind": 1}, b"hit")
            bus.publish("n0", topic, {"kind": 2}, b"miss")
            yield Timeout(100.0)

        sim.run_process(pub())
        sim.run()  # a filtered event must not redeliver forever
        assert got == [1]
        assert sub.filtered == 1
        assert bus.outstanding("n0", topic) == 0

    def test_unsubscribe_releases_publisher_obligations(self):
        sim, net, fabric, bus, topic = _bed(19, REDELIVERY_US=2_000.0)
        sub = bus.subscribe("n1", topic, lambda f, p: None,
                            contract=AT_LEAST_ONCE, service_us=50_000.0)

        def pub():
            bus.publish("n0", topic, {"kind": 1}, b"e")
            yield Timeout(500.0)
            bus.unsubscribe(sub)

        sim.run_process(pub())
        sim.run()
        assert bus.outstanding("n0", topic) == 0


# ---------------------------------------------------------------------------
# credit-based backpressure
# ---------------------------------------------------------------------------


class TestBackpressure:
    def _burst(self, bus, topic, n, gap=10.0):
        def pub():
            for i in range(n):
                bus.publish("n0", topic, {"kind": i % 100}, b"e")
                yield Timeout(gap)
        return pub

    def test_credit_window_bounds_unconsumed_events(self):
        credits = 2
        sim, net, fabric, bus, topic = _bed(20, BUFFER_CAP=64)
        holder = {}
        lens = []

        def handler(fields, payload):
            # One event is being serviced (already popped), so the inbox
            # may hold at most credits-1 more.
            lens.append(len(holder["sub"].inbox))

        holder["sub"] = bus.subscribe("n1", topic, handler,
                                      credits=credits, service_us=500.0)
        sim.run_process(self._burst(bus, topic, 20)())
        sim.run()
        assert holder["sub"].delivered == 20
        assert max(lens) <= credits - 1
        assert bus.tracer.counters.get("bus.credit_stall") > 0
        assert bus.tracer.counters.get("bus.shed") == 0

    def test_drop_oldest_sheds_head_keeps_tail(self):
        sim, net, fabric, bus, topic = _bed(
            21, BUFFER_CAP=2)
        got = []
        bus.subscribe("n1", topic, lambda f, p: got.append(f["kind"]),
                      credits=1, service_us=2_000.0)
        sim.run_process(self._burst(bus, topic, 10)())
        sim.run()
        assert bus.tracer.counters.get("bus.shed") > 0
        assert got[-1] == 9          # the newest event survived
        assert len(got) < 10

    def test_suspected_consumer_does_not_freeze_the_topic(self):
        """A dead at-most-once consumer's zeroed credit is excluded from
        the pacing minimum once suspected, so live consumers keep
        receiving."""
        sim, net, fabric, bus, topic = _bed(
            24, BUFFER_CAP=8)
        live = []
        bus.subscribe("n1", topic, lambda f, p: live.append(f["kind"]),
                      credits=4)
        bus.subscribe("n2", topic, lambda f, p: None, credits=4)
        FaultInjector(net, FaultPlan().crash("n2", at=100)).arm()
        bus.health.suspect("n2")

        def pub():
            yield Timeout(1_000.0)
            for i in range(20):
                bus.publish("n0", topic, {"kind": i % 100}, b"e")
                yield Timeout(200.0)

        sim.run_process(pub())
        sim.run()
        assert len(live) == 20


def _cluster(seed, n=3):
    sim = Simulator(seed=_seed(seed))
    net = build_star(sim, n, prefix="n")
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(n):
        runtime.add_node(f"n{i}")
    return sim, net, registry, runtime


# ---------------------------------------------------------------------------
# admission: a node takes every invocation; load steers placement instead
# ---------------------------------------------------------------------------


class TestAdmissionPolicy:
    def test_no_policy_always_admits(self):
        # No ceiling sheds work: many concurrent invocations confined to
        # one node all run there.
        sim, net, registry, runtime = _cluster(31)

        @registry.register("one")
        def one(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "one", text_size=128)

        def driver():
            procs = [sim.spawn(runtime.invoke(
                "n0", code_ref, flops=1e5, candidates=["n1"]))
                for _ in range(20)]
            results = []
            for proc in procs:
                results.append((yield proc))
            return results

        results = sim.run_process(driver())
        assert [r.executed_at for r in results] == ["n1"] * 20
        assert [r.value for r in results] == [1] * 20


class TestAdmissionIntegration:
    def test_saturated_candidate_falls_over_to_free_node(self):
        sim, net, registry, runtime = _cluster(34)

        @registry.register("slow")
        def slow(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "slow", text_size=128)
        placed = []

        def driver():
            occupier = sim.spawn(runtime.invoke(
                "n0", code_ref, flops=2e7, candidates=["n1"]))
            yield Timeout(1_000.0)  # the occupier is running on n1
            assert runtime.node("n1").active_jobs == 1
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, flops=1e4, candidates=["n1", "n2"]))
            placed.append(result.executed_at)
            yield occupier

        sim.run_process(driver())
        assert placed == ["n2"]


# ---------------------------------------------------------------------------
# isolated (interference-free) invocation mode
# ---------------------------------------------------------------------------


class TestIsolatedMode:
    def _rmw_cluster(self, seed):
        sim, net, registry, runtime = _cluster(seed, n=4)

        @registry.register("bump")
        def bump(ctx, args):
            raw = yield ctx.read(args["obj"], 0, 8)
            value = int.from_bytes(raw, "little") + 1
            yield ctx.write(args["obj"], value.to_bytes(8, "little"))
            return value

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "bump", text_size=128)
        ref = GlobalRef(blob.oid, 0, "write")
        return sim, runtime, blob, code_ref, ref

    def _run_concurrent_bumps(self, seed):
        sim, runtime, blob, code_ref, ref = self._rmw_cluster(seed)

        def driver():
            p1 = sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"obj": ref},
                mode=MODE_ISOLATED, flops=1e5, candidates=["n1"]))
            p2 = sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"obj": ref},
                mode=MODE_ISOLATED, flops=1e5, candidates=["n2"]))
            r1 = yield p1
            r2 = yield p2
            return sorted([r1.value, r2.value])

        results = sim.run_process(driver())
        owner = sorted(runtime.holders(blob.oid))[0]
        final = int.from_bytes(
            runtime.node(owner).space.get(blob.oid).read(0, 8), "little")
        return results, final, sim.now, runtime

    def test_concurrent_rmw_serializes(self):
        """Two isolated read-modify-writes over one object must not
        interleave: no lost update, results are the serial history."""
        results, final, _, runtime = self._run_concurrent_bumps(40)
        assert results == [1, 2]
        assert final == 2
        claims = sum(
            runtime.node(f"n{i}").tracer.counters.get("node.isolated_claim")
            for i in (1, 2))
        assert claims == 2

    def test_isolated_runs_are_deterministic(self):
        first = self._run_concurrent_bumps(41)[:3]
        second = self._run_concurrent_bumps(41)[:3]
        assert first == second

    def test_spawned_invoke_returns_result_via_process(self):
        sim, runtime, blob, code_ref, ref = self._rmw_cluster(42)

        def driver():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"obj": ref},
                mode=MODE_ISOLATED, flops=1e5))
            return result

        result = sim.run_process(driver())
        assert result.value == 1

    def test_reservation_table_is_fifo_per_object(self):
        sim, net, registry, runtime = _cluster(43)
        oid_a = IDAllocator(seed=_seed(43) + 1).allocate()
        oid_b = IDAllocator(seed=_seed(43) + 2).allocate()
        order = []

        def holder():
            yield from runtime.reservations.acquire([oid_a, oid_b])
            order.append("holder-in")
            yield Timeout(1_000.0)
            runtime.reservations.release([oid_a, oid_b])
            order.append("holder-out")

        def waiter():
            yield Timeout(10.0)
            yield from runtime.reservations.acquire([oid_b])
            order.append("waiter-in")
            runtime.reservations.release([oid_b])

        def driver():
            a = sim.spawn(holder())
            b = sim.spawn(waiter())
            yield a
            yield b

        sim.run_process(driver())
        assert order == ["holder-in", "holder-out", "waiter-in"]
