"""Tests for the CXL-style shared-memory pool tier.

Covers the pool's capacity accounting and LRU eviction, the MSI
authority rules (a Modified grant invalidates the pool mapping before
any write lands), the placement estimator's tier resolution against
:meth:`CostModel.resolve_tier` ground truth, and determinism of the
pool-vs-transport comparison across seeds.
"""

import os

import pytest

from repro.core import (
    CostModel,
    GlobalRef,
    IDAllocator,
    NodeProfile,
    ObjectID,
    PlacementEngine,
    PlacementItem,
    PlacementRequest,
)
from repro.core.costmodel import TIER_DRAM, TIER_NETWORK, TIER_POOL
from repro.memproto import (
    CoherenceAgent,
    CoherenceError,
    LightweightTransport,
    PoolCapacityError,
    PoolError,
    SharedMemoryPool,
)
from repro.net import build_star
from repro.sim import Simulator

from .paths import hops_apart, uniform

# Shift every seed below by REPRO_SEED_OFFSET so CI's fault-seed matrix
# exercises disjoint seed ranges.
SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n: int) -> int:
    return n + SEED_OFFSET


def _oid(alloc=IDAllocator(seed=99)):
    return alloc.allocate()


def _pool(sim, capacity=4096, members=("h0", "h1")):
    return SharedMemoryPool(sim, "rack0", members, capacity)


class TestPoolAccounting:
    def test_map_reserves_and_unmap_releases(self, sim):
        pool = _pool(sim)
        oid = _oid()
        pool.map_object(oid, b"x" * 1000)
        assert pool.reserved_bytes == 1000
        assert pool.mapped(oid)
        assert pool.unmap(oid)
        assert pool.reserved_bytes == 0
        assert not pool.mapped(oid)
        counters = pool.tracer.counters
        assert counters.get("pool.map_bytes") == 1000
        assert counters.get("pool.release_bytes") == 1000

    def test_balance_invariant_holds_through_churn(self, sim):
        pool = _pool(sim, capacity=3000)
        oids = [_oid() for _ in range(8)]
        for i, oid in enumerate(oids):
            pool.map_object(oid, bytes(500 + 100 * i))
            counters = pool.tracer.counters
            assert pool.reserved_bytes == (
                counters.get("pool.map_bytes")
                - counters.get("pool.release_bytes"))
            assert pool.reserved_bytes <= pool.capacity_bytes

    def test_lru_eviction_under_pressure(self, sim):
        pool = _pool(sim, capacity=2048)
        first, second, third = _oid(), _oid(), _oid()
        pool.map_object(first, bytes(1024))
        pool.map_object(second, bytes(1024))
        pool.map_object(third, bytes(1024))  # evicts `first` (LRU)
        assert not pool.mapped(first)
        assert pool.mapped(second) and pool.mapped(third)
        assert pool.tracer.counters.get("pool.evict") == 1
        assert pool.reserved_bytes == 2048

    def test_load_refreshes_lru_order(self, sim):
        pool = _pool(sim, capacity=2048)
        first, second, third = _oid(), _oid(), _oid()
        pool.map_object(first, bytes(1024))
        pool.map_object(second, bytes(1024))
        sim.run_process(pool.load(first))  # `second` becomes the LRU
        pool.map_object(third, bytes(1024))
        assert pool.mapped(first) and not pool.mapped(second)

    def test_oversized_object_raises_without_evicting(self, sim):
        pool = _pool(sim, capacity=1024)
        resident = _oid()
        pool.map_object(resident, bytes(512))
        with pytest.raises(PoolCapacityError):
            pool.map_object(_oid(), bytes(2048))
        assert pool.mapped(resident)  # nobody was evicted for a lost cause
        assert pool.reserved_bytes == 512

    def test_double_map_raises(self, sim):
        pool = _pool(sim)
        oid = _oid()
        pool.map_object(oid, bytes(64))
        with pytest.raises(PoolError):
            pool.map_object(oid, bytes(64))

    def test_unmapped_load_raises(self, sim):
        pool = _pool(sim)
        with pytest.raises(PoolError):
            # The misuse surfaces before the generator's first yield.
            next(pool.load(_oid()))

    def test_out_of_range_load_raises(self, sim):
        pool = _pool(sim)
        oid = _oid()
        pool.map_object(oid, bytes(64))
        with pytest.raises(PoolError):
            next(pool.load(oid, 32, 64))

    def test_load_latency_is_far_memory_plus_streaming(self, sim):
        pool = _pool(sim)  # streams at POOL_BANDWIDTH_GBPS, 2 Gbps
        oid = _oid()
        pool.map_object(oid, bytes(2500))
        start = sim.now
        sim.run_process(pool.load(oid))
        # 10us far-memory access + 2500B / (2Gbps = 250 B/us) = 20us.
        assert sim.now - start == pytest.approx(20.0)


class TestCoherenceIntegration:
    def _rack(self, seed, n_hosts=2, capacity=1 << 20):
        sim = Simulator(seed=seed)
        net = build_star(sim, n_hosts)
        home_map = {}
        agents = [CoherenceAgent(net.host(f"h{i}"), home_map)
                  for i in range(n_hosts)]
        pool = SharedMemoryPool(
            sim, "rack0", [f"h{i}" for i in range(n_hosts)], capacity)
        for agent in agents:
            agent.attach_pool(pool)
        return sim, agents, pool

    def test_non_member_cannot_attach(self, sim):
        net = build_star(sim, 2)
        agent = CoherenceAgent(net.host("h1"), {})
        pool = _pool(sim, members=("h0",))
        with pytest.raises(CoherenceError):
            agent.attach_pool(pool)

    def test_pool_read_skips_packet_path(self):
        sim, (home, reader), pool = self._rack(_seed(11))
        oid = _oid()
        home.host_object(oid, b"pooled-bytes!" * 4)
        home.map_to_pool(oid)
        data = sim.run_process(reader.read(oid, 0, 13))
        assert data == b"pooled-bytes!"
        counters = reader.tracer.counters
        assert counters.get("coherence.pool_hit") == 1
        assert counters.get("coherence.read_miss") == 0
        # No cache entry installed: a load is one-shot, not a fill.
        assert sim.run_process(reader.read(oid, 0, 13)) == b"pooled-bytes!"
        assert reader.tracer.counters.get("coherence.pool_hit") == 2
        assert reader.tracer.counters.get("coherence.cache_hit") == 0

    def test_map_refused_while_modified_outstanding(self):
        sim, (home, writer), pool = self._rack(_seed(12))
        oid = _oid()
        home.host_object(oid, bytes(64))
        sim.run_process(writer.write(oid, 0, b"dirty"))
        with pytest.raises(CoherenceError):
            home.map_to_pool(oid)

    def test_modified_grant_invalidates_pool_mapping(self):
        sim, (home, reader, writer), pool = self._rack(_seed(13), n_hosts=3)
        oid = _oid()
        home.host_object(oid, b"old" + bytes(61))
        home.map_to_pool(oid)
        assert sim.run_process(reader.read(oid, 0, 3)) == b"old"
        # A writer acquires Modified: the home must drop the pool
        # mapping before the write can land anywhere.
        sim.run_process(writer.write(oid, 0, b"new"))
        assert not pool.mapped(oid)
        assert pool.tracer.counters.get("pool.invalidate") == 1
        assert pool.reserved_bytes == 0
        # The reader falls back to the packet path and sees the new
        # bytes (the home recalls the writer's M copy to serve Shared).
        data = sim.run_process(reader.read(oid, 0, 3))
        assert data == b"new"
        assert reader.tracer.counters.get("coherence.read_miss") == 1

    def test_home_quiet_write_invalidates_pool_mapping(self):
        sim, (home, reader), pool = self._rack(_seed(14))
        oid = _oid()
        home.host_object(oid, b"old" + bytes(61))
        home.map_to_pool(oid)
        sim.run_process(home.write(oid, 0, b"new"))
        assert not pool.mapped(oid)
        assert sim.run_process(reader.read(oid, 0, 3)) == b"new"

    def test_read_objects_uses_pool_fast_path(self):
        sim, (home, reader), pool = self._rack(_seed(15))
        oids = [_oid() for _ in range(4)]
        for i, oid in enumerate(oids):
            home.host_object(oid, bytes([i]) * 32)
        home.map_to_pool(oids[0])
        home.map_to_pool(oids[2])
        results = sim.run_process(reader.read_objects(oids))
        assert all(results[oid] == bytes([i]) * 32
                   for i, oid in enumerate(oids))
        counters = reader.tracer.counters
        assert counters.get("coherence.pool_hit") == 2
        assert counters.get("coherence.read_miss") == 2


class TestTierChoice:
    def _request(self, size, locations=("far",)):
        return PlacementRequest(
            code=PlacementItem(GlobalRef(ObjectID(1), 0, "read"), 256,
                               ("here",)),
            inputs=(PlacementItem(GlobalRef(ObjectID(2), 0, "read"), size,
                                  locations),),
            invoker="here",
            result_bytes=256,
            flops=1e3,
        )

    _distance = staticmethod(hops_apart(5))

    def _engine(self, pooled):
        engine = PlacementEngine()
        engine.pool_oracle = lambda node, oid: "rack0" if pooled else None
        return engine

    def test_decision_matches_resolve_tier_ground_truth(self):
        model = CostModel()
        for size in (128, 1_024, 8_192, 65_536, 1 << 20):
            for pooled in (False, True):
                engine = self._engine(pooled)
                decision = engine.decide(
                    self._request(size), [NodeProfile("here")],
                    self._distance)
                # The fetch is priced as the runtime's two frames.
                expected_tier, expected_us = model.resolve_tier(
                    size, model.fetch_time_us(
                        size, uniform(5), engine.FETCH_REQ_FRAME_BYTES,
                        engine.FETCH_RSP_FRAME_BYTES),
                    pooled=pooled)
                move = decision.movements[0]
                assert move.tier == expected_tier
                assert move.transfer_us == expected_us
                assert decision.tiers == {TIER_DRAM: 1, expected_tier: 1}

    def test_pool_movement_sources_the_pool(self):
        engine = self._engine(pooled=True)
        decision = engine.decide(self._request(512), [NodeProfile("here")],
                                 self._distance)
        move = decision.movements[0]
        assert move.tier == TIER_POOL
        assert move.source == "rack0"
        assert engine.tracer.counters.get("placement.tier.pool") == 1
        assert engine.tracer.counters.get("placement.tier.dram") == 1

    def test_bulk_object_stays_on_network_despite_pool(self):
        engine = self._engine(pooled=True)
        decision = engine.decide(self._request(1 << 20),
                                 [NodeProfile("here")], self._distance)
        move = decision.movements[0]
        assert move.tier == TIER_NETWORK
        assert move.source == "far"
        assert engine.tracer.counters.get("placement.tier.network") == 1

    def test_no_oracle_means_network_only(self):
        engine = PlacementEngine()
        decision = engine.decide(self._request(128), [NodeProfile("here")],
                                 self._distance)
        assert decision.movements[0].tier == TIER_NETWORK
        assert engine.tracer.counters.get("placement.tier.pool") == 0

    def test_resident_items_count_as_dram(self):
        engine = self._engine(pooled=True)
        decision = engine.decide(
            self._request(512, locations=("here",)),
            [NodeProfile("here")], self._distance)
        assert decision.movements == []
        assert decision.tiers == {TIER_DRAM: 2}


class TestRuntimeWiring:
    def test_attach_pool_makes_placement_tier_aware(self):
        from repro import (FunctionRegistry, GlobalSpaceRuntime, Simulator,
                           build_star)

        sim = Simulator(seed=_seed(21))
        net = build_star(sim, 3, prefix="n")
        registry = FunctionRegistry()

        @registry.register("bench")
        def bench_fn(ctx, args):
            data = yield ctx.read(args["blob"], 0, 5)
            return data.decode()

        runtime = GlobalSpaceRuntime(net, registry)
        for name in ("n0", "n1", "n2"):
            runtime.add_node(name)
        blob = runtime.create_object("n2", size=2048)
        blob.write(0, b"hello")
        pool = SharedMemoryPool(sim, "rack0", ("n0", "n1", "n2"),
                                capacity_bytes=1 << 20)
        runtime.attach_pool(pool)
        pool.map_object(blob.oid, bytes(blob.data))
        _, code_ref = runtime.create_code("n0", "bench", text_size=256)
        result = sim.run_process(runtime.invoke(
            "n0", code_ref, data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
            candidates=["n0"]))
        assert result.value == "hello"
        decision = result.decision
        # The blob is non-resident on n0 but pool-mapped: the estimator
        # prices it as a pool load and the plan says so.
        assert decision.tiers.get(TIER_POOL) == 1
        moves = {m.ref.oid: m for m in decision.movements}
        assert moves[blob.oid].tier == TIER_POOL
        assert moves[blob.oid].source == "rack0"
        snap = net.metrics.snapshot()["counters"]
        assert snap.get("core.placement:placement.tier.pool") == 1

    def test_oracle_ignores_unmapped_and_detached(self):
        from repro import FunctionRegistry, GlobalSpaceRuntime, Simulator, \
            build_star

        sim = Simulator(seed=_seed(22))
        net = build_star(sim, 2, prefix="n")
        runtime = GlobalSpaceRuntime(net, FunctionRegistry())
        runtime.add_node("n0")
        runtime.add_node("n1")
        pool = SharedMemoryPool(sim, "rack0", ("n0",), capacity_bytes=4096)
        runtime.attach_pool(pool)
        oid = _oid()
        assert runtime._pool_oracle("n0", oid) is None  # not mapped
        pool.map_object(oid, bytes(64))
        assert runtime._pool_oracle("n0", oid) == "rack0"
        assert runtime._pool_oracle("n1", oid) is None  # not a member


class TestDeterminism:
    @staticmethod
    def _run_once(seed):
        """One pool-vs-transport comparison; returns every observable."""
        sim = Simulator(seed=seed)
        net = build_star(sim, 2)
        server = LightweightTransport(net.host("h0"))
        client = LightweightTransport(net.host("h1"))
        done = {}
        server.on_deliver(lambda src, payload, nbytes: server.send(
            src, {"rsp": 1}, payload_bytes=4096))
        client.on_deliver(
            lambda src, payload, nbytes: done.__setitem__("at", sim.now))
        client.send("h0", {"req": 1}, payload_bytes=64)
        sim.run()
        home_map = {}
        home = CoherenceAgent(net.host("h0"), home_map)
        reader = CoherenceAgent(net.host("h1"), home_map)
        pool = SharedMemoryPool(sim, "rack0", ("h0", "h1"), 1 << 16)
        home.attach_pool(pool)
        reader.attach_pool(pool)
        alloc = IDAllocator(seed=seed)
        oid = alloc.allocate()
        home.host_object(oid, bytes(4096))
        home.map_to_pool(oid)
        data = sim.run_process(reader.read(oid, 0, 4096))
        assert len(data) == 4096
        return (done["at"], sim.now, pool.tracer.counters.as_dict(),
                reader.tracer.counters.as_dict())

    @pytest.mark.parametrize("base", [31, 32, 33])
    def test_same_seed_same_bytes(self, base):
        seed = _seed(base)
        assert self._run_once(seed) == self._run_once(seed)
