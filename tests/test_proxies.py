"""Lazy object proxies and FOT reachability prefetching (PROXIES.md).

Covers the resolution state machine (unresolved -> prefetch-inflight ->
cached -> owned -> invalidated), the budgeted reachability walker, the
coherence-backed resolver (pushed invalidations never serve stale
bytes), the runtime binding (``MODE_PROXIED``, ownership transfer on
first mutation), and the partial-failure path: a dereference whose
owner crashed fails over through the self-healing fetch instead of
hanging.

Assertions hold for any seed; CI re-runs the module under several
``REPRO_SEED_OFFSET`` values (the fault-seed matrix).
"""

import os

import pytest

from repro.core import (
    PROXY_CACHED,
    PROXY_INVALIDATED,
    PROXY_OWNED,
    PROXY_PREFETCH_INFLIGHT,
    PROXY_UNRESOLVED,
    FunctionRegistry,
    GlobalRef,
    IDAllocator,
    ObjectSpace,
    PrefetchBudget,
    ProxyCache,
    ProxyError,
)
from repro.memproto import CoherenceAgent, CoherentProxyResolver, PERM_SHARED
from repro.net import build_star
from repro.runtime import MODE_LAZY, MODE_PROXIED, GlobalSpaceRuntime, RuntimeError_
from repro.sim import Simulator, Timeout
from repro.workloads import build_linked_list, register_proxied_traversal

# Shift every seed below by REPRO_SEED_OFFSET so CI's fault-seed matrix
# re-runs the module over fresh seeds without edits.
SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n: int) -> int:
    return n + SEED_OFFSET


# ---------------------------------------------------------------------------
# unit level: a scripted resolver drives the state machine deterministically
# ---------------------------------------------------------------------------


class ScriptedBackend:
    """Resolver-protocol test double: fixed latency, scripted images and
    FOT edges, full observability of every batch it serves."""

    def __init__(self, sim, images, edges=None, delay_us=50.0):
        self.sim = sim
        self.images = dict(images)
        self.edges = dict(edges or {})
        self.delay_us = delay_us
        self.resolves = []  # every batch, in arrival order
        self.stores = []

    def resolve_many(self, oids):
        oids = list(oids)
        self.resolves.append(list(oids))
        yield Timeout(self.delay_us)
        return {oid: bytes(self.images[oid]) for oid in oids}

    def store(self, oid, offset, data):
        yield Timeout(self.delay_us)
        image = bytearray(self.images[oid])
        image[offset : offset + len(data)] = data
        self.images[oid] = bytes(image)
        self.stores.append((oid, offset, bytes(data)))
        return True

    def successors(self, oid, image):
        return list(self.edges.get(oid, []))

    def resolve_pointer(self, oid, pointer, image):
        raise NotImplementedError("scripted backend has no pointers")


def _scripted(n_objects=3, chain=True, seed=1, delay_us=50.0):
    sim = Simulator(seed=_seed(seed))
    alloc = IDAllocator(seed=_seed(seed))
    oids = [alloc.allocate() for _ in range(n_objects)]
    images = {oid: bytes([65 + i]) * 32 for i, oid in enumerate(oids)}
    edges = {}
    if chain:
        edges = {oids[i]: [oids[i + 1]] for i in range(n_objects - 1)}
    backend = ScriptedBackend(sim, images, edges, delay_us=delay_us)
    return sim, backend, ProxyCache(sim, backend), oids


class TestProxyStateMachine:
    def test_starts_unresolved_and_lazy_read_caches(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))
        assert proxy.state == PROXY_UNRESOLVED
        assert not proxy.resolved
        data = sim.run_process(proxy.read(0, 4))
        assert data == b"AAAA"
        assert proxy.state == PROXY_CACHED
        assert cache.tracer.counters.get("proxy.resolve.lazy") == 1

    def test_second_read_is_free(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))
        sim.run_process(proxy.read(0, 4))
        sim.run_process(proxy.read(8, 4))
        # One resolve, one classification: later reads hit the cache.
        assert len(backend.resolves) == 1
        assert cache.tracer.counters.get("proxy.resolve.lazy") == 1

    def test_one_proxy_per_object(self):
        sim, backend, cache, oids = _scripted()
        a = cache.proxy(GlobalRef(oids[0], 0, "read"))
        b = cache.proxy(GlobalRef(oids[0], 8, "read"))
        assert a is b

    def test_write_transfers_ownership(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "write"))
        sim.run_process(proxy.write(b"new!", 4))
        assert proxy.state == PROXY_OWNED
        assert backend.stores == [(oids[0], 4, b"new!")]
        # The cached image was patched in place: no refetch on read.
        data = sim.run_process(proxy.read(4, 4))
        assert data == b"new!"
        assert len(backend.resolves) == 1

    def test_write_requires_writable_ref(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))

        def attempt():
            try:
                yield from proxy.write(b"x", 0)
            except ProxyError as exc:
                return exc
            return None

        assert isinstance(sim.run_process(attempt()), ProxyError)

    def test_read_out_of_bounds_raises(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))

        def attempt():
            try:
                yield from proxy.read(30, 8)
            except ProxyError as exc:
                return exc
            return None

        assert isinstance(sim.run_process(attempt()), ProxyError)

    def test_size_requires_resolution(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))
        with pytest.raises(ProxyError):
            proxy.size

    def test_invalidate_drops_cached_bytes(self):
        sim, backend, cache, oids = _scripted()
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))
        sim.run_process(proxy.read(0, 4))
        assert cache.invalidate(oids[0])
        assert proxy.state == PROXY_INVALIDATED
        backend.images[oids[0]] = b"Z" * 32
        data = sim.run_process(proxy.read(0, 4))
        assert data == b"ZZZZ"
        assert len(backend.resolves) == 2

    def test_invalidate_unknown_object_is_noop(self):
        sim, backend, cache, oids = _scripted()
        assert not cache.invalidate(oids[2])


class TestPrefetchBudget:
    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            PrefetchBudget(depth=-1)
        with pytest.raises(ValueError):
            PrefetchBudget(fanout=-1)
        with pytest.raises(ValueError):
            PrefetchBudget(max_objects=-1)


class TestReachabilityWalk:
    def test_walk_covers_a_chain(self):
        sim, backend, cache, oids = _scripted(n_objects=4)
        done = cache.start_prefetch([GlobalRef(oids[0], 0, "read")])
        sim.run_process(_wait(done))
        counters = cache.tracer.counters
        assert counters.get("prefetch.issued") == 4
        assert counters.get("prefetch.depth_truncated") == 0
        for oid in oids:
            assert cache.lookup(oid).resolved
        # Level-by-level discovery: one batch per chain hop.
        assert backend.resolves == [[oid] for oid in oids]

    def test_prefetch_hit_vs_wasted(self):
        sim, backend, cache, oids = _scripted(n_objects=3)
        root = GlobalRef(oids[0], 0, "read")

        def consumer():
            done = cache.start_prefetch([root])
            yield done
            # Only the root is ever dereferenced; the walk pulled 3.
            data = yield from cache.proxy(root).read(0, 4)
            return data

        assert sim.run_process(consumer()) == b"AAAA"
        assert cache.settle() == 2
        counters = cache.tracer.counters
        assert counters.get("proxy.resolve.prefetch_hit") == 1
        assert counters.get("prefetch.wasted") == 2
        # settle() is idempotent: nothing is double-counted.
        assert cache.settle() == 0

    def test_deref_joins_inflight_batch_as_miss(self):
        sim, backend, cache, oids = _scripted(n_objects=1, chain=False)
        root = GlobalRef(oids[0], 0, "read")

        def consumer():
            cache.start_prefetch([root])
            proxy = cache.proxy(root)
            yield Timeout(1.0)  # the walk has issued, nothing has landed
            assert proxy.state == PROXY_PREFETCH_INFLIGHT
            data = yield from proxy.read(0, 4)
            return data

        assert sim.run_process(consumer()) == b"AAAA"
        counters = cache.tracer.counters
        # The dereference waited on the walk's batch — no second fetch.
        assert counters.get("proxy.resolve.prefetch_miss") == 1
        assert len(backend.resolves) == 1

    def test_fanout_caps_each_level(self):
        sim = Simulator(seed=_seed(2))
        alloc = IDAllocator(seed=_seed(2))
        root, *leaves = [alloc.allocate() for _ in range(7)]
        images = {oid: b"x" * 16 for oid in [root, *leaves]}
        backend = ScriptedBackend(sim, images, {root: leaves})
        cache = ProxyCache(sim, backend)
        done = cache.start_prefetch(
            [GlobalRef(root, 0, "read")],
            budget=PrefetchBudget(depth=4, fanout=2, max_objects=16))
        sim.run_process(_wait(done))
        # Root plus at most ``fanout`` of its six successors.
        assert cache.tracer.counters.get("prefetch.issued") == 3

    def test_depth_budget_truncates_and_counts(self):
        sim, backend, cache, oids = _scripted(n_objects=5)
        done = cache.start_prefetch(
            [GlobalRef(oids[0], 0, "read")],
            budget=PrefetchBudget(depth=1, fanout=4, max_objects=16))
        sim.run_process(_wait(done))
        counters = cache.tracer.counters
        assert counters.get("prefetch.issued") == 2  # depths 0 and 1
        assert counters.get("prefetch.depth_truncated") == 1

    def test_object_budget_truncates_and_counts(self):
        sim, backend, cache, oids = _scripted(n_objects=5)
        done = cache.start_prefetch(
            [GlobalRef(oids[0], 0, "read")],
            budget=PrefetchBudget(depth=16, fanout=4, max_objects=2))
        sim.run_process(_wait(done))
        counters = cache.tracer.counters
        assert counters.get("prefetch.issued") == 2
        assert counters.get("prefetch.depth_truncated") == 1

    def test_exhausted_graph_never_counts_truncation(self):
        sim, backend, cache, oids = _scripted(n_objects=2)
        done = cache.start_prefetch(
            [GlobalRef(oids[0], 0, "read")],
            budget=PrefetchBudget(depth=16, fanout=4, max_objects=2))
        sim.run_process(_wait(done))
        # Budget exactly consumed, but the frontier drained first.
        assert cache.tracer.counters.get("prefetch.depth_truncated") == 0

    def test_invalidation_racing_inflight_prefetch(self):
        """An invalidation landing while a prefetch batch is in flight
        moves the proxy's epoch: the landing image is discarded (counted
        ``prefetch.wasted``), and the next dereference refetches — stale
        bytes are never installed."""
        sim, backend, cache, oids = _scripted(n_objects=1, chain=False,
                                              delay_us=50.0)
        root = GlobalRef(oids[0], 0, "read")

        def racer():
            cache.start_prefetch([root])
            yield Timeout(10.0)  # mid-flight: batch issued at t=0, lands t=50
            backend.images[oids[0]] = b"N" * 32
            assert cache.invalidate(oids[0])
            data = yield from cache.proxy(root).read(0, 4)
            return data

        assert sim.run_process(racer()) == b"NNNN"
        counters = cache.tracer.counters
        assert counters.get("prefetch.wasted") == 1
        assert len(backend.resolves) == 2


def _wait(process):
    yield process


# ---------------------------------------------------------------------------
# coherence integration: resolver over MSI agents, pushed invalidations
# ---------------------------------------------------------------------------


def _coherent_cluster(seed, n=3):
    sim = Simulator(seed=_seed(seed))
    net = build_star(sim, n)
    home_map = {}
    agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
              for i in range(n)}
    return sim, agents


def _host_chain(agents, home, n_objects, seed):
    """Home ``n_objects`` FOT-chained wire images at ``home``; returns
    (objects, oids)."""
    space = ObjectSpace(IDAllocator(seed=_seed(seed)))
    objects = [space.create_object(size=64, label=f"chain-{i}")
               for i in range(n_objects)]
    for i, obj in enumerate(objects):
        obj.write(0, bytes([65 + i]) * 64)
        if i + 1 < n_objects:
            obj.fot.add(objects[i + 1].oid)
    for obj in objects:
        agents[home].host_object(obj.oid, obj.to_wire())
    return objects, [obj.oid for obj in objects]


class TestCoherentResolver:
    def test_resolve_returns_payload_and_successors(self):
        sim, agents = _coherent_cluster(10)
        objects, oids = _host_chain(agents, "h0", 2, 10)
        cache = ProxyCache(sim, CoherentProxyResolver(agents["h1"]))
        proxy = cache.proxy(GlobalRef(oids[0], 0, "read"))
        data = sim.run_process(proxy.read(0, 8))
        assert data == b"A" * 8
        assert proxy.size == 64  # payload bytes, not the wire image
        assert proxy.successors() == [oids[1]]
        assert agents["h1"].cached_perm(oids[0]) == PERM_SHARED

    def test_walk_batches_one_acquire_per_level_home(self):
        sim, agents = _coherent_cluster(11)
        objects, oids = _host_chain(agents, "h0", 3, 11)
        cache = ProxyCache(sim, CoherentProxyResolver(agents["h1"]))
        done = cache.start_prefetch([GlobalRef(oids[0], 0, "read")])
        sim.run_process(_wait(done))
        assert cache.tracer.counters.get("prefetch.issued") == 3
        for oid in oids:
            assert cache.lookup(oid).resolved

    def test_pushed_invalidation_never_serves_stale(self):
        """h2 takes ownership through its own proxy; the probe drops
        h1's agent cache AND h1's proxy bytes in the same instant, so
        h1's next dereference refetches the new data."""
        sim, agents = _coherent_cluster(12)
        objects, oids = _host_chain(agents, "h0", 1, 12)
        oid = oids[0]
        reader = ProxyCache(sim, CoherentProxyResolver(agents["h1"]))
        writer = ProxyCache(sim, CoherentProxyResolver(agents["h2"]))
        read_proxy = reader.proxy(GlobalRef(oid, 0, "read"))
        write_proxy = writer.proxy(GlobalRef(oid, 0, "write"))

        def scenario():
            before = yield from read_proxy.read(0, 4)
            assert before == b"AAAA"
            yield from write_proxy.write(b"NEW!", 0)
            # The Modified acquisition probed h1: proxy invalidated.
            assert read_proxy.state == PROXY_INVALIDATED
            after = yield from read_proxy.read(0, 4)
            return after

        assert sim.run_process(scenario()) == b"NEW!"
        assert write_proxy.state == PROXY_OWNED
        assert agents["h1"].tracer.counters.get("coherence.invalidated") == 1

    def test_invalidation_racing_coherent_prefetch_stays_fresh(self):
        """A write racing an in-flight prefetch batch: whatever the
        interleaving, the reader's dereference returns the new bytes —
        either the grant already carries them, or the raced fill is
        discarded and refetched."""
        sim, agents = _coherent_cluster(13)
        objects, oids = _host_chain(agents, "h0", 3, 13)
        reader = ProxyCache(sim, CoherentProxyResolver(agents["h1"]))
        writer = ProxyCache(sim, CoherentProxyResolver(agents["h2"]))

        def write_side():
            yield Timeout(3.0)
            proxy = writer.proxy(GlobalRef(oids[1], 0, "write"))
            yield from proxy.write(b"RACE", 0)

        def read_side():
            done = reader.start_prefetch([GlobalRef(oids[0], 0, "read")])
            yield done
            data = yield from reader.proxy(
                GlobalRef(oids[1], 0, "read")).read(0, 4)
            return data

        sim.spawn(write_side(), name="writer")
        data = sim.run_process(read_side(), name="reader")
        assert data == b"RACE"


# ---------------------------------------------------------------------------
# runtime integration: MODE_PROXIED binding, ownership, crash failover
# ---------------------------------------------------------------------------


def _runtime_cluster(seed, n=3):
    sim = Simulator(seed=_seed(seed))
    net = build_star(sim, n, prefix="n")
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(n):
        runtime.add_node(f"n{i}")
    return sim, net, registry, runtime


class TestPointerFreeWalk:
    """Listing a pointer-free object's edges builds it no FOT."""

    def test_node_walk_leaves_copies_without_a_table(self):
        sim, net, registry, runtime = _runtime_cluster(22)
        refs = [GlobalRef(runtime.create_object("n1", size=64).oid, 0, "read")
                for _ in range(3)]
        cache = runtime.node("n0").proxies
        sim.run_process(_wait(cache.start_prefetch(refs)))
        assert cache.tracer.counters.get("prefetch.issued") == 3
        for ref in refs:
            for name in ("n0", "n1"):
                assert runtime.node(name).space.get(ref.oid)._fot is None

    def test_coherent_walk_leaves_parsed_images_without_a_table(self):
        sim, agents = _coherent_cluster(23)
        objects, oids = _host_chain(agents, "h0", 1, 23)
        resolver = CoherentProxyResolver(agents["h1"])
        cache = ProxyCache(sim, resolver)
        sim.run_process(_wait(cache.start_prefetch(
            [GlobalRef(oids[0], 0, "read")])))
        assert cache.lookup(oids[0]).resolved
        assert cache.lookup(oids[0]).successors() == []
        assert resolver._parsed[oids[0]]._fot is None


class TestRuntimeBinding:
    def test_prefetch_requires_proxied_mode(self):
        sim, net, registry, runtime = _runtime_cluster(20)

        def fn(ctx, args):
            return 1
            yield  # pragma: no cover - make it a generator

        registry.register("fn", fn)
        _, code_ref = runtime.create_code("n0", "fn", text_size=64)

        def attempt():
            try:
                yield from runtime.invoke(
                    "n0", code_ref, mode=MODE_LAZY, prefetch=PrefetchBudget())
            except RuntimeError_ as exc:
                return exc
            return None

        error = sim.run_process(attempt())
        assert isinstance(error, RuntimeError_)
        assert "MODE_PROXIED" in str(error)

    def test_proxied_invoke_binds_proxies_and_prefetches(self):
        sim, net, registry, runtime = _runtime_cluster(21)
        register_proxied_traversal(registry)
        import random

        head, objects, values = build_linked_list(
            runtime.node("n1").space, 12, 4, rng=random.Random(_seed(21)))
        for obj in objects:
            runtime.adopt_object("n1", obj)
        _, code_ref = runtime.create_code(
            "n0", "traverse_list_proxied", text_size=128)

        def driver():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"head": head},
                values={"limit": 12}, mode=MODE_PROXIED,
                candidates=["n0"], prefetch=PrefetchBudget(), flops=1))
            return result

        result = sim.run_process(driver())
        assert result.value == {"sum": sum(values), "count": 12}
        counters = runtime.node("n0").proxies.tracer.counters
        assert counters.get("prefetch.issued") == len(objects)
        resolved = (counters.get("proxy.resolve.prefetch_hit")
                    + counters.get("proxy.resolve.prefetch_miss")
                    + counters.get("proxy.resolve.lazy"))
        assert resolved == len(objects)

    def test_proxied_write_claims_ownership(self):
        sim, net, registry, runtime = _runtime_cluster(22)
        obj = runtime.create_object("n1", size=64, label="shared")
        obj.write(0, b"original")
        # n1 keeps a local proxy so the ownership transfer has a victim.
        n1_proxy = runtime.node("n1").proxies.proxy(
            GlobalRef(obj.oid, 0, "read"))
        node0 = runtime.node("n0")
        proxy = node0.proxies.proxy(GlobalRef(obj.oid, 0, "write"))

        def scenario():
            yield from n1_proxy.read(0, 8)
            yield from proxy.write(b"stomped!", 0)

        sim.run_process(scenario())
        assert proxy.state == PROXY_OWNED
        assert runtime.holders(obj.oid) == {"n0"}
        assert node0.space.get(obj.oid).read(0, 8) == b"stomped!"
        # The old holder's proxy was push-invalidated, not left stale.
        assert n1_proxy.state == PROXY_INVALIDATED

    def test_deref_survives_owner_crash(self):
        """The §5 partial-failure case: the proxy's demand fetch rides
        the self-healing path — a crashed holder times out, is
        suspected, and the fetch fails over to the surviving replica.
        No hang: if the unbounded wait regressed, ``run_process`` would
        die with "did not finish"."""
        sim, net, registry, runtime = _runtime_cluster(23)
        obj = runtime.create_object("n1", size=64, label="fragile")
        obj.write(0, b"survives")

        def replicate():
            yield sim.spawn(runtime.node("n2").fetch_object(obj.oid))

        sim.run_process(replicate())
        assert runtime.holders(obj.oid) == {"n1", "n2"}
        net.host("n1").fail()
        node = runtime.node("n0")
        proxy = node.proxies.proxy(GlobalRef(obj.oid, 0, "read"))

        def deref():
            data = yield from proxy.read(0, 8)
            return data

        assert sim.run_process(deref()) == b"survives"
        assert proxy.state == PROXY_CACHED
        # Evidence the crash was actually hit and healed around.
        assert node.tracer.counters.get("node.fetch_timeout") >= 1
        assert runtime.health.is_suspected("n1")


# ---------------------------------------------------------------------------
# determinism: same seed, same story — across REPRO_SEED_OFFSET sweeps
# ---------------------------------------------------------------------------


def _proxied_traversal_story(seed):
    """One proxied+prefetched traversal; returns its full observable
    outcome (latency, proxy counters, result)."""
    import random

    sim, net, registry, runtime = _runtime_cluster(seed)
    register_proxied_traversal(registry)
    head, objects, values = build_linked_list(
        runtime.node("n1").space, 24, 4, rng=random.Random(_seed(seed)),
        shuffle_objects=True)
    for obj in objects:
        runtime.adopt_object("n1", obj)
    _, code_ref = runtime.create_code(
        "n0", "traverse_list_proxied", text_size=128)

    def driver():
        result = yield sim.spawn(runtime.invoke(
            "n0", code_ref, data_refs={"head": head},
            values={"limit": 24, "work_us": 5.0}, mode=MODE_PROXIED,
            candidates=["n0"],
            prefetch=PrefetchBudget(depth=16, fanout=4, max_objects=16),
            flops=1))
        return result

    result = sim.run_process(driver())
    node = runtime.node("n0")
    node.proxies.settle()
    return {
        "value": result.value,
        "latency_us": result.latency_us,
        "counters": node.proxies.tracer.counters.as_dict(),
        "sim_now": sim.now,
    }


class TestSeedDeterminism:
    def test_same_seed_same_counters(self):
        first = _proxied_traversal_story(30)
        second = _proxied_traversal_story(30)
        assert first == second

    def test_prefetch_covers_chain_for_any_seed(self):
        story = _proxied_traversal_story(31)
        assert story["value"]["count"] == 24
        counters = story["counters"]
        assert counters.get("prefetch.issued", 0) == 6  # 24 records / 4
        touched = (counters.get("proxy.resolve.prefetch_hit", 0)
                   + counters.get("proxy.resolve.prefetch_miss", 0)
                   + counters.get("proxy.resolve.lazy", 0))
        assert touched == 6
        assert counters.get("prefetch.wasted", 0) == 0
