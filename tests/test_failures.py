"""Failure injection: partial failure, the §5 'foremost' challenge.

"Perhaps foremost among them is the tension between partial failure
(inevitable in any distributed system), fault tolerance, and mechanisms
that attempt to hide the movement of computation and data."

The assertions here hold for *any* seed, so CI re-runs this module
under several ``REPRO_SEED_OFFSET`` values (see the fault-seed-matrix
job): every seed below is shifted by that offset.
"""

import os

from repro.core import FunctionRegistry, GlobalRef, IDAllocator, ObjectSpace
from repro.discovery import E2EResolver, ObjectHome
from repro.loadgen import LoadGenerator, TenantSpec
from repro.net import build_paper_topology, build_star
from repro.obs.keys import K_HEALTH_CLEARED
from repro.runtime import (
    FetchTimeout,
    GlobalSpaceRuntime,
    InvokeTimeout,
    RetryPolicy,
    RuntimeError_,
)
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n):
    return n + SEED_OFFSET


class TestHostFailure:
    def test_failed_host_drops_traffic(self):
        sim = Simulator(seed=_seed(1))
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))
        net.host("h1").fail()

        def proc():
            from repro.net import Packet

            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == []
        assert net.host("h1").tracer.counters["host.dropped_while_failed"] == 1

    def test_failed_host_sends_nothing(self):
        sim = Simulator(seed=_seed(2))
        net = build_star(sim, 2)
        net.host("h0").fail()

        def proc():
            from repro.net import Packet

            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert net.host("h1").tracer.counters["host.rx"] == 0

    def test_recovery_restores_traffic(self):
        sim = Simulator(seed=_seed(3))
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))

        def proc():
            from repro.net import Packet

            net.host("h1").fail()
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)
            net.host("h1").recover()
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1


class TestDiscoveryUnderFailure:
    def test_e2e_access_to_dead_responder_fails_cleanly(self):
        sim = Simulator(seed=_seed(4))
        net = build_paper_topology(sim)
        allocator = IDAllocator(seed=_seed(5))
        home = ObjectHome(net.host("resp1"),
                          ObjectSpace(allocator, host_name="resp1"))
        resolver = E2EResolver(net.host("driver"), timeout_us=1_000.0,
                               max_retries=2)
        obj = home.space.create_object(size=256)
        net.host("resp1").fail()

        def proc():
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        assert not record.ok
        assert resolver.tracer.counters["e2e.timeout"] > 0

    def test_e2e_recovers_after_responder_returns(self):
        sim = Simulator(seed=_seed(6))
        net = build_paper_topology(sim)
        allocator = IDAllocator(seed=_seed(7))
        home = ObjectHome(net.host("resp1"),
                          ObjectSpace(allocator, host_name="resp1"))
        resolver = E2EResolver(net.host("driver"), timeout_us=1_000.0,
                               max_retries=2)
        obj = home.space.create_object(size=256)

        def proc():
            net.host("resp1").fail()
            first = yield sim.spawn(resolver.access(obj.oid))
            net.host("resp1").recover()
            second = yield sim.spawn(resolver.access(obj.oid))
            return first, second

        first, second = sim.run_process(proc())
        assert not first.ok
        assert second.ok


def make_cluster(seed=8):
    sim = Simulator(seed=_seed(seed))
    net = build_star(sim, 4, prefix="n")
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(4):
        node = runtime.add_node(f"n{i}")
        node.request_timeout_us = 2_000.0  # fast failover in tests
    return sim, net, registry, runtime


class TestRuntimeFailover:
    def test_fetch_fails_over_to_replica(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        obj.write(0, b"replicated")
        # A replica on n2.
        runtime.node("n2").space.insert(obj.clone())
        runtime.note_copy(obj.oid, "n2")
        net.host("n1").fail()

        def proc():
            fetched = yield sim.spawn(runtime.node("n0").fetch_object(obj.oid))
            return fetched.read(0, 10)

        assert sim.run_process(proc()) == b"replicated"
        # Either the live replica was tried first (equidistant in a
        # star), or the dead holder timed out once and we failed over.
        assert runtime.node("n0").tracer.counters["node.fetch_timeout"] <= 1

    def test_fetch_without_replica_raises_after_timeout(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        net.host("n1").fail()

        def proc():
            try:
                yield sim.spawn(runtime.node("n0").fetch_object(obj.oid))
            except RuntimeError_ as exc:
                return str(exc)

        message = sim.run_process(proc())
        assert "timed out" in message

    def test_remote_read_fails_over(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        obj.write(0, b"still-here")
        runtime.node("n3").space.insert(obj.clone())
        runtime.note_copy(obj.oid, "n3")
        net.host("n1").fail()

        def proc():
            data = yield sim.spawn(runtime.node("n0").remote_read(obj.oid, 0, 10))
            return data

        assert sim.run_process(proc()) == b"still-here"

    def test_invocation_survives_holder_crash_with_replica(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("resilient")
        def resilient(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return data

        obj = runtime.create_object("n1", size=256)
        obj.write(0, b"SAFE")
        runtime.node("n2").space.insert(obj.clone())
        runtime.note_copy(obj.oid, "n2")
        _, code_ref = runtime.create_code("n0", "resilient", text_size=128)
        net.host("n1").fail()

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(obj.oid, 0, "read")},
                candidates=["n0", "n2", "n3"]))
            return result

        result = sim.run_process(proc())
        assert result.value == b"SAFE"

    def test_stage_in_from_a_dead_only_holder_fails_over_from_the_invoker(self):
        # The blob's only holder is down.  Placement runs the first
        # attempt on the invoker n0 (it holds the code); its stage-in
        # times out, which must fail over to n2 exactly as a remote
        # executor's retryable NACK does, and n2 then times out too.  The
        # deadline is long enough never to race the executors' fetches.
        sim, net, registry, runtime = make_cluster()

        @registry.register("head")
        def head(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return data

        obj = runtime.create_object("n1", size=256)
        _, code_ref = runtime.create_code("n0", "head", text_size=128)
        net.host("n1").fail()

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(obj.oid, 0, "read")},
                    candidates=["n0", "n2"],
                    retry=RetryPolicy(deadline_us=5_000_000.0)))
            except Exception as exc:
                return exc

        exc = sim.run_process(proc())
        assert type(exc) is InvokeTimeout
        assert "after 2 attempt(s)" in str(exc) and "retryable" in str(exc)
        counters = runtime.tracer.counters
        assert counters["invoke.retries"] == 1
        assert counters["runtime.placed_at.n0"] == 1
        assert counters["runtime.placed_at.n2"] == 1
        assert not runtime.health.is_suspected("n0")
        assert runtime.health.is_suspected("n1")

    def test_a_timed_out_invocation_may_have_run_on_every_executor(self):
        # The retry contract (ARCHITECTURE.md, Layer 4): InvokeTimeout
        # means the body ran zero or more times, on any executor tried.
        # Each attempt computes past its 400 us deadline, so the invoker
        # gives up on n2, fails over to n3 and gives up there too, yet
        # both executors go on to run the body.
        sim, net, registry, runtime = make_cluster()
        ran_on = []

        @registry.register("slow_increment")
        def slow_increment(ctx, args):
            ran_on.append(ctx.node.name)
            raw = yield ctx.read(args["blob"], 0, 1)
            yield ctx.write(args["blob"], bytes([raw[0] + 1]))
            return raw[0]

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "slow_increment",
                                          text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                    flops=1e7, candidates=["n2", "n3"],
                    retry=RetryPolicy(deadline_us=400.0)))
            except Exception as exc:
                return exc

        exc = sim.run_process(proc())
        assert type(exc) is InvokeTimeout
        assert "after 2 attempt(s)" in str(exc)
        assert sorted(ran_on) == ["n2", "n3"]

    def test_late_reply_still_rehabilitates_a_suspected_holder(self):
        # The round trip to n1 (two 5 us hops each way plus the switch)
        # outlasts a 15 us deadline: the read times out and suspects
        # n1, then the gs.read_rsp lands with nobody waiting for it.
        # Any reply is proof of life, so it must clear the suspicion.
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        reader = runtime.node("n0")
        reader.request_timeout_us = 15.0
        seen = {}

        def proc():
            try:
                yield from reader.remote_read(obj.oid, 0, 8)
            except FetchTimeout:
                seen["suspected_at_deadline"] = runtime.health.is_suspected("n1")
                seen["deadline"] = sim.now

        sim.run_process(proc())
        assert seen == {"suspected_at_deadline": True, "deadline": 15.0}
        assert sim.now > 15.0  # the run went on until the late reply landed
        assert reader.host.tracer.counters["host.rx"] == 1
        assert not runtime.health.is_suspected("n1")
        assert runtime.health.penalty_jobs("n1") == 0
        assert runtime.health.tracer.counters[K_HEALTH_CLEARED] == 1
        assert reader.host.outstanding_requests == 0

    def test_write_to_crashed_holder_raises_at_the_deadline(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=512)
        # The write goes to the home, n1.  A live replica elsewhere must
        # not be written instead: a write redirected to a stale copy is
        # divergence, not recovery.
        runtime.node("n2").space.insert(obj.clone())
        runtime.note_copy(obj.oid, "n2")
        net.host("n1").fail()
        writer = runtime.node("n0")

        def proc():
            try:
                yield from writer.remote_write(obj.oid, 0, b"lost")
            except FetchTimeout as exc:
                return str(exc), sim.now

        message, raised_at = sim.run_process(proc())
        assert "timed out" in message
        assert raised_at == writer.request_timeout_us == 2_000.0
        assert writer.tracer.counters["node.write_timeout"] == 1
        assert writer.tracer.counters["node.remote_write"] == 0
        assert runtime.health.is_suspected("n1")
        assert runtime.node("n2").space.get(obj.oid).read(0, 4) != b"lost"
        assert writer.host.outstanding_requests == 0

    def test_store_tenant_against_a_dead_home_fails_ops_and_frees_slots(self):
        # Without a write deadline every store parked forever, one
        # inflight slot each, until max_outstanding shed all that followed.
        sim = Simulator(seed=_seed(9))
        net = build_star(sim, 2)
        runtime = GlobalSpaceRuntime(net)
        runtime.add_node("h0").request_timeout_us = 500.0
        runtime.add_node("h1")
        net.host("h1").fail()
        tenant = TenantSpec(name="w", client="h0", rate_per_sec=20_000.0,
                            popularity="uniform", keyspace=64,
                            mix=(("store", 1.0),), max_outstanding=8)
        generator = LoadGenerator(runtime, [tenant], duration_us=20_000.0)
        report = generator.run().tenants["w"]
        assert generator._states[0].inflight == 0
        assert report.failed > 8  # slots were reused after each deadline
        assert report.completed == 0
        assert report.offered == report.dropped + report.failed
        assert net.host("h0").outstanding_requests == 0
