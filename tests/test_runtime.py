"""Unit and integration tests for the global-space invocation runtime.

The assertions hold for any seed, so CI re-runs this module under
several ``REPRO_SEED_OFFSET`` values (the fault-seed-matrix job):
``make_cluster`` shifts its seed by that offset.
"""

import os
import subprocess
import sys

import pytest

from repro.core import FunctionRegistry, GlobalRef, IDAllocator, PlacementEngine
from repro.net import Network, build_line, build_star
from repro.obs.keys import SPAN_FETCH
from repro.runtime import (
    GlobalSpaceRuntime,
    MODE_EAGER,
    MODE_LAZY,
    MODE_PROXIED,
    RuntimeError_,
)
from repro.sim import Simulator

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def make_cluster(seed=1, n=4, speeds=None):
    sim = Simulator(seed=seed + SEED_OFFSET)
    net = build_star(sim, n, prefix="n")
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    speeds = speeds or {}
    for i in range(n):
        name = f"n{i}"
        runtime.add_node(name, speed=speeds.get(name, 1.0))
    return sim, net, registry, runtime


class TestClusterSetup:
    def test_duplicate_node_rejected(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.add_node("n0")

    def test_unknown_node_rejected(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.node("ghost")

    def test_create_object_registers_location(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=1024)
        assert runtime.holders(obj.oid) == {"n1"}

    def test_create_code_requires_registered_entry(self):
        sim, net, registry, runtime = make_cluster()
        with pytest.raises(RuntimeError_):
            runtime.create_code("n0", "missing", text_size=100)

    def test_unknown_object_queries_raise(self):
        sim, net, registry, runtime = make_cluster()
        ghost = IDAllocator(seed=9).allocate()
        with pytest.raises(RuntimeError_):
            runtime.holders(ghost)
        with pytest.raises(RuntimeError_):
            runtime.home(ghost)

    def test_adopt_object(self):
        sim, net, registry, runtime = make_cluster()
        space = runtime.node("n0").space
        obj = space.create_object(size=128)
        runtime.adopt_object("n0", obj)
        assert runtime.holders(obj.oid) == {"n0"}

    def test_nearest_holder_prefers_close_replica(self):
        sim = Simulator(seed=2)
        from repro.net import build_line

        net = build_line(sim, 3)
        runtime = GlobalSpaceRuntime(net, FunctionRegistry())
        for name in ("h0_0", "h1_0", "h2_0"):
            runtime.add_node(name)
        obj = runtime.create_object("h0_0", size=64)
        runtime.note_copy(obj.oid, "h1_0")
        # copy the bytes so the replica is real
        runtime.node("h1_0").space.insert(obj.clone())
        assert runtime.holders_by_distance(obj.oid, "h2_0")[0] == "h1_0"

    def test_equidistant_holders_do_not_depend_on_the_hash_seed(self):
        # With replicas on h1..h5 of a star every holder is two hops from
        # h0; a bare distance key picked whichever the set yielded first.
        # Each copy starts with its holder's digit, so the byte
        # peek_object returns names the copy it read: always the home's.
        script = (
            "from repro.core import FunctionRegistry\n"
            "from repro.net import build_star\n"
            "from repro.runtime import GlobalSpaceRuntime\n"
            "from repro.sim import Simulator\n"
            "net = build_star(Simulator(seed=1), 6)\n"
            "runtime = GlobalSpaceRuntime(net, FunctionRegistry())\n"
            "for i in range(6): runtime.add_node(f'h{i}')\n"
            "obj = runtime.create_object('h3', size=64)\n"
            "obj.write(0, b'3')\n"
            "for name in ('h5', 'h1', 'h4', 'h2'):\n"
            "    copy = obj.clone()\n"
            "    copy.write(0, name[1].encode())\n"
            "    runtime.node(name).space.insert(copy)\n"
            "    runtime.note_copy(obj.oid, name)\n"
            "print(runtime.peek_object(obj.oid).read(0, 1).decode(),\n"
            "      *runtime.holders_by_distance(obj.oid, 'h0'))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        answers = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            answers.add(done.stdout.strip())
        assert answers == {"3 h1 h2 h3 h4 h5"}

    def test_the_executor_fetches_from_the_replica_placement_priced(self):
        # "uplink" is two hops from the executor, over a 200 us access
        # link; "rack" is four 5 us hops away.  Placement prices the
        # lower-latency replica, and the stage-in must fetch from it.
        sim = Simulator(seed=2 + SEED_OFFSET)
        net = Network(sim)
        for name in ("s0", "s1", "s2"):
            net.add_switch(name)
        net.connect("s0", "s1")
        net.connect("s1", "s2")
        for name, switch, latency_us in (("exec", "s0", 5.0),
                                         ("uplink", "s0", 200.0),
                                         ("rack", "s2", 5.0)):
            net.add_host(name)
            net.connect(name, switch, latency_us=latency_us)
        registry = FunctionRegistry()
        registry.register("noop")(lambda ctx, args: None)
        runtime = GlobalSpaceRuntime(net, registry)
        for name in ("exec", "uplink", "rack"):
            runtime.add_node(name)
        blob = runtime.create_object("uplink", size=4096)
        runtime.node("rack").space.insert(blob.clone())
        runtime.note_copy(blob.oid, "rack")
        _, code_ref = runtime.create_code("exec", "noop", text_size=256)
        assert runtime.holders_by_distance(blob.oid, "exec") == [
            "rack", "uplink"]
        result = sim.run_process(runtime.invoke(
            "exec", code_ref, data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
            candidates=["exec"]))
        (move,) = result.decision.movements
        assert move.source == "rack"
        (fetch,) = [span for span in runtime.spans.spans()
                    if span.name == SPAN_FETCH]
        assert fetch.tags["source"] == move.source

    def test_placement_walks_each_root_once(self):
        # 500 decisions over a 6-host star used to run ~28 BFS walks
        # each; the path table needs one per node, ever.
        sim = Simulator(seed=3)
        net = build_star(sim, 6)
        registry = FunctionRegistry()
        runtime = GlobalSpaceRuntime(net, registry)
        for i in range(6):
            runtime.add_node(f"h{i}")
        registry.register("noop")(lambda ctx, args: "ok")
        _, code_ref = runtime.create_code("h0", "noop", text_size=256)
        blobs = [runtime.create_object(f"h{i}", size=4096) for i in range(6)]
        walks = []
        bfs = net._bfs
        net._bfs = lambda root: walks.append(root) or bfs(root)

        def proc():
            for i in range(500):
                yield sim.spawn(runtime.invoke(
                    f"h{i % 6}", code_ref,
                    data_refs={"blob": GlobalRef(blobs[i % 5].oid, 0, "read")},
                    flops=1e4))

        sim.run_process(proc())
        assert runtime.placement.tracer.counters.as_dict()[
            "placement.decisions"] == 500
        assert 0 < len(walks) <= len(net.nodes)
        assert len(set(walks)) == len(walks)


class TestInvocation:
    def test_result_value_and_metadata(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("answer")
        def answer(ctx, args):
            return args["x"] * 2

        _, code_ref = runtime.create_code("n0", "answer", text_size=512)

        def proc():
            result = yield sim.spawn(runtime.invoke("n0", code_ref,
                                                    values={"x": 21}))
            return result

        result = sim.run_process(proc())
        assert result.value == 42
        assert result.executed_at in {"n0", "n1", "n2", "n3"}
        assert result.latency_us >= 0
        assert result.decision.considered

    def test_moves_computation_to_data(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("measure")
        def measure(ctx, args):
            return ctx.node.name

        big = runtime.create_object("n2", size=2_000_000)
        _, code_ref = runtime.create_code("n0", "measure", text_size=512)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(big.oid, 0, "read")},
                flops=1e5))
            return result

        result = sim.run_process(proc())
        assert result.value == "n2"
        assert result.executed_at == "n2"

    def test_a_topology_change_reaches_a_memoized_placement(self):
        """Placement memoizes every term but the queue; a new link makes
        the next decision of the same shape price the new distances."""
        sim, net, registry, runtime = make_cluster(n=3)

        @registry.register("noop")
        def noop(ctx, args):
            return None

        # The code is everywhere already, so wherever a decision runs it,
        # the next request has the same shape.
        code, code_ref = runtime.create_code("n0", "noop", text_size=512)
        for name in ("n1", "n2"):
            runtime.node(name).space.insert(code.clone())
            runtime.note_copy(code.oid, name)

        def decide():
            blob = runtime.create_object("n1", size=4096)
            result = sim.run_process(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")}))
            return result.decision.considered

        before = decide()
        assert decide() == before
        link = net.connect("n0", "n1", latency_us=0.1)  # n0 - n1 now one hop
        after = decide()
        assert after != before
        assert after == decide()
        # A latency change alone reaches it too, and prices as a fresh
        # engine on a network built with that latency does.
        link.latency_us = 50.0
        seen = []
        memoized = runtime.placement.decide

        def recording(request, candidates, distance):
            seen.append((request, candidates))
            return memoized(request, candidates, distance)

        runtime.placement.decide = recording
        slower = decide()
        assert slower != after
        assert slower == decide()
        fresh_net = build_star(Simulator(), 3, prefix="n")
        fresh_net.connect("n0", "n1", latency_us=50.0)
        for request, candidates in seen:
            assert PlacementEngine().decide(
                request, candidates, fresh_net.path).considered == slower

    def test_code_object_staged_at_executor(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("noop")
        def noop(ctx, args):
            return "ok"

        big = runtime.create_object("n2", size=2_000_000)
        code, code_ref = runtime.create_code("n0", "noop", text_size=512)

        def proc():
            yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(big.oid, 0, "read")},
                flops=1e5))
            return None

        sim.run_process(proc())
        assert code.oid in runtime.node("n2").space
        assert "n2" in runtime.holders(code.oid)

    def test_eager_mode_stages_data(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_local")
        def read_local(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return (data, ctx.remote_reads, ctx.local_reads)

        blob = runtime.create_object("n1", size=4096)
        blob.write(0, b"ABCD")
        _, code_ref = runtime.create_code("n2", "read_local", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n2", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                mode=MODE_EAGER, candidates=["n2"]))
            return result

        result = sim.run_process(proc())
        data, remote_reads, local_reads = result.value
        assert data == b"ABCD"
        assert remote_reads == 0
        assert local_reads == 1

    def test_lazy_mode_demand_reads(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_lazy")
        def read_lazy(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return (data, ctx.remote_reads)

        blob = runtime.create_object("n1", size=4096)
        blob.write(0, b"WXYZ")
        _, code_ref = runtime.create_code("n2", "read_lazy", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n2", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                mode=MODE_LAZY, candidates=["n2"]))
            return result

        result = sim.run_process(proc())
        data, remote_reads = result.value
        assert data == b"WXYZ"
        assert remote_reads == 1
        assert blob.oid not in runtime.node("n2").space  # never staged

    def test_writes_are_counted_as_writes_not_reads(self):
        # A write is local at the object's home and remote anywhere else,
        # even where a staged copy is resident.
        sim, net, registry, runtime = make_cluster()

        @registry.register("write_local")
        def write_local(ctx, args):
            yield ctx.write(args["blob"], b"EFGH")
            return (ctx.local_reads, ctx.remote_reads,
                    ctx.local_writes, ctx.remote_writes)

        _, code_ref = runtime.create_code("n2", "write_local", text_size=256)

        def write_from_n2(blob):
            def proc():
                result = yield sim.spawn(runtime.invoke(
                    "n2", code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                    mode=MODE_EAGER, candidates=["n2"]))
                return result
            return sim.run_process(proc()).value

        at_home = runtime.create_object("n2", size=4096)
        assert write_from_n2(at_home) == [0, 0, 1, 0]
        assert at_home.read(0, 4) == b"EFGH"

        off_home = runtime.create_object("n1", size=4096)
        assert write_from_n2(off_home) == [0, 0, 0, 1]
        assert off_home.read(0, 4) == b"EFGH"
        assert runtime.node("n2").space.get(off_home.oid).read(0, 4) == b"EFGH"

    def test_pinned_data_forces_local_execution(self):
        sim, net, registry, runtime = make_cluster(speeds={"n0": 0.1})

        @registry.register("where")
        def where(ctx, args):
            return ctx.node.name

        private = runtime.create_object("n0", size=1_000_000, label="private")
        runtime.protect(private.oid, owner="n0", readers=set())  # local-only
        _, code_ref = runtime.create_code("n0", "where", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"secret": GlobalRef(private.oid, 0, "read")},
                flops=1e6))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n0"  # despite being the slowest node

    def test_load_balancing_to_idle_node(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("spin")
        def spin(ctx, args):
            return ctx.node.name

        _, code_ref = runtime.create_code("n0", "spin", text_size=256)
        # Saturate n1 artificially.
        runtime.node("n1").active_jobs = 50

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, flops=1e6, candidates=["n1", "n2"]))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n2"

    def test_remote_exec_failure_propagates(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("explode")
        def explode(ctx, args):
            raise ValueError("no")

        _, code_ref = runtime.create_code("n0", "explode", text_size=256)

        def proc():
            try:
                yield sim.spawn(runtime.invoke("n0", code_ref,
                                               candidates=["n1"]))
            except RuntimeError_ as exc:
                return str(exc)

        assert "no" in sim.run_process(proc())

    @pytest.mark.parametrize("executor", ["n0", "n1"],
                             ids=["at-the-invoker", "elsewhere"])
    def test_a_raising_body_looks_the_same_on_either_leg(self, executor):
        sim, net, registry, runtime = make_cluster()

        @registry.register("explode")
        def explode(ctx, args):
            raise ValueError("no")

        _, code_ref = runtime.create_code("n0", "explode", text_size=256)

        def proc():
            try:
                yield sim.spawn(runtime.invoke("n0", code_ref,
                                               candidates=[executor]))
            except Exception as exc:
                return exc

        exc = sim.run_process(proc())
        assert type(exc) is RuntimeError_
        assert str(exc) == f"execution on {executor} failed: no"

    @pytest.mark.parametrize("executor", ["n0", "n1"],
                             ids=["at-the-invoker", "elsewhere"])
    def test_a_tuple_result_is_the_same_value_on_either_leg(self, executor):
        sim, net, registry, runtime = make_cluster()

        @registry.register("pair")
        def pair(ctx, args):
            return (args["x"], ctx.node.name)

        _, code_ref = runtime.create_code("n0", "pair", text_size=256)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, values={"x": 7}, candidates=[executor]))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == executor
        assert result.value == [7, executor]

    def test_generator_code_functions_supported(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("genfn")
        def genfn(ctx, args):
            first = yield ctx.read(args["blob"], 0, 2)
            second = yield ctx.read(args["blob"], 2, 2)
            return first + second

        blob = runtime.create_object("n1", size=64)
        blob.write(0, b"abcd")
        _, code_ref = runtime.create_code("n0", "genfn", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": GlobalRef(blob.oid, 0, "read")}))
            return result

        assert sim.run_process(proc()).value == b"abcd"

    def test_invoker_must_be_a_node(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("f2")
        def f2(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "f2", text_size=128)
        with pytest.raises(RuntimeError_):
            # invoke() validates eagerly, before any yield
            runtime.invoke("ghost", code_ref).send(None)

    def test_invocation_counter(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("f3")
        def f3(ctx, args):
            return 1

        _, code_ref = runtime.create_code("n0", "f3", text_size=128)

        def proc():
            for _ in range(3):
                yield sim.spawn(runtime.invoke("n0", code_ref))
            return runtime.tracer.counters["runtime.invocations"]

        assert sim.run_process(proc()) == 3


class TestContextOperations:
    def test_context_write(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("writer")
        def writer(ctx, args):
            yield ctx.write(args["blob"], b"WRITTEN")
            return "done"

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "writer", text_size=128)

        def proc():
            yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                mode=MODE_LAZY, candidates=["n0"]))
            return None

        sim.run_process(proc())
        assert blob.read(0, 7) == b"WRITTEN"

    def test_readonly_ref_rejects_write(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("sneaky")
        def sneaky(ctx, args):
            yield ctx.write(args["blob"], b"X")
            return "wrote"

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "sneaky", text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                    candidates=["n1"]))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(proc()) == "denied"

    def test_follow_cross_object_pointer(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("chase")
        def chase(ctx, args):
            target_ref = yield ctx.follow(args["start"])
            data = yield ctx.read(target_ref, 0, 5)
            return data

        a = runtime.create_object("n1", size=64)
        b = runtime.create_object("n1", size=64)
        b.write(0, b"FOUND")
        at = a.alloc(8)
        a.point_to(at, b, 0)
        _, code_ref = runtime.create_code("n0", "chase", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"start": GlobalRef(a.oid, at, "read")}))
            return result

        assert sim.run_process(proc()).value == b"FOUND"


class TestWritesGoHome:
    def test_an_eager_write_off_the_home_reaches_the_home(self):
        # n0 invokes, placement runs it on n2, and the body increments a
        # byte of an object homed on n1 through n2's staged copy.
        sim, net, registry, runtime = make_cluster()

        @registry.register("increment")
        def increment(ctx, args):
            raw = yield ctx.read(args["blob"], 0, 1)
            yield ctx.write(args["blob"], bytes([raw[0] + 1]))
            return ctx.node.name

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "increment", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                mode=MODE_EAGER, candidates=["n2"]))
            assert result.value == "n2"
            data = yield from runtime.node("n0").load(blob.oid, 0, 1)
            return data

        assert sim.run_process(proc()) == b"\x01"
        assert runtime.home(blob.oid) == "n1"
        assert blob.read(0, 1) == b"\x01"
        assert runtime.node("n2").tracer.counters["node.remote_write"] == 1
        assert runtime.node("n1").tracer.counters["node.write_served"] == 1

    def test_a_proxied_write_moves_the_home(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("proxied_write")
        def proxied_write(ctx, args):
            yield from args["blob"].write(b"P")
            return ctx.node.name

        blob = runtime.create_object("n1", size=64)
        _, code_ref = runtime.create_code("n0", "proxied_write", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"blob": GlobalRef(blob.oid, 0, "write")},
                mode=MODE_PROXIED, candidates=["n2"]))
            assert result.value == "n2"
            assert runtime.home(blob.oid) == "n2"
            yield from runtime.node("n0").store(blob.oid, 1, b"Q")

        sim.run_process(proc())
        assert runtime.holders(blob.oid) == {"n2"}
        assert runtime.node("n2").space.get(blob.oid).read(0, 2) == b"PQ"
        assert runtime.node("n2").tracer.counters["node.write_served"] == 1


class TestReplicationApi:
    def test_replicate_copies_over_the_network(self):
        sim, net, registry, runtime = make_cluster()
        obj = runtime.create_object("n1", size=2048)
        obj.write(0, b"replica-me")

        def proc():
            copy = yield sim.spawn(runtime.replicate(obj.oid, "n3"))
            return copy.read(0, 10)

        assert sim.run_process(proc()) == b"replica-me"
        assert runtime.holders(obj.oid) == {"n1", "n3"}
        assert obj.oid in runtime.node("n3").space

    def test_replicate_pays_wire_time(self):
        sim, net, registry, runtime = make_cluster()
        small = runtime.create_object("n1", size=1024)
        big = runtime.create_object("n1", size=4_000_000)

        def timed(oid):
            start = sim.now
            yield sim.spawn(runtime.replicate(oid, "n2"))
            return sim.now - start

        def proc():
            quick = yield from timed(small.oid)
            slow = yield from timed(big.oid)
            return quick, slow

        quick, slow = sim.run_process(proc())
        assert slow > quick * 10

    def test_references_survive_migration(self):
        sim, net, registry, runtime = make_cluster()

        @registry.register("read_after_move")
        def read_after_move(ctx, args):
            data = yield ctx.read(args["blob"], 0, 5)
            return data

        obj = runtime.create_object("n1", size=256)
        obj.write(0, b"STAYS")
        _, code_ref = runtime.create_code("n0", "read_after_move",
                                          text_size=128)
        ref = GlobalRef(obj.oid, 0, "read")

        def proc():
            # Move the object: copy it to n3, then make n3 its sole holder.
            yield sim.spawn(runtime.replicate(obj.oid, "n3"))
            runtime.claim_ownership(obj.oid, "n3")
            assert runtime.holders(obj.oid) == {"n3"}
            assert runtime.home(obj.oid) == "n3"
            assert obj.oid not in runtime.node("n1").space
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": ref}))
            return result

        result = sim.run_process(proc())
        assert result.value == b"STAYS"
