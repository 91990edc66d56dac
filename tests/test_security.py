"""Unit and integration tests for the access-control layer."""

import pytest

from repro.core import (
    PUBLIC,
    AccessDenied,
    FunctionRegistry,
    GlobalRef,
    ObjectACL,
    PolicyRegistry,
)
from repro.core.placement import PlacementError
from repro.net import build_star
from repro.runtime import GlobalSpaceRuntime, MODE_LAZY, RuntimeError_
from repro.sim import Simulator


def oid_of(n: int):
    from repro.core import ObjectID

    return ObjectID(n)


class TestObjectACL:
    def test_owner_always_allowed(self):
        acl = ObjectACL("alice", readers=frozenset(), writers=frozenset())
        assert acl.can_read("alice")
        assert acl.can_write("alice")

    def test_public_readers(self):
        acl = ObjectACL("alice")
        assert acl.can_read("anyone")

    def test_explicit_readers(self):
        acl = ObjectACL("alice", readers=frozenset({"bob"}))
        assert acl.can_read("bob")
        assert not acl.can_read("carol")

    def test_writers_default_owner_only(self):
        acl = ObjectACL("alice")
        assert not acl.can_write("bob")

    def test_with_reader_grants(self):
        acl = ObjectACL("alice", readers=frozenset({"bob"}))
        wider = acl.with_reader("carol")
        assert wider.can_read("carol")
        assert not acl.can_read("carol")  # original unchanged

    def test_with_reader_on_public_is_noop(self):
        acl = ObjectACL("alice")
        assert acl.with_reader("x") is acl


class TestPolicyRegistry:
    def test_unprotected_objects_open(self):
        policies = PolicyRegistry()
        policies.check_read(oid_of(1), "anyone")  # no raise
        policies.check_write(oid_of(1), "anyone")

    def test_protect_and_check(self):
        policies = PolicyRegistry()
        policies.protect(oid_of(1), "alice", readers={"bob"})
        policies.check_read(oid_of(1), "bob")
        with pytest.raises(AccessDenied):
            policies.check_read(oid_of(1), "carol")
        assert policies.denials == 1

    def test_write_checks(self):
        policies = PolicyRegistry()
        policies.protect(oid_of(1), "alice", writers={"bob"})
        policies.check_write(oid_of(1), "bob")
        with pytest.raises(AccessDenied):
            policies.check_write(oid_of(1), "eve")

    def test_readable_nodes_filter(self):
        policies = PolicyRegistry()
        policies.protect(oid_of(1), "alice", readers={"bob"})
        nodes = {"alice", "bob", "carol"}
        assert policies.readable_nodes([oid_of(1)], nodes) == {"alice", "bob"}
        assert policies.readable_nodes([oid_of(2)], nodes) == nodes  # unprotected
        policies.protect(oid_of(3), "carol", readers={"alice"})
        assert policies.readable_nodes(
            [oid_of(1), oid_of(2), oid_of(3)], nodes) == {"alice"}

    def test_reprotect_replaces(self):
        policies = PolicyRegistry()
        policies.protect(oid_of(1), "alice", readers=set())
        policies.protect(oid_of(1), "alice", readers=PUBLIC)
        policies.check_read(oid_of(1), "anyone")


def make_cluster(seed=1):
    sim = Simulator(seed=seed)
    net = build_star(sim, 4, prefix="n")
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(4):
        runtime.add_node(f"n{i}")
    return sim, registry, runtime


class TestRuntimeEnforcement:
    def test_remote_read_denied(self):
        sim, registry, runtime = make_cluster()
        secret = runtime.create_object("n1", size=64)
        secret.write(0, b"private")
        runtime.protect(secret.oid, "n1", readers=set())

        def proc():
            try:
                yield sim.spawn(runtime.node("n0").remote_read(secret.oid, 0, 7))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(proc()) == "denied"

    def test_remote_read_allowed_for_reader(self):
        sim, registry, runtime = make_cluster()
        secret = runtime.create_object("n1", size=64)
        secret.write(0, b"private")
        runtime.protect(secret.oid, "n1", readers={"n0"})

        def proc():
            data = yield sim.spawn(runtime.node("n0").remote_read(secret.oid, 0, 7))
            return data

        assert sim.run_process(proc()) == b"private"

    def test_fetch_denied(self):
        sim, registry, runtime = make_cluster()
        secret = runtime.create_object("n1", size=64)
        runtime.protect(secret.oid, "n1", readers=set())

        def proc():
            try:
                yield sim.spawn(runtime.node("n0").fetch_object(secret.oid))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(proc()) == "denied"
        assert runtime.node("n1").tracer.counters["node.fetch_denied"] == 1

    def test_remote_write_denied(self):
        sim, registry, runtime = make_cluster()
        guarded = runtime.create_object("n1", size=64)
        runtime.protect(guarded.oid, "n1", readers=PUBLIC, writers=set())

        def proc():
            try:
                yield sim.spawn(runtime.node("n0").remote_write(
                    guarded.oid, 0, b"overwrite"))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(proc()) == "denied"
        assert guarded.read(0, 9) == b"\x00" * 9  # untouched

    def test_placement_respects_confidentiality(self):
        """§2: 'users prefer local models remain local' — a computation
        over n1-private data can only be placed on n1."""
        sim, registry, runtime = make_cluster()

        @registry.register("peek")
        def peek(ctx, args):
            data = yield ctx.read(args["secret"], 0, 4)
            return (data, ctx.node.name)

        secret = runtime.create_object("n1", size=64)
        secret.write(0, b"mine")
        runtime.protect(secret.oid, "n1", readers=set())
        _, code_ref = runtime.create_code("n0", "peek", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref,
                data_refs={"secret": GlobalRef(secret.oid, 0, "read")}))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n1"
        # remote results pass through the wire codec: tuples become lists
        assert result.value == [b"mine", "n1"]

    def test_no_feasible_node_raises(self):
        sim, registry, runtime = make_cluster()

        @registry.register("peek2")
        def peek2(ctx, args):
            return None

        secret = runtime.create_object("n1", size=64)
        runtime.protect(secret.oid, "n1", readers=set())
        _, code_ref = runtime.create_code("n0", "peek2", text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"secret": GlobalRef(secret.oid, 0, "read")},
                    candidates=["n0", "n2"]))  # n1 excluded by the caller
            except (PlacementError, RuntimeError_):
                return "infeasible"

        assert sim.run_process(proc()) == "infeasible"

    def test_opaque_ref_can_be_passed_but_not_read(self):
        """The §1 case: the invoker holds a reference it cannot read and
        hands it to a computation that runs where reading is legal."""
        sim, registry, runtime = make_cluster()

        @registry.register("summarize")
        def summarize(ctx, args):
            # The executor upgrades the opaque ref it received: on the
            # node that owns the data, reading is permitted.
            readable = args["blob"].at(0)
            data = yield ctx.read(
                GlobalRef(readable.oid, 0, "read"), 0, 6)
            return data.decode()

        blob = runtime.create_object("n2", size=64)
        blob.write(0, b"papers")
        runtime.protect(blob.oid, "n2", readers=set())
        _, code_ref = runtime.create_code("n0", "summarize", text_size=128)
        opaque = GlobalRef(blob.oid, 0, "opaque")

        # n0 cannot read through the ref itself...
        def try_read():
            try:
                yield sim.spawn(runtime.node("n0").remote_read(blob.oid, 0, 6))
            except RuntimeError_:
                return "denied"

        assert sim.run_process(try_read()) == "denied"

        # ...but can pass it to an invocation the system places on n2.
        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": opaque}, mode=MODE_LAZY))
            return result

        result = sim.run_process(proc())
        assert result.executed_at == "n2"
        assert result.value == "papers"

    def test_local_execution_checked_too(self):
        sim, registry, runtime = make_cluster()

        @registry.register("snoop")
        def snoop(ctx, args):
            data = yield ctx.read(args["blob"], 0, 4)
            return data

        blob = runtime.create_object("n0", size=64)
        runtime.protect(blob.oid, "n2", readers={"n2"})  # n0 holds a replica
        # it may not read (e.g. ciphertext custody)
        _, code_ref = runtime.create_code("n0", "snoop", text_size=128)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "read")},
                    candidates=["n0"]))
            except (RuntimeError_, PlacementError):
                return "denied"

        assert sim.run_process(proc()) == "denied"
