"""Unit and integration tests for the RPC baseline stack."""

import pytest

from repro.core import IDAllocator
from repro.net import build_star
from repro.rpc import (
    RefRpcClient,
    RefRpcServer,
    RemoteRef,
    RpcClient,
    RpcError,
    RpcServer,
    RpcTimeout,
    SerializeError,
    decode,
    encode,
    encoded_size,
)
from repro.sim import Simulator


class TestSerializer:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        0,
        -1,
        12345678901234567890,
        -(1 << 100),
        3.14159,
        b"",
        b"\x00\xff" * 50,
        "",
        "unicode ☃ text",
        [],
        [1, "two", 3.0, None],
        {},
        {"a": 1, "b": [2, {"c": b"deep"}]},
    ])
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_bool_preserved_not_int(self):
        assert decode(encode(True)) is True
        assert decode(encode(1)) == 1

    def test_unsupported_type(self):
        with pytest.raises(SerializeError):
            encode(object())

    def test_non_string_dict_key(self):
        with pytest.raises(SerializeError):
            encode({1: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerializeError):
            decode(encode(1) + b"\x00")

    def test_truncation_rejected(self):
        raw = encode({"key": b"value" * 100})
        with pytest.raises(SerializeError):
            decode(raw[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializeError):
            decode(b"\xfe")

    def test_encoded_size_matches(self):
        value = {"x": [1, 2, 3]}
        assert encoded_size(value) == len(encode(value))

    def test_size_scales_with_content(self):
        small = encoded_size([1] * 10)
        large = encoded_size([1] * 1000)
        assert large > small * 50


def _rpc_pair(seed=1, workers=4):
    sim = Simulator(seed=seed)
    net = build_star(sim, 3)
    server = RpcServer(net.host("h0"), workers=workers)
    client = RpcClient(net.host("h1"))
    return sim, net, server, client


class TestRpcStubs:
    def test_basic_call(self):
        sim, net, server, client = _rpc_pair()
        server.register("add", lambda a, b: a + b, compute_us=5)

        def proc():
            result = yield from client.call("h0", "add", a=2, b=3)
            return result

        assert sim.run_process(proc()) == 5

    def test_unknown_method_raises_rpc_error(self):
        sim, net, server, client = _rpc_pair()

        def proc():
            try:
                yield from client.call("h0", "ghost")
            except RpcError as exc:
                return "raised"

        assert sim.run_process(proc()) == "raised"

    def test_application_fault_becomes_rpc_error(self):
        sim, net, server, client = _rpc_pair()

        def boom():
            raise ValueError("kaput")

        server.register("boom", boom)

        def proc():
            try:
                yield from client.call("h0", "boom")
            except RpcError as exc:
                return str(exc)

        assert "kaput" in sim.run_process(proc())

    def test_timeout(self):
        sim = Simulator(seed=2)
        net = build_star(sim, 2)
        client = RpcClient(net.host("h0"), timeout_us=100.0)

        def proc():
            try:
                yield from client.call("h1", "nothing_listens")
            except RpcTimeout:
                return "timed out"

        assert sim.run_process(proc()) == "timed out"

    def test_duplicate_method_rejected(self):
        sim, net, server, client = _rpc_pair()
        server.register("m", lambda: 1)
        with pytest.raises(RpcError):
            server.register("m", lambda: 2)

    def test_concurrent_calls_queue_on_workers(self):
        sim, net, server, client = _rpc_pair(workers=1)
        server.register("slow", lambda: "done", compute_us=1000.0)
        finish_times = []

        def one_call():
            result = yield from client.call("h0", "slow")
            finish_times.append(sim.now)
            return result

        def proc():
            from repro.sim import AllOf

            yield AllOf([sim.spawn(one_call()) for _ in range(3)])

        sim.run_process(proc())
        # With one worker the three calls serialize: spacing >= compute.
        gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
        assert all(gap >= 1000.0 for gap in gaps)

    def test_larger_args_cost_more_time(self):
        sim, net, server, client = _rpc_pair()
        server.register("sink", lambda blob: len(blob))

        def timed_call(blob):
            start = sim.now
            result = yield from client.call("h0", "sink", blob=blob)
            return sim.now - start

        def proc():
            small = yield from timed_call(b"x" * 100)
            large = yield from timed_call(b"x" * 1_000_000)
            return small, large

        small, large = sim.run_process(proc())
        assert large > small * 10


class TestRefRpc:
    def _bed(self, seed=5, object_bytes=200_000):
        sim = Simulator(seed=seed)
        net = build_star(sim, 3)
        oid = IDAllocator(seed=seed).allocate()
        store = {oid: b"m" * object_bytes}
        server = RefRpcServer(
            net.host("h0"),
            locator=lambda o: ("h1", len(store[o])),
            distance=lambda a, b: 0 if a == b else 2,
            fetch_object=lambda o: store[o],
        )
        client = RefRpcClient(net.host("h2"))
        return sim, server, client, oid, store

    def test_ref_argument_resolved_server_side(self):
        sim, server, client, oid, store = self._bed()
        server.register("length", lambda blob: len(blob))

        def proc():
            result = yield from client.call("h0", "length", blob=RemoteRef(oid))
            return result

        assert sim.run_process(proc()) == 200_000

    def test_immutable_refs_cached_across_calls(self):
        sim, server, client, oid, store = self._bed()
        server.register("length", lambda blob: len(blob))

        def proc():
            yield from client.call("h0", "length", blob=RemoteRef(oid))
            yield from client.call("h0", "length", blob=RemoteRef(oid))
            return (server.tracer.counters["refrpc.ref_fetched"],
                    server.tracer.counters["refrpc.ref_cache_hit"])

        assert sim.run_process(proc()) == (1, 1)

    def test_second_call_faster_thanks_to_cache(self):
        sim, server, client, oid, store = self._bed(object_bytes=2_000_000)
        server.register("length", lambda blob: len(blob))

        def proc():
            start = sim.now
            yield from client.call("h0", "length", blob=RemoteRef(oid))
            first = sim.now - start
            start = sim.now
            yield from client.call("h0", "length", blob=RemoteRef(oid))
            second = sim.now - start
            return first, second

        first, second = sim.run_process(proc())
        assert second < first / 2

    def test_values_and_refs_mix(self):
        sim, server, client, oid, store = self._bed()
        server.register("scaled", lambda blob, k: len(blob) * k)

        def proc():
            result = yield from client.call("h0", "scaled",
                                            blob=RemoteRef(oid), k=3)
            return result

        assert sim.run_process(proc()) == 600_000

    def test_ref_wire_descriptor_is_small(self):
        # The whole point: a reference costs 24 bytes regardless of the
        # referenced object's size.
        ref = RemoteRef(IDAllocator(seed=1).allocate())
        assert len(ref.wire()) == 32  # hex digits
        assert RemoteRef.from_wire(ref.wire()) == ref

    def test_remote_fault_propagates(self):
        sim, server, client, oid, store = self._bed()

        def bad(blob):
            raise RuntimeError("inference failed")

        server.register("bad", bad)

        def proc():
            try:
                yield from client.call("h0", "bad", blob=RemoteRef(oid))
            except RpcError as exc:
                return str(exc)

        assert "inference failed" in sim.run_process(proc())
