"""Unit tests for code objects and the cost model."""

import pytest

from repro.core import (
    CodeError,
    CostModel,
    DEFAULT_HIERARCHY,
    FunctionRegistry,
    IDAllocator,
    LatencyHierarchy,
    ObjectSpace,
    code_ref,
    read_code_entry,
    write_code_object,
)
from repro.net import Path

from .paths import uniform


@pytest.fixture
def space():
    return ObjectSpace(IDAllocator(seed=21), host_name="test")


class TestFunctionRegistry:
    def test_register_and_lookup(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        assert registry.lookup("f")() == 1

    def test_decorator_form(self):
        registry = FunctionRegistry()

        @registry.register("g")
        def g():
            return "hi"

        assert registry.lookup("g") is g

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        with pytest.raises(CodeError):
            registry.register("f", lambda: 2)

    def test_unknown_lookup(self):
        with pytest.raises(CodeError):
            FunctionRegistry().lookup("ghost")

    def test_contains_and_names(self):
        registry = FunctionRegistry()
        registry.register("b", lambda: 1)
        registry.register("a", lambda: 2)
        assert "a" in registry and "b" in registry
        assert "c" not in registry


class TestCodeObjects:
    def test_roundtrip(self, space):
        obj = write_code_object(space, "my_entry", text_size=2048)
        assert obj.kind == "code"
        assert read_code_entry(obj) == ("my_entry", 2048)

    def test_object_size_covers_text(self, space):
        obj = write_code_object(space, "f", text_size=10_000)
        assert obj.size >= 10_000

    def test_empty_entry_rejected(self, space):
        with pytest.raises(CodeError):
            write_code_object(space, "", text_size=100)

    def test_nonpositive_text_size_rejected(self, space):
        with pytest.raises(CodeError):
            write_code_object(space, "f", text_size=0)

    def test_data_object_not_code(self, space):
        data = space.create_object(size=64)
        with pytest.raises(CodeError):
            read_code_entry(data)
        with pytest.raises(CodeError):
            code_ref(data)

    def test_code_ref_is_readonly(self, space):
        obj = write_code_object(space, "f", text_size=128)
        ref = code_ref(obj)
        assert ref.oid == obj.oid
        assert ref.readable and not ref.writable

    def test_code_survives_wire_copy(self, space):
        from repro.core import MemObject

        obj = write_code_object(space, "mobile_fn", text_size=512)
        rebuilt = MemObject.from_wire(obj.to_wire(), obj.oid)
        assert read_code_entry(rebuilt) == ("mobile_fn", 512)


class TestCostModel:
    def test_hierarchy_ratios_match_paper(self):
        # §1: remote memory ~100x local DRAM, ~100x faster than SSD.
        assert DEFAULT_HIERARCHY.remote_vs_dram == pytest.approx(100.0)
        assert DEFAULT_HIERARCHY.ssd_vs_remote == pytest.approx(100.0)

    def test_hierarchy_ordering_enforced(self):
        with pytest.raises(ValueError):
            LatencyHierarchy(local_dram_us=10, remote_memory_us=1, local_ssd_us=100)

    def test_wire_time_scales_with_bytes_and_hops(self):
        model = CostModel()
        small = model.wire_time_us(1000, uniform(1))
        large = model.wire_time_us(1_000_000, uniform(1))
        assert large > small
        assert model.wire_time_us(1000, uniform(3)) > small
        # The path's latency, then its bytes once per link: two 10 Gbps
        # links (1,250 bytes a microsecond each) serialise 2,500 bytes in
        # 2 us each, store-and-forward.
        assert model.wire_time_us(2500, Path(2, 10.0, 16e-4)) == 14.0

    def test_wire_time_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().wire_time_us(-1, uniform(1))

    def test_rpc_transfer_includes_marshalling(self):
        model = CostModel()
        rpc = model.rpc_transfer(1_000_000, uniform(1))
        obj = model.object_transfer(1_000_000, uniform(1))
        assert rpc.serialize_us > obj.serialize_us
        assert rpc.deserialize_us > obj.deserialize_us
        assert rpc.transfer_us == obj.transfer_us  # wire cost is identical
        assert rpc.total_us > obj.total_us

    def test_deserialize_dominates_rpc_path(self):
        # Calibration check for the §2 claim: deserialize is the
        # heavyweight side of the marshalling walk.
        model = CostModel()
        estimate = model.rpc_transfer(10_000_000, uniform(1))
        assert estimate.deserialize_us > estimate.serialize_us

    def test_compute_time(self):
        model = CostModel()
        assert model.compute_time_us(4e6) == pytest.approx(1000.0)

    def test_invalid_parameters_rejected(self):
        # The rates are class constants, not options: none can be set.
        with pytest.raises(TypeError):
            CostModel(pool_bandwidth_gbps=0)
        with pytest.raises(TypeError):
            CostModel(serialize_ns_per_byte=-1)
