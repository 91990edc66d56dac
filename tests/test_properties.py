"""Property-based tests (hypothesis) on core data structures and codecs."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    FOT,
    GlobalRef,
    InvariantPointer,
    MemObject,
    ObjectID,
)
from repro.rpc import decode, encode

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

object_ids = st.integers(min_value=1, max_value=(1 << 128) - 1).map(ObjectID)

pointers = st.one_of(
    st.just(InvariantPointer.null()),
    st.integers(1, (1 << 48) - 1).map(InvariantPointer.internal),
    st.tuples(st.integers(1, (1 << 16) - 1), st.integers(0, (1 << 48) - 1)).map(
        lambda pair: InvariantPointer.external(*pair)
    ),
)

json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 80), max_value=1 << 80),
        st.floats(allow_nan=False, allow_infinity=False),
        st.binary(max_size=200),
        st.text(max_size=50),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=10), children, max_size=8),
    ),
    max_leaves=25,
)


class TestPointerProperties:
    @given(pointers)
    @settings(max_examples=200, deadline=None)
    def test_raw_roundtrip(self, pointer):
        assert InvariantPointer.from_raw(pointer.raw) == pointer

    @given(pointers)
    @settings(max_examples=200, deadline=None)
    def test_bytes_roundtrip(self, pointer):
        assert InvariantPointer.from_bytes(pointer.to_bytes()) == pointer

    @given(st.integers(0, (1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_64_bit_value_decodes(self, raw):
        pointer = InvariantPointer.from_raw(raw)
        assert pointer.raw == raw

    @given(pointers)
    @settings(max_examples=100, deadline=None)
    def test_classification_exclusive(self, pointer):
        assert sum([pointer.is_null, pointer.is_internal, pointer.is_external]) == 1


class TestObjectIDProperties:
    @given(object_ids)
    @settings(max_examples=200, deadline=None)
    def test_bytes_roundtrip(self, oid):
        assert ObjectID.from_bytes(oid.to_bytes()) == oid

    @given(object_ids)
    @settings(max_examples=200, deadline=None)
    def test_hex_roundtrip(self, oid):
        assert ObjectID.from_hex(str(oid)) == oid

    @given(object_ids, object_ids)
    @settings(max_examples=100, deadline=None)
    def test_ordering_consistent_with_values(self, a, b):
        assert (a < b) == (a.value < b.value)


class TestFOTProperties:
    @given(st.lists(st.tuples(object_ids, st.sampled_from([1, 2, 3])),
                    max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bytes_roundtrip(self, entries):
        fot = FOT()
        for target, flags in entries:
            fot.add(target, flags)
        rebuilt = FOT.from_bytes(fot.to_bytes())
        assert rebuilt == fot

    @given(st.lists(object_ids, min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_add_lookup_agree(self, targets):
        fot = FOT()
        indices = [fot.add(target) for target in targets]
        for target, index in zip(targets, indices):
            assert fot.lookup(index).target == target

    @given(st.lists(object_ids, min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_dedup_means_indices_stable(self, targets):
        fot = FOT()
        first_pass = [fot.add(target) for target in targets]
        second_pass = [fot.add(target) for target in targets]
        assert first_pass == second_pass


class TestObjectWireProperties:
    @given(
        st.binary(min_size=1, max_size=512),
        st.integers(0, 200),
        st.lists(object_ids, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_wire_roundtrip_preserves_data_and_fot(self, payload, offset, targets):
        obj = MemObject(ObjectID(1), size=1024)
        obj.write(offset, payload)
        for i, target in enumerate(targets):
            at = obj.alloc(8)
            obj.point_to(at, target, i)
        rebuilt = MemObject.from_wire(obj.to_wire(), obj.oid)
        assert rebuilt.data == obj.data
        assert rebuilt.fot == obj.fot
        assert rebuilt.version == obj.version

    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=100, deadline=None)
    def test_double_wire_copy_is_identity(self, payload):
        obj = MemObject(ObjectID(7), size=512)
        obj.write(0, payload)
        once = MemObject.from_wire(obj.to_wire(), obj.oid)
        twice = MemObject.from_wire(once.to_wire(), obj.oid)
        assert twice.to_wire() == once.to_wire()


class TestGlobalRefProperties:
    @given(object_ids, st.integers(0, (1 << 48) - 1),
           st.sampled_from(["read", "write", "opaque"]))
    @settings(max_examples=200, deadline=None)
    def test_wire_roundtrip(self, oid, offset, mode):
        ref = GlobalRef(oid, offset, mode)
        assert GlobalRef.from_bytes(ref.to_bytes()) == ref


class TestSerializerProperties:
    @given(json_like)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        rebuilt = decode(encode(value))
        assert rebuilt == _normalize(value)

    @given(json_like)
    @settings(max_examples=100, deadline=None)
    def test_encoding_deterministic(self, value):
        assert encode(value) == encode(value)


def _normalize(value):
    """tuples decode as lists; everything else is preserved."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    return value
