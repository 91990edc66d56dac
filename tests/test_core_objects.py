"""Unit tests for MemObject: the flat pool, pointers, and byte-level copy."""

import pytest

from repro.core import (
    KIND_CODE,
    KIND_DATA,
    InvariantPointer,
    MemObject,
    ObjectError,
    ObjectID,
)


@pytest.fixture
def obj():
    return MemObject(ObjectID(1), size=4096)


class TestConstruction:
    def test_defaults(self, obj):
        assert obj.size == 4096
        assert obj.kind == KIND_DATA
        assert obj.version == 0

    def test_null_id_rejected(self):
        from repro.core import NULL_ID

        with pytest.raises(ObjectError):
            MemObject(NULL_ID, size=16)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ObjectError):
            MemObject(ObjectID(1), size=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObjectError):
            MemObject(ObjectID(1), size=16, kind="mystery")


class TestReadWrite:
    def test_roundtrip(self, obj):
        obj.write(100, b"hello")
        assert obj.read(100, 5) == b"hello"

    def test_write_bumps_version(self, obj):
        obj.write(0, b"x")
        obj.write(0, b"y")
        assert obj.version == 2

    def test_read_does_not_bump_version(self, obj):
        obj.read(0, 10)
        assert obj.version == 0

    def test_out_of_bounds_read(self, obj):
        with pytest.raises(ObjectError):
            obj.read(4090, 10)

    def test_out_of_bounds_write(self, obj):
        with pytest.raises(ObjectError):
            obj.write(4095, b"toolong")

    def test_negative_offset(self, obj):
        with pytest.raises(ObjectError):
            obj.read(-1, 4)

    def test_fresh_object_zeroed(self, obj):
        assert obj.read(0, 16) == b"\x00" * 16


class TestAllocation:
    def test_alloc_skips_offset_zero(self, obj):
        assert obj.alloc(8) != 0

    def test_alloc_respects_alignment(self, obj):
        obj.alloc(3)
        offset = obj.alloc(8)
        assert offset % 8 == 0

    def test_alloc_exhaustion(self):
        small = MemObject(ObjectID(1), size=64)
        small.alloc(32)
        with pytest.raises(ObjectError):
            small.alloc(64)

    def test_alloc_invalid_args(self, obj):
        with pytest.raises(ObjectError):
            obj.alloc(0)

    def test_bytes_allocated_tracks_cursor(self, obj):
        first = obj.alloc(100)
        assert obj.alloc(8) >= first + 100


class TestPointers:
    def test_internal_point_to(self, obj):
        at = obj.alloc(8)
        pointer = obj.point_to(at, obj, 0x200)
        assert pointer.is_internal
        assert obj.resolve(obj.load_pointer(at)) == (obj.oid, 0x200)

    def test_external_point_to_creates_fot_entry(self, obj):
        other = MemObject(ObjectID(2), size=64)
        at = obj.alloc(8)
        pointer = obj.point_to(at, other, 16)
        assert pointer.is_external
        assert len(obj.fot) == 1
        assert obj.resolve(pointer) == (other.oid, 16)

    def test_point_to_by_id(self, obj):
        at = obj.alloc(8)
        obj.point_to(at, ObjectID(77), 8)
        assert obj.resolve(obj.load_pointer(at)) == (ObjectID(77), 8)

    def test_null_pointer_resolution(self, obj):
        from repro.core import NULL_ID

        assert obj.resolve(InvariantPointer.null()) == (NULL_ID, 0)

    def test_repeated_point_to_same_target_shares_fot_slot(self, obj):
        other = MemObject(ObjectID(2), size=64)
        a = obj.alloc(8)
        b = obj.alloc(8)
        p1 = obj.point_to(a, other, 0)
        p2 = obj.point_to(b, other, 32)
        assert p1.fot_index == p2.fot_index
        assert len(obj.fot) == 1


class TestWireCopy:
    def test_roundtrip_preserves_everything(self, obj):
        other = MemObject(ObjectID(2), size=64)
        at = obj.alloc(8)
        obj.point_to(at, other, 16)
        obj.write(512, b"payload")
        rebuilt = MemObject.from_wire(obj.to_wire(), obj.oid)
        assert rebuilt.oid == obj.oid
        assert rebuilt.size == obj.size
        assert rebuilt.version == obj.version
        assert rebuilt.read(512, 7) == b"payload"
        # The pointer still resolves identically: the invariance claim.
        assert rebuilt.resolve(rebuilt.load_pointer(at)) == (other.oid, 16)

    # One pointer-free and one pointing object, encoded before the FOT
    # was built only on first use: the wire has not moved.
    POINTER_FREE_WIRE = bytes.fromhex(
        "0123456789abcdef0011223344556677" "0000000000000018" "0000000000000001"
        "00" "00000004" "00000001"
        "000000706f6f6c0000000000000000000000000000000000")
    POINTING_WIRE = bytes.fromhex(
        "0123456789abcdef0011223344556677" "0000000000000018" "0000000000000001"
        "00" "00000018" "00000002" "00000000000000000000000000000099" "00000003"
        "000000000000000000010000000000100000000000000000")

    def test_pointer_free_object_encodes_as_before_and_builds_no_fot(self):
        oid = ObjectID(0x0123456789ABCDEF0011223344556677)
        obj = MemObject(oid, size=24)
        obj.write(3, b"pool")
        assert obj.to_wire() == self.POINTER_FREE_WIRE
        assert obj.wire_size == len(self.POINTER_FREE_WIRE)
        rebuilt = MemObject.from_wire(self.POINTER_FREE_WIRE, oid)
        assert rebuilt._fot is None
        assert rebuilt.oid is oid
        assert (rebuilt.version, rebuilt.read(3, 4)) == (1, b"pool")
        assert rebuilt.to_wire() == self.POINTER_FREE_WIRE
        assert rebuilt.clone()._fot is None
        # A table that was built and stayed empty encodes the same.
        assert len(rebuilt.fot) == 0
        assert rebuilt.to_wire() == self.POINTER_FREE_WIRE

    def test_object_with_pointers_round_trips_its_fot(self):
        oid = ObjectID(0x0123456789ABCDEF0011223344556677)
        obj = MemObject(oid, size=24)
        at = obj.alloc(8)
        obj.point_to(at, ObjectID(0x99), 16)
        assert obj.to_wire() == self.POINTING_WIRE
        assert obj.wire_size == len(self.POINTING_WIRE)
        rebuilt = MemObject.from_wire(self.POINTING_WIRE, oid)
        assert rebuilt.fot == obj.fot
        assert [entry.target for entry in rebuilt.fot] == [ObjectID(0x99)]
        assert rebuilt.resolve(rebuilt.load_pointer(at)) == (ObjectID(0x99), 16)
        assert rebuilt.to_wire() == self.POINTING_WIRE

    def test_an_image_of_another_object_is_rejected(self, obj):
        with pytest.raises(ObjectError, match="not"):
            MemObject.from_wire(obj.to_wire(), ObjectID(2))

    def test_a_corrupt_empty_fot_is_rejected(self, obj):
        wire = bytearray(obj.to_wire())
        wire[37:41] = (2).to_bytes(4, "big")  # claims an entry it lacks
        with pytest.raises(ObjectError, match="corrupt FOT"):
            MemObject.from_wire(bytes(wire), obj.oid)

    def test_wire_size_matches(self, obj):
        assert len(obj.to_wire()) == obj.wire_size

    def test_truncated_wire_rejected(self, obj):
        with pytest.raises(ObjectError):
            MemObject.from_wire(obj.to_wire()[:-1], obj.oid)

    def test_garbage_wire_rejected(self):
        with pytest.raises(ObjectError):
            MemObject.from_wire(b"\x01" * 10, ObjectID(1))

    def test_kind_preserved(self):
        code = MemObject(ObjectID(3), size=128, kind=KIND_CODE)
        assert MemObject.from_wire(code.to_wire(), code.oid).kind == KIND_CODE

    def test_clone_identity_and_independence(self, obj):
        obj.write(0, b"abc")
        twin = obj.clone()
        assert twin.oid == obj.oid
        assert twin.read(0, 3) == b"abc"
        twin.write(0, b"xyz")
        assert obj.read(0, 3) == b"abc"
