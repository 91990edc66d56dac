"""Unit tests for typed struct views and per-host object spaces."""

import pytest

from repro.core import (
    Field,
    GlobalRef,
    IDAllocator,
    InvariantPointer,
    LayoutError,
    MemObject,
    ObjectError,
    ObjectID,
    ObjectSpace,
    SpaceError,
    StructLayout,
)


RECORD = StructLayout("record", [
    Field("next", "ptr"),
    Field("count", "u32"),
    Field("weight", "f64"),
    Field("name", "bytes", length=16),
])


class TestLayout:
    def test_size_is_sum_of_fields(self):
        assert RECORD.size == 8 + 4 + 8 + 16

    def test_offsets_are_sequential(self):
        assert RECORD.offset_of("next") == 0
        assert RECORD.offset_of("count") == 8
        assert RECORD.offset_of("weight") == 12

    def test_unknown_field(self):
        with pytest.raises(LayoutError):
            RECORD.offset_of("missing")

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(LayoutError):
            StructLayout("bad", [Field("x", "u8"), Field("x", "u16")])

    def test_empty_layout_rejected(self):
        with pytest.raises(LayoutError):
            StructLayout("empty", [])

    def test_unknown_type_rejected(self):
        with pytest.raises(LayoutError):
            Field("x", "u128")

    def test_bytes_needs_length(self):
        with pytest.raises(LayoutError):
            Field("x", "bytes")

    def test_scalar_rejects_length(self):
        with pytest.raises(LayoutError):
            Field("x", "u8", length=4)


class TestStructView:
    @pytest.fixture
    def obj(self):
        return MemObject(ObjectID(1), size=4096)

    def test_scalar_roundtrip(self, obj):
        view = RECORD.allocate_in(obj)
        view.set("count", 42)
        view.set("weight", 2.5)
        assert view.get("count") == 42
        assert view.get("weight") == 2.5

    def test_bytes_field_padded(self, obj):
        view = RECORD.allocate_in(obj)
        view.set("name", b"abc")
        assert view.get("name") == b"abc" + b"\x00" * 13

    def test_bytes_overflow_rejected(self, obj):
        view = RECORD.allocate_in(obj)
        with pytest.raises(LayoutError):
            view.set("name", b"x" * 17)

    def test_pointer_field(self, obj):
        target = MemObject(ObjectID(2), size=64)
        view = RECORD.allocate_in(obj)
        pointer = view.set_pointer_to("next", target, 32)
        assert view.get("next") == pointer
        assert obj.resolve(pointer) == (target.oid, 32)

    def test_pointer_to_struct_view(self, obj):
        a = RECORD.allocate_in(obj)
        b = RECORD.allocate_in(obj)
        pointer = a.set_pointer_to("next", b)
        assert pointer.is_internal
        assert pointer.offset == b.offset

    def test_pointer_field_type_enforced(self, obj):
        view = RECORD.allocate_in(obj)
        with pytest.raises(LayoutError):
            view.set("count", InvariantPointer.null())
        with pytest.raises(LayoutError):
            view.set_pointer_to("count", obj, 0)

    def test_scalar_range_enforced(self, obj):
        view = RECORD.allocate_in(obj)
        with pytest.raises(LayoutError):
            view.set("count", 1 << 33)

    def test_view_out_of_bounds(self):
        tiny = MemObject(ObjectID(1), size=8)
        with pytest.raises(LayoutError):
            RECORD.view(tiny, 0)

    def test_as_dict(self, obj):
        view = RECORD.allocate_in(obj)
        view.set("count", 3)
        snapshot = view.as_dict()
        assert snapshot["count"] == 3
        assert set(snapshot) == {"next", "count", "weight", "name"}

    def test_machine_independence(self, obj):
        # A struct written here parses identically from a wire copy.
        view = RECORD.allocate_in(obj)
        view.set("count", 7)
        view.set("weight", -1.25)
        rebuilt = MemObject.from_wire(obj.to_wire(), obj.oid)
        copy_view = RECORD.view(rebuilt, view.offset)
        assert copy_view.get("count") == 7
        assert copy_view.get("weight") == -1.25


class TestObjectSpace:
    @pytest.fixture
    def space(self):
        return ObjectSpace(IDAllocator(seed=9), host_name="alpha")

    def test_create_registers_residency(self, space):
        obj = space.create_object(size=128)
        assert obj.oid in space
        assert space.get(obj.oid) is obj

    def test_get_missing_raises(self, space):
        with pytest.raises(SpaceError):
            space.get(ObjectID(123))

    def test_try_get_missing_returns_none(self, space):
        assert space.try_get(ObjectID(123)) is None

    def test_insert_duplicate_rejected(self, space):
        obj = space.create_object(size=64)
        with pytest.raises(SpaceError):
            space.insert(obj)

    def test_evict(self, space):
        obj = space.create_object(size=64)
        evicted = space.evict(obj.oid)
        assert evicted is obj
        assert obj.oid not in space

    def test_evict_missing_raises(self, space):
        with pytest.raises(SpaceError):
            space.evict(ObjectID(5))

    def test_export_import_between_spaces(self, space):
        obj = space.create_object(size=128)
        obj.write(0, b"shared")
        other = ObjectSpace(host_name="beta")
        imported = other.import_object(obj.oid, space.export_object(obj.oid))
        assert imported.oid == obj.oid
        assert imported.read(0, 6) == b"shared"
        assert space.bytes_exported == other.bytes_imported > 0

    def test_import_keeps_the_callers_oid(self, space):
        obj = space.create_object(size=64)
        wire = space.export_object(obj.oid)
        other = ObjectSpace(host_name="beta")
        held = ObjectID(int(obj.oid))
        assert other.import_object(held, wire).oid is held
        with pytest.raises(ObjectError):
            other.import_object(ObjectID(int(obj.oid) + 1), wire, replace=True)
        assert len(other) == 1

    def test_import_stale_version_rejected(self, space):
        obj = space.create_object(size=64)
        obj.write(0, b"v1")
        wire_old = space.export_object(obj.oid)
        other = ObjectSpace(host_name="beta")
        other.import_object(obj.oid, wire_old)
        with pytest.raises(SpaceError):
            other.import_object(obj.oid, wire_old)  # same version, not newer

    def test_import_newer_version_replaces(self, space):
        obj = space.create_object(size=64)
        wire_old = space.export_object(obj.oid)
        other = ObjectSpace(host_name="beta")
        other.import_object(obj.oid, wire_old)
        obj.write(0, b"newer")
        other.import_object(obj.oid, space.export_object(obj.oid))
        assert other.get(obj.oid).read(0, 5) == b"newer"

    def test_import_replace_flag_overrides(self, space):
        obj = space.create_object(size=64)
        wire = space.export_object(obj.oid)
        other = ObjectSpace(host_name="beta")
        other.import_object(obj.oid, wire)
        other.import_object(obj.oid, wire, replace=True)  # no error

    def test_deref_local_and_remote(self, space):
        a = space.create_object(size=128)
        b = space.create_object(size=128)
        at = a.alloc(8)
        a.point_to(at, b, 64)
        target, offset = a.resolve(a.load_pointer(at))
        assert (target, offset, target in space) == (b.oid, 64, True)
        space.evict(b.oid)
        assert a.resolve(a.load_pointer(at)) == (b.oid, 64)
        assert b.oid not in space

    def test_resident_bytes(self, space):
        space.create_object(size=100)
        space.create_object(size=200)
        assert "bytes=300>" in repr(space)

    def test_len_and_iter(self, space):
        ids = {space.create_object(size=32).oid for _ in range(3)}
        assert len(space) == 3
        assert {obj.oid for obj in space} == ids


class TestGlobalRef:
    def test_wire_roundtrip(self):
        ref = GlobalRef(ObjectID(99), 0x1234, "read")
        assert GlobalRef.from_bytes(ref.to_bytes()) == ref
        assert len(ref.to_bytes()) == 24

    def test_null_object_rejected(self):
        from repro.core import NULL_ID, RefError

        with pytest.raises(RefError):
            GlobalRef(NULL_ID, 0)

    def test_modes(self):
        ref = GlobalRef(ObjectID(1), 0, "write")
        assert ref.writable and ref.readable
        ro = ref.readonly()
        assert ro.readable and not ro.writable
        opaque = ref.opaque()
        assert not opaque.readable and not opaque.writable

    def test_at_changes_offset_only(self):
        ref = GlobalRef(ObjectID(1), 0, "read")
        moved = ref.at(500)
        assert moved.oid == ref.oid
        assert moved.offset == 500
        assert moved.mode == "read"

    def test_bad_mode_rejected(self):
        from repro.core import RefError

        with pytest.raises(RefError):
            GlobalRef(ObjectID(1), 0, "execute")

    def test_offset_bounds(self):
        from repro.core import RefError

        with pytest.raises(RefError):
            GlobalRef(ObjectID(1), 1 << 48)
