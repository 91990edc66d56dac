"""Unit tests for 128-bit object identifiers."""

import pytest

from repro.core import (
    ID_BITS,
    NULL_ID,
    IDAllocator,
    ObjectID,
    collision_probability,
)


class TestObjectID:
    def test_value_roundtrip(self):
        oid = ObjectID(12345)
        assert oid.value == 12345

    def test_null_id(self):
        assert NULL_ID.is_null
        assert not ObjectID(1).is_null

    def test_bounds(self):
        ObjectID((1 << 128) - 1)  # max is fine
        with pytest.raises(ValueError):
            ObjectID(1 << 128)
        with pytest.raises(ValueError):
            ObjectID(-1)

    def test_type_check(self):
        with pytest.raises(TypeError):
            ObjectID("0xabc")

    def test_immutability(self):
        oid = ObjectID(5)
        with pytest.raises(AttributeError):
            oid._value = 6

    def test_bytes_roundtrip(self):
        oid = ObjectID(0xDEADBEEF << 64 | 0xCAFEBABE)
        assert ObjectID.from_bytes(oid.to_bytes()) == oid
        assert len(oid.to_bytes()) == 16

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            ObjectID.from_bytes(b"\x00" * 15)

    def test_hex_roundtrip(self):
        oid = ObjectID(0xABCDEF)
        assert ObjectID.from_hex(str(oid)) == oid

    def test_string_is_32_hex_digits(self):
        assert len(str(ObjectID(1))) == 32

    def test_equality_and_hash(self):
        assert ObjectID(7) == ObjectID(7)
        assert ObjectID(7) != ObjectID(8)
        assert hash(ObjectID(7)) == hash(ObjectID(7))
        assert ObjectID(7) != 7

    def test_ordering(self):
        assert ObjectID(1) < ObjectID(2)
        assert sorted([ObjectID(3), ObjectID(1)])[0] == ObjectID(1)

    def test_usable_as_dict_key(self):
        table = {ObjectID(5): "five"}
        assert table[ObjectID(5)] == "five"

    def test_short_prefix(self):
        oid = ObjectID(0x1234 << 112)
        assert str(oid).startswith(oid.short())
        assert len(oid.short()) == 8


class TestIDAllocator:
    def test_deterministic_with_seed(self):
        a = IDAllocator(seed=42)
        b = IDAllocator(seed=42)
        assert [a.allocate() for _ in range(10)] == [b.allocate() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert IDAllocator(seed=1).allocate() != IDAllocator(seed=2).allocate()

    def test_never_null(self):
        allocator = IDAllocator(seed=3)
        assert all(not allocator.allocate().is_null for _ in range(100))

    def test_no_local_collisions(self):
        allocator = IDAllocator(seed=4)
        ids = [allocator.allocate() for _ in range(1000)]
        assert len(set(ids)) == 1000

    def test_issued_counter(self):
        allocator = IDAllocator(seed=5)
        for _ in range(7):
            allocator.allocate()
        assert allocator.issued == 7

    def test_secure_mode_allocates(self):
        oid = IDAllocator().allocate()
        assert isinstance(oid, ObjectID)
        assert not oid.is_null


class TestCollisionProbability:
    def test_zero_and_one_object(self):
        assert collision_probability(0) == 0.0
        assert collision_probability(1) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            collision_probability(-1)

    def test_monotone_in_population(self):
        assert collision_probability(10**6) < collision_probability(10**9)

    def test_vanishingly_small_at_a_trillion(self):
        # The paper's design argument: no arbiter needed because the
        # chance of collision is negligible even at vast populations.
        assert collision_probability(10**12, bits=ID_BITS) < 1e-12

    def test_small_space_saturates(self):
        assert collision_probability(10**6, bits=16) > 0.999


class TestObjectIDIsAnInt:
    """``ObjectID`` is an ``int`` with no instance state: it hashes and
    orders as its value in C.  What that keeps and the one thing it
    changes."""

    VALUE = 0xDEADBEEF << 64 | 5

    def test_hash_is_the_value_hash(self):
        for value in (0, 5, (1 << 61) - 1, 1 << 61, self.VALUE, (1 << 128) - 1):
            assert hash(ObjectID(value)) == hash(value)

    def test_a_dict_keeps_an_int_and_its_id_apart(self):
        table = {5: "int", ObjectID(5): "id"}
        assert len(table) == 2
        assert table[5] == "int" and table[ObjectID(5)] == "id"
        assert ObjectID(5) != 5 and 5 != ObjectID(5)
        assert not ObjectID(5) == 5

    def test_renderings_and_wire_bytes_unchanged(self):
        oid = ObjectID(self.VALUE)
        assert repr(oid) == "ObjectID(0x00000000deadbeef0000000000000005)"
        assert str(oid) == "00000000deadbeef0000000000000005"
        assert oid.short() == "00000000"
        assert oid.to_bytes() == bytes.fromhex(
            "00000000deadbeef0000000000000005")
        assert oid.value == self.VALUE and type(oid.value) is int

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        oid = ObjectID(self.VALUE)
        for twin in (pickle.loads(pickle.dumps(oid)), copy.copy(oid),
                     copy.deepcopy(oid)):
            assert type(twin) is ObjectID and twin == oid

    def test_no_attribute_can_be_set(self):
        oid = ObjectID(5)
        with pytest.raises(AttributeError):
            oid.value = 6
        with pytest.raises(AttributeError):
            oid.anything = 6

    def test_every_id_is_true(self):
        assert NULL_ID and ObjectID(1)

    def test_orders_against_a_plain_int(self):
        assert ObjectID(3) < 4 and not ObjectID(3) < 3
        assert sorted([ObjectID(2), 1, ObjectID(0)]) == [ObjectID(0), 1, ObjectID(2)]
