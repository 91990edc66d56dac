"""128-bit object identifiers.

The paper (§3.1) argues for a 128-bit flat object ID space allocated via
secure random numbers, so that object creation needs *no centralized
arbiter*: the collision probability is vanishingly small.  This module
implements the identifier type, deterministic and secure allocation, and
the collision-probability math that justifies the design.
"""

from __future__ import annotations

import math
import random
import secrets
from typing import Optional

__all__ = [
    "ObjectID",
    "IDAllocator",
    "collision_probability",
    "ID_BITS",
    "NULL_ID",
]

ID_BITS = 128
_ID_MASK = (1 << ID_BITS) - 1


class ObjectID(int):
    """An immutable 128-bit object identifier.

    IDs are value objects: hashable, totally ordered, and rendered as
    32-hex-digit strings.  The zero ID is reserved as the null reference
    (:data:`NULL_ID`).

    An ID is an ``int`` with no instance state: it hashes as its value
    does, and orders by it, in C, so the lookups keyed by oids in every
    cache, directory and location table cost no Python call.  Equality
    stays between IDs only (``ObjectID(7) != 7``); an ID does order
    against a plain ``int``.  Every ID is true, the null one included.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "ObjectID":
        if not isinstance(value, int):
            raise TypeError(f"ObjectID value must be int, got {type(value).__name__}")
        if not 0 <= value <= _ID_MASK:
            raise ValueError(f"ObjectID out of 128-bit range: {value:#x}")
        return int.__new__(cls, value)

    @property
    def value(self) -> int:
        """The current value."""
        return int(self)

    @property
    def is_null(self) -> bool:
        """True for the null reference/pointer."""
        return int(self) == 0

    def to_bytes(self) -> bytes:
        """Big-endian 16-byte wire encoding."""
        return int.to_bytes(self, 16, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ObjectID":
        """Rebuild an instance from its wire byte encoding."""
        if len(raw) != 16:
            raise ValueError(f"ObjectID needs exactly 16 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "ObjectID":
        """Parse from a hexadecimal string."""
        return cls(int(text, 16))

    def short(self) -> str:
        """First 8 hex digits — human-friendly label for traces."""
        return f"{self:032x}"[:8]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectID) and int.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not (isinstance(other, ObjectID) and int.__eq__(self, other))

    __hash__ = int.__hash__

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"ObjectID({self:#034x})"

    def __str__(self) -> str:
        return f"{self:032x}"


NULL_ID = ObjectID(0)


class IDAllocator:
    """Allocates fresh 128-bit IDs with no coordination.

    Two modes:

    * **deterministic** (default for simulation): a seeded PRNG, so every
      experiment run produces the same IDs;
    * **secure**: ``secrets.randbits(128)``, matching Twizzler's production
      behaviour.

    Either way the allocator never hands out the null ID, and it tracks
    the IDs it has issued so tests can assert collision-freedom locally.
    """

    def __init__(self, seed: Optional[int] = None):
        self._secure = seed is None
        self._rng = random.Random(seed) if seed is not None else None
        self.issued = 0

    def allocate(self) -> ObjectID:
        """Return a fresh non-null 128-bit ID."""
        while True:
            if self._secure:
                value = secrets.randbits(ID_BITS)
            else:
                assert self._rng is not None
                value = self._rng.getrandbits(ID_BITS)
            if value != 0:
                self.issued += 1
                return ObjectID(value)


def collision_probability(num_objects: int, bits: int = ID_BITS) -> float:
    """Birthday-bound probability of any collision among ``num_objects`` IDs.

    Uses the standard approximation ``p ≈ 1 - exp(-n(n-1) / 2^(bits+1))``,
    which is what makes 128-bit random allocation safe: even at a trillion
    objects the collision probability is ~1.5e-15.
    """
    if num_objects < 0:
        raise ValueError("num_objects must be non-negative")
    if num_objects < 2:
        return 0.0
    exponent = -(num_objects * (num_objects - 1)) / float(2 ** (bits + 1))
    # expm1 keeps precision when the probability is tiny (1 - exp(-x)
    # rounds to 0.0 in float for x below ~1e-16).
    return -math.expm1(exponent)
