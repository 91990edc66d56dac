"""Per-host object spaces.

An :class:`ObjectSpace` is one host's slice of the global address space:
the set of objects currently resident there.  The *global* space is the
union of all hosts' spaces plus the discovery layer that locates objects
by ID; this module only handles local residency, creation, import/export
(byte-level copy), and eviction on movement.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .objectid import IDAllocator, ObjectID
from .objects import DEFAULT_OBJECT_SIZE, KIND_DATA, MemObject
from .pointers import InvariantPointer

__all__ = ["ObjectSpace", "SpaceError"]


class SpaceError(Exception):
    """Raised on residency violations (missing/duplicate objects)."""


class ObjectSpace:
    """The set of objects resident on one host.

    Creation goes through an :class:`IDAllocator` (seeded for
    reproducibility in simulation).  Import/export use the byte-level
    wire encoding — movement of an object between spaces never involves
    a serialization walk.
    """

    def __init__(self, allocator: Optional[IDAllocator] = None, host_name: str = ""):
        self.allocator = allocator if allocator is not None else IDAllocator(seed=0)
        self.host_name = host_name
        self._objects: Dict[ObjectID, MemObject] = {}
        self.bytes_imported = 0
        self.bytes_exported = 0

    # -- creation ---------------------------------------------------------
    def create_object(
        self,
        size: int = DEFAULT_OBJECT_SIZE,
        kind: str = KIND_DATA,
        label: str = "",
    ) -> MemObject:
        """Allocate a fresh ID and create an empty resident object."""
        oid = self.allocator.allocate()
        obj = MemObject(oid, size=size, kind=kind, label=label)
        self._objects[oid] = obj
        return obj

    def insert(self, obj: MemObject) -> None:
        """Adopt an existing object (e.g., constructed by a workload)."""
        if obj.oid in self._objects:
            raise SpaceError(f"object {obj.oid.short()} already resident on {self.host_name}")
        self._objects[obj.oid] = obj

    # -- residency --------------------------------------------------------
    def __contains__(self, oid: ObjectID) -> bool:
        return oid in self._objects

    def get(self, oid: ObjectID) -> MemObject:
        """Return the stored value for ``key`` (0/None when absent)."""
        obj = self._objects.get(oid)
        if obj is None:
            raise SpaceError(f"object {oid.short()} not resident on {self.host_name!r}")
        return obj

    def try_get(self, oid: ObjectID) -> Optional[MemObject]:
        """Return the object if resident, else None."""
        return self._objects.get(oid)

    def evict(self, oid: ObjectID) -> MemObject:
        """Remove an object (it moved elsewhere); returns the evictee."""
        if oid not in self._objects:
            raise SpaceError(f"cannot evict non-resident object {oid.short()}")
        return self._objects.pop(oid)

    def __iter__(self) -> Iterator[MemObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def resident_bytes(self) -> int:
        """Total bytes of resident object pools."""
        return sum(obj.size for obj in self._objects.values())

    # -- movement (byte-level copy) ----------------------------------------
    def export_object(self, oid: ObjectID) -> bytes:
        """Byte-level copy out; counts toward :attr:`bytes_exported`."""
        wire = self.get(oid).to_wire()
        self.bytes_exported += len(wire)
        return wire

    def import_object(self, wire: bytes, replace: bool = False) -> MemObject:
        """Byte-level copy in; newer versions replace stale residents."""
        obj = MemObject.from_wire(wire)
        existing = self._objects.get(obj.oid)
        if existing is not None and not replace:
            if existing.version >= obj.version:
                raise SpaceError(
                    f"object {obj.oid.short()} already resident at version "
                    f"{existing.version} >= incoming {obj.version}"
                )
        self._objects[obj.oid] = obj
        self.bytes_imported += len(wire)
        return obj

    # -- pointer resolution -------------------------------------------------
    def deref(self, oid: ObjectID, pointer: InvariantPointer) -> Tuple[ObjectID, int, bool]:
        """Resolve ``pointer`` found inside object ``oid``.

        Returns ``(target_oid, target_offset, resident)`` where
        ``resident`` says whether the target currently lives here.  The
        runtime layer uses a non-resident result to trigger a remote
        fetch through discovery.
        """
        source = self.get(oid)
        target_oid, target_offset = source.resolve(pointer)
        return target_oid, target_offset, target_oid in self._objects

    def follow(self, oid: ObjectID, pointer_offset: int) -> Tuple[ObjectID, int, bool]:
        """Load the pointer stored at ``pointer_offset`` in ``oid`` and
        resolve it — the one-step traversal primitive."""
        source = self.get(oid)
        pointer = source.load_pointer(pointer_offset)
        return self.deref(oid, pointer)

    def __repr__(self) -> str:
        return (
            f"<ObjectSpace host={self.host_name!r} objects={len(self)} "
            f"bytes={self.resident_bytes}>"
        )
