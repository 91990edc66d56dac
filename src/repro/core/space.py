"""Per-host object spaces.

An :class:`ObjectSpace` is one host's slice of the global address space:
the set of objects currently resident there.  The *global* space is the
union of all hosts' spaces plus the discovery layer that locates objects
by ID; this module only handles local residency, creation, import/export
(byte-level copy), and eviction on movement.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .objectid import IDAllocator, ObjectID
from .objects import DEFAULT_OBJECT_SIZE, KIND_DATA, MemObject

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

    # -- movement (byte-level copy) ----------------------------------------
    def export_object(self, oid: ObjectID) -> bytes:
        """Byte-level copy out; counts toward :attr:`bytes_exported`."""
        wire = self.get(oid).to_wire()
        self.bytes_exported += len(wire)
        return wire

    def import_object(self, oid: ObjectID, wire: bytes,
                      replace: bool = False) -> MemObject:
        """Byte-level copy in of object ``oid``; newer versions replace
        stale residents.  The space keys the copy by the caller's
        ``oid``, which must be the image's."""
        obj = MemObject.from_wire(wire, oid)
        existing = self._objects.get(oid)
        if existing is not None and not replace:
            if existing.version >= obj.version:
                raise SpaceError(
                    f"object {oid.short()} already resident at version "
                    f"{existing.version} >= incoming {obj.version}"
                )
        self._objects[oid] = obj
        self.bytes_imported += len(wire)
        return obj

    def __repr__(self) -> str:
        resident = sum(obj.size for obj in self._objects.values())
        return (
            f"<ObjectSpace host={self.host_name!r} objects={len(self)} "
            f"bytes={resident}>"
        )
