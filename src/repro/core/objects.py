"""Objects: flat pools of memory with identity.

Per §3.1, objects are "flat regions of memory that can be offset into",
acting as pools where smaller data structures live.  Each object carries
its FOT, so a data structure containing pointers is encoded in a machine-
and process-independent format: moving it to another host is *merely a
byte-level copy* (:meth:`MemObject.to_wire`), with no per-field
serialization walk.  That property is what experiment E4 measures against
the RPC serializer.

The FOT lists an object's *external* references, and an object with
none needs no table: a :class:`MemObject` builds its :class:`FOT` on
first use of :attr:`MemObject.fot`, and writes and reads an absent one
as the empty table's 4 bytes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .fot import FLAG_READ, FLAG_WRITE, FOT, FOTError
from .objectid import NULL_ID, ObjectID
from .pointers import POINTER_BYTES, InvariantPointer

__all__ = ["MemObject", "ObjectError", "DEFAULT_OBJECT_SIZE", "KIND_DATA", "KIND_CODE"]

DEFAULT_OBJECT_SIZE = 64 * 1024
KIND_DATA = "data"
KIND_CODE = "code"

# Wire header: 16B oid + 8B size + 8B version + 1B kind + 4B fot length.
_WIRE_KINDS = {KIND_DATA: 0, KIND_CODE: 1}
_WIRE_KINDS_REV = {v: k for k, v in _WIRE_KINDS.items()}
# FOT.to_bytes() of a table with no external entry: its count, 1 (slot 0).
_EMPTY_FOT = (1).to_bytes(4, "big")


class ObjectError(Exception):
    """Raised on out-of-bounds access, allocation failure, etc."""


class MemObject:
    """A single object: ID + flat byte pool + FOT + version counter.

    The version counter increments on every mutation; the coherence and
    discovery layers use it to detect staleness after movement.  The
    FOT is built when :attr:`fot` is first read, so an object that never
    points outside itself carries none.
    """

    __slots__ = ("oid", "size", "kind", "label", "data", "_fot", "version",
                 "_alloc_cursor")

    def __init__(
        self,
        oid: ObjectID,
        size: int = DEFAULT_OBJECT_SIZE,
        kind: str = KIND_DATA,
        label: str = "",
    ):
        if oid.is_null:
            raise ObjectError("object cannot have the null ID")
        if size <= 0:
            raise ObjectError(f"object size must be positive, got {size}")
        if kind not in _WIRE_KINDS:
            raise ObjectError(f"unknown object kind: {kind!r}")
        self.oid = oid
        self.size = size
        self.kind = kind
        self.label = label
        self.data = bytearray(size)
        self._fot: Optional[FOT] = None
        self.version = 0
        self._alloc_cursor = 0

    # -- raw byte access -------------------------------------------------
    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ObjectError(
                f"access [{offset}, {offset + length}) out of bounds for "
                f"object {self.oid.short()} of size {self.size}"
            )

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``."""
        self._check_range(offset, length)
        return bytes(self.data[offset : offset + length])

    def write(self, offset: int, payload: bytes) -> None:
        """Write ``payload`` at ``offset``; bumps the version counter."""
        self._check_range(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload
        self.version += 1

    # -- bump allocation ---------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` within the pool; returns the offset, a
        multiple of 8.

        A simple bump allocator — objects are pools, not heaps, and the
        paper's model places related structures together intentionally.
        Offset 0 is skipped so that a zero offset can mean "null".
        """
        if nbytes <= 0:
            raise ObjectError(f"allocation size must be positive, got {nbytes}")
        cursor = max(self._alloc_cursor, 8)
        cursor = (cursor + 7) & ~7
        if cursor + nbytes > self.size:
            raise ObjectError(
                f"object {self.oid.short()} full: need {nbytes} at {cursor}, size {self.size}"
            )
        self._alloc_cursor = cursor + nbytes
        return cursor

    # -- pointers ----------------------------------------------------------
    @property
    def fot(self) -> FOT:
        """This object's foreign-object table, built on first use."""
        fot = self._fot
        if fot is None:
            fot = self._fot = FOT()
        return fot

    def targets(self) -> List[ObjectID]:
        """The objects this one points to (its reachability edges), read
        without building a table for an object that points nowhere."""
        fot = self._fot
        return [] if fot is None else fot.targets()

    def store_pointer(self, offset: int, pointer: InvariantPointer) -> None:
        """Write a 64-bit encoded pointer into the pool at ``offset``."""
        self.write(offset, pointer.to_bytes())

    def load_pointer(self, offset: int) -> InvariantPointer:
        """Read the 64-bit pointer stored at ``offset``."""
        return InvariantPointer.from_bytes(self.read(offset, POINTER_BYTES))

    def point_to(
        self,
        offset: int,
        target: Union["MemObject", ObjectID],
        target_offset: int,
    ) -> InvariantPointer:
        """Create a pointer at ``offset`` referencing ``target_offset`` in
        ``target``, adding a read-write FOT entry if the target is another
        object.

        Returns the pointer that was stored.
        """
        target_oid = target.oid if isinstance(target, MemObject) else target
        if target_oid == self.oid:
            pointer = InvariantPointer.internal(target_offset)
        else:
            index = self.fot.add(target_oid, FLAG_READ | FLAG_WRITE)
            pointer = InvariantPointer.external(index, target_offset)
        self.store_pointer(offset, pointer)
        return pointer

    def resolve(self, pointer: InvariantPointer) -> Tuple[ObjectID, int]:
        """Decode a pointer into (object ID, offset).

        Internal pointers resolve to this object; external pointers go
        through the FOT.  Null pointers resolve to (NULL_ID, 0).
        """
        if pointer.is_null:
            return NULL_ID, 0
        if pointer.is_internal:
            return self.oid, pointer.offset
        entry = self.fot.lookup(pointer.fot_index)
        return entry.target, pointer.offset

    # -- byte-level copy (the "no serialization" path) --------------------
    def to_wire(self) -> bytes:
        """Byte-level encoding: header + FOT + raw pool contents.

        Because pointers are invariant, the receiver reconstructs a fully
        functional object by copying bytes — there is no field-by-field
        deserialization step.  This is the §3.1 claim that the global
        address space removes "100% of the loading overhead".
        """
        fot_bytes = _EMPTY_FOT if self._fot is None else self._fot.to_bytes()
        header = (
            self.oid.to_bytes()
            + self.size.to_bytes(8, "big")
            + self.version.to_bytes(8, "big")
            + _WIRE_KINDS[self.kind].to_bytes(1, "big")
            + len(fot_bytes).to_bytes(4, "big")
        )
        return header + fot_bytes + bytes(self.data)

    @classmethod
    def from_wire(cls, raw: bytes, oid: ObjectID) -> "MemObject":
        """Reconstruct object ``oid`` from :meth:`to_wire` output.

        The object keeps the caller's ``oid``, checked once against the
        image's; an empty FOT decodes to none.
        """
        if len(raw) < 37:
            raise ObjectError("truncated object wire encoding")
        if int.from_bytes(raw[:16], "big") != int(oid):
            raise ObjectError(
                f"wire image is of object {raw[:4].hex()}, not {oid.short()}")
        size = int.from_bytes(raw[16:24], "big")
        version = int.from_bytes(raw[24:32], "big")
        kind_code = raw[32]
        if kind_code not in _WIRE_KINDS_REV:
            raise ObjectError(f"unknown object kind code {kind_code}")
        fot_len = int.from_bytes(raw[33:37], "big")
        if len(raw) - 37 != fot_len + size:
            raise ObjectError(
                f"object wire size mismatch: body {len(raw) - 37} != fot "
                f"{fot_len} + data {size}")
        obj = cls(oid, size, kind=_WIRE_KINDS_REV[kind_code])
        fot_bytes = raw[37:37 + fot_len]
        if fot_bytes != _EMPTY_FOT:
            try:
                obj._fot = FOT.from_bytes(fot_bytes)
            except FOTError as exc:
                raise ObjectError(f"corrupt FOT in wire encoding: {exc}") from exc
        obj.data[:] = raw[37 + fot_len:]
        obj.version = version
        return obj

    @property
    def wire_size(self) -> int:
        """Bytes a full byte-level copy of this object occupies."""
        fot = self._fot
        return 37 + (4 if fot is None else len(fot.to_bytes())) + self.size

    def clone(self) -> "MemObject":
        """Deep copy preserving identity, contents, FOT, and version."""
        twin = MemObject(self.oid, self.size, kind=self.kind, label=self.label)
        twin.data[:] = self.data
        if self._fot is not None:
            twin._fot = self._fot.clone()
        twin.version = self.version
        twin._alloc_cursor = self._alloc_cursor
        return twin

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<MemObject {self.oid.short()}{tag} {self.kind} size={self.size} v{self.version}>"
