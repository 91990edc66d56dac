"""Foreign Object Tables (FOTs).

Per §3.1, every object carries, at a known location, a table of the
external object IDs it references.  A 64-bit pointer then encodes an
*index into this table* plus an offset, so the pointer itself stays small
while addressing a 128-bit space.  The FOT is also the paper's
"translucent view into application semantics": the system reads it to
build the reachability graph used for identity-based prefetching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from .objectid import ObjectID

__all__ = ["FOTEntry", "FOT", "FOTError", "FLAG_READ", "FLAG_WRITE", "FOT_ENTRY_BYTES"]

FLAG_READ = 0x1
FLAG_WRITE = 0x2

# On-disk/on-wire entry layout: 16-byte target ID + 4-byte flags.
FOT_ENTRY_BYTES = 20


class FOTError(Exception):
    """Raised on invalid FOT operations (bad index, overflow, ...)."""


@dataclass(frozen=True)
class FOTEntry:
    """One slot: a target object ID plus access-intent flags."""

    target: ObjectID
    flags: int = FLAG_READ | FLAG_WRITE

    def to_bytes(self) -> bytes:
        """Serialize to the wire byte encoding."""
        return self.target.to_bytes() + self.flags.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FOTEntry":
        """Rebuild an instance from its wire byte encoding."""
        if len(raw) != FOT_ENTRY_BYTES:
            raise FOTError(f"FOT entry needs {FOT_ENTRY_BYTES} bytes, got {len(raw)}")
        return cls(ObjectID.from_bytes(raw[:16]), int.from_bytes(raw[16:20], "big"))

    @property
    def readable(self) -> bool:
        """Whether read access is permitted."""
        return bool(self.flags & FLAG_READ)

    @property
    def writable(self) -> bool:
        """Whether write access is permitted."""
        return bool(self.flags & FLAG_WRITE)


class FOT:
    """The foreign-object table of a single object.

    Index 0 is reserved to mean "this object itself" (intra-object
    pointers), mirroring Twizzler's convention, so real entries start at
    index 1.  Entries are deduplicated on (target, flags).
    """

    def __init__(self, max_entries: int = 1 << 16):
        if max_entries < 2:
            raise FOTError("FOT needs room for at least one external entry")
        self.max_entries = max_entries
        self._entries: List[Optional[FOTEntry]] = [None]  # slot 0: self

    def add(self, target: ObjectID, flags: int = FLAG_READ | FLAG_WRITE) -> int:
        """Add (or find) an entry for ``target``; returns its index (>=1)."""
        if target.is_null:
            raise FOTError("cannot add null object ID to FOT")
        wanted = FOTEntry(target, flags)
        for index, entry in enumerate(self._entries):
            if entry == wanted:
                return index
        if len(self._entries) >= self.max_entries:
            raise FOTError(f"FOT full ({self.max_entries} entries)")
        self._entries.append(wanted)
        return len(self._entries) - 1

    def lookup(self, index: int) -> FOTEntry:
        """Resolve an index to its entry; index 0 and bad slots are errors."""
        if index == 0:
            raise FOTError("index 0 denotes the object itself, not a FOT entry")
        if not 0 < index < len(self._entries):
            raise FOTError(f"FOT index {index} out of range (size {len(self._entries)})")
        entry = self._entries[index]
        if entry is None:  # pragma: no cover - only slot 0 is None
            raise FOTError(f"FOT index {index} is empty")
        return entry

    def targets(self) -> List[ObjectID]:
        """All distinct referenced object IDs — the reachability edge set."""
        seen = []
        for entry in self._entries[1:]:
            if entry is not None and entry.target not in seen:
                seen.append(entry.target)
        return seen

    def __len__(self) -> int:
        """Number of real (external) entries."""
        return len(self._entries) - 1

    def __iter__(self) -> Iterator[FOTEntry]:
        for entry in self._entries[1:]:
            if entry is not None:
                yield entry

    def to_bytes(self) -> bytes:
        """Serialize external entries; used for byte-level object copy."""
        parts = [len(self._entries).to_bytes(4, "big")]
        for entry in self._entries[1:]:
            assert entry is not None
            parts.append(entry.to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FOT":
        """Rebuild an instance from its wire byte encoding."""
        if len(raw) < 4:
            raise FOTError("truncated FOT header")
        count = int.from_bytes(raw[:4], "big")
        expected = 4 + (count - 1) * FOT_ENTRY_BYTES
        if len(raw) != expected:
            raise FOTError(f"FOT payload size mismatch: {len(raw)} != {expected}")
        table = cls()
        for i in range(count - 1):
            start = 4 + i * FOT_ENTRY_BYTES
            entry = FOTEntry.from_bytes(raw[start : start + FOT_ENTRY_BYTES])
            table._entries.append(entry)
        return table

    def clone(self) -> "FOT":
        """Structural copy (entries are immutable, so a shallow list copy)."""
        table = FOT(max_entries=self.max_entries)
        table._entries = list(self._entries)
        return table

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FOT) and other._entries == self._entries

    def __repr__(self) -> str:
        return f"<FOT {len(self)} entries>"
