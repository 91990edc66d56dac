"""Typed struct views over object memory.

Applications do not want to hand-pack bytes; they want records with named
fields, some of which are invariant pointers to other records (possibly
in other objects).  A :class:`StructLayout` describes a fixed-size record
in a machine-independent encoding (big-endian, explicit widths), and a
:class:`StructView` reads/writes one instance inside a :class:`MemObject`.

Because the encoding never embeds host addresses, a struct written on one
host parses identically on every other host — the property that makes the
byte-level copy path legal.
"""

from __future__ import annotations

import struct as _struct
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from .objects import MemObject
from .pointers import POINTER_BYTES, InvariantPointer

__all__ = ["Field", "StructLayout", "StructView", "LayoutError"]


class LayoutError(Exception):
    """Raised for malformed layouts or field access errors."""


# Field type -> (byte size, struct format or None for special handling).
_SCALAR_TYPES: Dict[str, Tuple[int, str]] = {
    "u8": (1, ">B"),
    "u16": (2, ">H"),
    "u32": (4, ">I"),
    "u64": (8, ">Q"),
    "i32": (4, ">i"),
    "i64": (8, ">q"),
    "f32": (4, ">f"),
    "f64": (8, ">d"),
}


@dataclass(frozen=True)
class Field:
    """One field: a name, a type, and (for ``bytes``) a fixed length.

    Types: the scalar set above, ``ptr`` (a 64-bit invariant pointer), or
    ``bytes`` with ``length`` set.
    """

    name: str
    type: str
    length: int = 0

    def __post_init__(self) -> None:
        if self.type in _SCALAR_TYPES or self.type == "ptr":
            if self.length:
                raise LayoutError(f"field {self.name!r}: only bytes fields take a length")
        elif self.type == "bytes":
            if self.length <= 0:
                raise LayoutError(f"field {self.name!r}: bytes fields need a positive length")
        else:
            raise LayoutError(f"field {self.name!r}: unknown type {self.type!r}")

    @property
    def size(self) -> int:
        """Size in bytes."""
        if self.type == "ptr":
            return POINTER_BYTES
        if self.type == "bytes":
            return self.length
        return _SCALAR_TYPES[self.type][0]


class StructLayout:
    """A fixed-size record layout: ordered named fields, no padding.

    The explicit big-endian encoding (rather than native struct order)
    is the machine-independence guarantee.
    """

    def __init__(self, name: str, fields: List[Field]):
        if not fields:
            raise LayoutError(f"layout {name!r} has no fields")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise LayoutError(f"layout {name!r} has duplicate field names")
        self.name = name
        self.fields = list(fields)
        self._offsets: Dict[str, int] = {}
        cursor = 0
        for field in self.fields:
            self._offsets[field.name] = cursor
            cursor += field.size
        self.size = cursor
        self._by_name = {f.name: f for f in self.fields}

    def offset_of(self, field_name: str) -> int:
        """Byte offset of ``field_name`` within the record."""
        if field_name not in self._offsets:
            raise LayoutError(f"layout {self.name!r} has no field {field_name!r}")
        return self._offsets[field_name]

    def field(self, field_name: str) -> Field:
        """Look up a field by name; raises if unknown."""
        if field_name not in self._by_name:
            raise LayoutError(f"layout {self.name!r} has no field {field_name!r}")
        return self._by_name[field_name]

    def allocate_in(self, obj: MemObject) -> "StructView":
        """Reserve space for one record inside ``obj`` and return its view."""
        offset = obj.alloc(self.size)
        return StructView(self, obj, offset)

    def view(self, obj: MemObject, offset: int) -> "StructView":
        """View an existing record at ``offset`` inside ``obj``."""
        return StructView(self, obj, offset)

    def __repr__(self) -> str:
        return f"<StructLayout {self.name} size={self.size} fields={len(self.fields)}>"


class StructView:
    """Read/write access to one record instance inside an object."""

    def __init__(self, layout: StructLayout, obj: MemObject, offset: int):
        if offset < 0 or offset + layout.size > obj.size:
            raise LayoutError(
                f"record {layout.name!r} at {offset} does not fit in object "
                f"{obj.oid.short()} (size {obj.size})"
            )
        self.layout = layout
        self.obj = obj
        self.offset = offset

    def _field_offset(self, field_name: str) -> Tuple[Field, int]:
        field = self.layout.field(field_name)
        return field, self.offset + self.layout.offset_of(field_name)

    def get(self, field_name: str) -> Any:
        """Read one field; pointers come back as :class:`InvariantPointer`."""
        field, at = self._field_offset(field_name)
        raw = self.obj.read(at, field.size)
        if field.type == "ptr":
            return InvariantPointer.from_bytes(raw)
        if field.type == "bytes":
            return raw
        return _struct.unpack(_SCALAR_TYPES[field.type][1], raw)[0]

    def set(self, field_name: str, value: Any) -> None:
        """Write one field; accepts ints/floats/bytes/pointers per type."""
        field, at = self._field_offset(field_name)
        if field.type == "ptr":
            if not isinstance(value, InvariantPointer):
                raise LayoutError(f"field {field_name!r} requires an InvariantPointer")
            self.obj.write(at, value.to_bytes())
        elif field.type == "bytes":
            if not isinstance(value, (bytes, bytearray)):
                raise LayoutError(f"field {field_name!r} requires bytes")
            if len(value) > field.length:
                raise LayoutError(
                    f"field {field_name!r}: {len(value)} bytes exceeds capacity {field.length}"
                )
            padded = bytes(value) + b"\x00" * (field.length - len(value))
            self.obj.write(at, padded)
        else:
            try:
                self.obj.write(at, _struct.pack(_SCALAR_TYPES[field.type][1], value))
            except _struct.error as exc:
                raise LayoutError(f"field {field_name!r}: {exc}") from exc

    def set_pointer_to(
        self,
        field_name: str,
        target: Union[MemObject, "StructView"],
        target_offset: int = 0,
    ) -> InvariantPointer:
        """Point a ptr field at another record or raw object offset.

        Passing a :class:`StructView` targets that record's own offset;
        the FOT entry is created automatically for cross-object pointers.
        """
        field, at = self._field_offset(field_name)
        if field.type != "ptr":
            raise LayoutError(f"field {field_name!r} is not a pointer field")
        if isinstance(target, StructView):
            return self.obj.point_to(at, target.obj, target.offset)
        return self.obj.point_to(at, target, target_offset)

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot all fields — handy in tests."""
        return {field.name: self.get(field.name) for field in self.layout.fields}

    def __repr__(self) -> str:
        return (
            f"<StructView {self.layout.name} @ {self.obj.oid.short()}+{self.offset:#x}>"
        )
