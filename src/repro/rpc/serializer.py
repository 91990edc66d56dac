"""Wire serialization for the RPC baseline.

RPC systems must flatten structured arguments into bytes and rebuild
them on the far side — the cost the paper's §2 pins at "as much as 70%
of the processing time" for sparse-model serving.  This is a *real*
serializer (tag-length-value over Python scalars, bytes, lists, dicts),
not a stub: encode and decode genuinely walk the value, so E4's
host-time comparison with an image parse measures actual work, while the
:class:`SerializationClock` translates byte counts into simulated time
using the shared cost model.

Contrast with :meth:`repro.core.objects.MemObject.to_wire`: an object
image copy is a single byte-level move with no per-field walk.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple, Union

from ..core.costmodel import DEFAULT_COST_MODEL

__all__ = ["encode", "decode", "encoded_size", "SerializeError", "SerializationClock"]


class SerializeError(Exception):
    """Raised for unsupported types or corrupt wire data."""


# Type tags.
_T_NONE = 0
_T_INT = 1
_T_FLOAT = 2
_T_BYTES = 3
_T_STR = 4
_T_LIST = 5
_T_DICT = 6
_T_BOOL = 7


def encode(value: Any) -> bytes:
    """Serialize ``value`` into a self-describing byte string."""
    parts: List[bytes] = []
    _encode_into(value, parts)
    return b"".join(parts)


def _encode_into(value: Any, parts: List[bytes]) -> None:
    if value is None:
        parts.append(struct.pack(">B", _T_NONE))
    elif isinstance(value, bool):  # must precede int check
        parts.append(struct.pack(">BB", _T_BOOL, int(value)))
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        parts.append(struct.pack(">BI", _T_INT, len(raw)))
        parts.append(raw)
    elif isinstance(value, float):
        parts.append(struct.pack(">Bd", _T_FLOAT, value))
    elif isinstance(value, (bytes, bytearray)):
        parts.append(struct.pack(">BI", _T_BYTES, len(value)))
        parts.append(bytes(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(struct.pack(">BI", _T_STR, len(raw)))
        parts.append(raw)
    elif isinstance(value, (list, tuple)):
        parts.append(struct.pack(">BI", _T_LIST, len(value)))
        for item in value:
            _encode_into(item, parts)
    elif isinstance(value, dict):
        parts.append(struct.pack(">BI", _T_DICT, len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializeError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, parts)
            _encode_into(item, parts)
    else:
        raise SerializeError(f"unsupported type: {type(value).__name__}")


def decode(raw: Union[bytes, bytearray]) -> Any:
    """Rebuild the value encoded by :func:`encode`."""
    value, consumed = _decode_from(bytes(raw), 0)
    if consumed != len(raw):
        raise SerializeError(f"trailing bytes: {len(raw) - consumed}")
    return value


def _decode_from(raw: bytes, at: int) -> Tuple[Any, int]:
    if at >= len(raw):
        raise SerializeError("truncated value")
    tag = raw[at]
    at += 1
    if tag == _T_NONE:
        return None, at
    if tag == _T_BOOL:
        return bool(raw[at]), at + 1
    if tag == _T_FLOAT:
        return struct.unpack_from(">d", raw, at)[0], at + 8
    if tag in (_T_INT, _T_BYTES, _T_STR, _T_LIST, _T_DICT):
        (length,) = struct.unpack_from(">I", raw, at)
        at += 4
        if tag == _T_INT:
            end = at + length
            return int.from_bytes(raw[at:end], "big", signed=True), end
        if tag == _T_BYTES:
            end = at + length
            if end > len(raw):
                raise SerializeError("truncated bytes")
            return raw[at:end], end
        if tag == _T_STR:
            end = at + length
            return raw[at:end].decode("utf-8"), end
        if tag == _T_LIST:
            items = []
            for _ in range(length):
                item, at = _decode_from(raw, at)
                items.append(item)
            return items, at
        entries: Dict[str, Any] = {}
        for _ in range(length):
            key, at = _decode_from(raw, at)
            value, at = _decode_from(raw, at)
            entries[key] = value
        return entries, at
    raise SerializeError(f"unknown tag {tag} at offset {at - 1}")


def encoded_size(value: Any) -> int:
    """Wire size of ``value`` without keeping the encoding around."""
    return len(encode(value))


class SerializationClock:
    """Translates marshalling work into simulated microseconds.

    The RPC stack charges ``serialize_us``/``deserialize_us`` per
    message; the object-space stack charges the cost model's
    ``byte_copy_time_us`` instead.
    Deserialization is the expensive side (allocation, pointer fix-up),
    per the §2 "70% of processing time" evidence.
    """

    def __init__(self):
        self.cost_model = DEFAULT_COST_MODEL
        self.bytes_serialized = 0
        self.bytes_deserialized = 0

    def serialize_us(self, nbytes: int) -> float:
        """Simulated serialization time for ``nbytes``."""
        self.bytes_serialized += nbytes
        return self.cost_model.serialize_time_us(nbytes)

    def deserialize_us(self, nbytes: int) -> float:
        """Simulated deserialization time for ``nbytes``."""
        self.bytes_deserialized += nbytes
        return self.cost_model.deserialize_time_us(nbytes)
