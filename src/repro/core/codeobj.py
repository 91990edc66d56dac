"""Code objects: functions with identity in the global address space.

Per §5 ("Uniformity Between Code and Data"), code lives in the same
space as data and is referenceable from anywhere — there is no separate
mechanism for naming functions.  A code object is an ordinary object of
kind ``code`` whose payload records:

* the *entry name* — looked up in a :class:`FunctionRegistry` shared by
  all simulated hosts (standing in for a universal ISA / verified
  bytecode, the mechanism the paper leaves to future work);
* a synthetic *text size* — the number of bytes moving this code costs,
  so placement decisions can weigh code movement against data movement.

Moving a code object between hosts is the same byte-level copy as data;
executing it requires only that the code object be resident.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .objects import KIND_CODE, MemObject
from .refs import GlobalRef
from .space import ObjectSpace

__all__ = ["FunctionRegistry", "CodeError", "write_code_object", "read_code_entry"]

# Payload layout: 2B name length + name + 8B synthetic text size.
_NAME_LEN_BYTES = 2
_TEXT_SIZE_BYTES = 8


class CodeError(Exception):
    """Raised for unknown entries or malformed code objects."""


class FunctionRegistry:
    """Maps entry names to Python callables.

    One registry instance is shared across every simulated host in a
    cluster: it models the assumption that all nodes can execute the same
    instruction set.  What is *not* shared is residency — a host may only
    execute a function once the code object naming it is resident in its
    object space (that is the mobility the experiments measure).
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str, fn: Optional[Callable[..., Any]] = None):
        """Register ``fn`` under ``name``; usable as a decorator."""

        def _do_register(target: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._functions:
                raise CodeError(f"function {name!r} already registered")
            self._functions[name] = target
            return target

        if fn is None:
            return _do_register
        return _do_register(fn)

    def lookup(self, name: str) -> Callable[..., Any]:
        """Look up by name; raises if absent."""
        fn = self._functions.get(name)
        if fn is None:
            raise CodeError(f"no function registered under {name!r}")
        return fn

    def __contains__(self, name: str) -> bool:
        return name in self._functions


def write_code_object(
    space: ObjectSpace,
    entry_name: str,
    text_size: int,
    label: str = "",
) -> MemObject:
    """Create a code object in ``space`` for registry entry ``entry_name``.

    ``text_size`` is the synthetic code size in bytes: it sets both the
    object pool size (so byte-level copies cost proportionally) and the
    recorded metadata.
    """
    if not entry_name:
        raise CodeError("entry name must be non-empty")
    name_bytes = entry_name.encode("utf-8")
    if len(name_bytes) >= (1 << (8 * _NAME_LEN_BYTES)):
        raise CodeError("entry name too long")
    if text_size <= 0:
        raise CodeError(f"text size must be positive, got {text_size}")
    header = len(name_bytes).to_bytes(_NAME_LEN_BYTES, "big") + name_bytes
    header += text_size.to_bytes(_TEXT_SIZE_BYTES, "big")
    size = max(text_size, len(header))
    obj = space.create_object(size=size, kind=KIND_CODE, label=label or entry_name)
    obj.write(0, header)
    return obj


def read_code_entry(obj: MemObject) -> tuple:
    """Decode (entry_name, text_size) from a code object's payload."""
    if obj.kind != KIND_CODE:
        raise CodeError(f"object {obj.oid.short()} is not a code object")
    # The header parsed in place from the object's bytes (a code object
    # is its header padded to the text size).
    raw = obj.data
    name_end = _NAME_LEN_BYTES + int.from_bytes(raw[:_NAME_LEN_BYTES], "big")
    if len(raw) < name_end + _TEXT_SIZE_BYTES:
        raise CodeError(f"malformed code object {obj.oid.short()}: "
                        f"{len(raw)} bytes hold no {name_end}-byte name "
                        f"and text size")
    try:
        name = raw[_NAME_LEN_BYTES:name_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodeError(f"malformed code object {obj.oid.short()}: {exc}") from exc
    text_size = int.from_bytes(
        raw[name_end:name_end + _TEXT_SIZE_BYTES], "big")
    return name, text_size


def code_ref(obj: MemObject) -> GlobalRef:
    """A read-only global reference to a code object."""
    if obj.kind != KIND_CODE:
        raise CodeError(f"object {obj.oid.short()} is not a code object")
    return GlobalRef(obj.oid, 0, "read")
