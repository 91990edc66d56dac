"""The coherence-backed proxy resolver.

Adapts a :class:`~repro.memproto.coherence.CoherenceAgent` to the
resolver protocol of :class:`repro.core.proxies.ProxyCache`, closing the
loop PROXIES.md describes:

* **resolve_many** acquires Shared copies of whole objects in one
  batched acquisition per home (:meth:`CoherenceAgent.read_objects`), so
  a reachability-walk level costs one acquire/grant packet pair per home
  instead of one per object;
* **store** goes through :meth:`CoherenceAgent.write` — the Modified
  acquisition *is* the ownership transfer: every other copy holder is
  probed and invalidated before the proxy's first mutation lands;
* pushed **invalidations** propagate: when a probe drops the agent's
  cache entry, the registered proxy caches drop their derived bytes in
  the same instant, so a proxy never serves stale data.

Objects can be hosted either as raw byte blobs (``wire_images=False``;
no FOT, so reachability walks stop at the roots) or as full
:meth:`MemObject.to_wire` images (the default), in which case the
resolver parses the header + FOT once per fetch and hands proxies the
*payload* bytes — proxy offsets stay payload offsets, and FOT edges and
external pointers resolve exactly as they would against the resident
object.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from ..core.objectid import ObjectID
from ..core.objects import MemObject
from ..core.pointers import InvariantPointer
from .coherence import CoherenceAgent

__all__ = ["CoherentProxyResolver"]

# MemObject.to_wire header: oid(16) + size(8) + version(8) + kind(1) + fot_len(4)
_WIRE_HEADER_BYTES = 37


class CoherentProxyResolver:
    """Bridge between a :class:`ProxyCache` and a :class:`CoherenceAgent`."""

    def __init__(self, agent: CoherenceAgent, wire_images: bool = True):
        self.agent = agent
        self.wire_images = wire_images
        self._parsed: Dict[ObjectID, MemObject] = {}
        # Payload offset inside the wire image, kept across invalidations
        # (the FOT region of an object never moves under payload writes).
        self._payload_at: Dict[ObjectID, int] = {}
        self._listeners: List[Callable[[ObjectID], None]] = []
        agent.add_invalidation_listener(self._on_agent_invalidate)

    # -- resolver protocol (see repro.core.proxies) --------------------------
    def register_invalidation(self, callback: Callable[[ObjectID], None]) -> None:
        """ProxyCache hook: forward agent-side probe invalidations."""
        self._listeners.append(callback)

    def resolve_many(self, oids: Iterable[ObjectID]):
        """Process: batched Shared acquisition of whole objects; returns
        ``{oid: payload bytes}`` (raw blob bytes when not wire images)."""
        oids = list(oids)
        images = yield from self.agent.read_objects(oids)
        if not self.wire_images:
            return images
        out: Dict[ObjectID, bytes] = {}
        for oid, image in images.items():
            obj = self._parse(oid, image)
            out[oid] = obj.read(0, obj.size)
        return out

    def store(self, oid: ObjectID, offset: int, data: bytes):
        """Process: exclusive write-through — the Modified acquisition
        invalidates every other copy before the store is applied."""
        at = offset
        if self.wire_images:
            payload_at = self._payload_at.get(oid)
            if payload_at is None:
                # Never resolved through us: fetch once to learn the layout.
                images = yield from self.agent.read_objects([oid])
                self._parse(oid, images[oid])
                payload_at = self._payload_at[oid]
            at = payload_at + offset
        yield from self.agent.write(oid, at, data)
        obj = self._parsed.get(oid)
        if obj is not None:
            obj.write(offset, data)
        return True

    def successors(self, oid: ObjectID, image: bytes) -> List[ObjectID]:
        """FOT targets of a resolved object (empty for raw blobs)."""
        if not self.wire_images:
            return []
        obj = self._parsed.get(oid)
        return obj.targets() if obj is not None else []

    def resolve_pointer(self, oid: ObjectID, pointer: InvariantPointer,
                        image: bytes) -> Tuple[ObjectID, int]:
        """External-pointer resolution through the parsed FOT."""
        obj = self._parsed.get(oid)
        if obj is None:
            raise ValueError(
                f"cannot resolve a pointer out of unparsed object {oid.short()}")
        return obj.resolve(pointer)

    # -- internals -----------------------------------------------------------
    def _parse(self, oid: ObjectID, image: bytes) -> MemObject:
        obj = MemObject.from_wire(image, oid)
        self._parsed[oid] = obj
        self._payload_at[oid] = len(image) - obj.size
        return obj

    def _on_agent_invalidate(self, oid: ObjectID) -> None:
        self._parsed.pop(oid, None)
        for callback in self._listeners:
            callback(oid)
