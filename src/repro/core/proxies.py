"""Lazy object proxies and FOT reachability prefetching.

§5 observes that once invocation arguments are globally-addressed
memory, "eagerly marshalling everything an RPC might touch" stops being
the only option: the fabric can hand the callee *lazy* handles and walk
the FOT reachability graph ahead of the access stream.  This module is
that subsystem (documented in PROXIES.md):

* :class:`ObjectProxy` — a transparent stand-in for the object behind a
  :class:`~repro.core.refs.GlobalRef`.  Nothing moves until the first
  dereference (``read``/``follow``/``read_all``); the resolved image is
  cached, and the first mutation transfers ownership to the caching side
  before the store is applied.
* :class:`ReachabilityPrefetcher` — an asynchronous walker that starts
  from the invocation's reference arguments and follows FOT edges
  breadth-first under configurable depth/fanout/object budgets, issuing
  batched resolutions so objects are already local when the access
  stream reaches them.
* :class:`ProxyCache` — the per-consumer table tying the two together:
  one proxy per object, shared in-flight futures (a dereference never
  duplicates a fetch the walker already issued), and the invalidation
  entry point the coherence/runtime layers push into so a proxy never
  serves stale bytes.

The cache is backed by a *resolver* supplied by a higher layer (the
runtime's node fetch path, or the memproto coherence agent via
:class:`repro.memproto.resolve.CoherentProxyResolver`); this module
never imports either, keeping the core layer dependency-free.  A
resolver provides four operations::

    resolve_many(oids)                  # process -> {oid: bytes image}
    store(oid, offset, data)            # process: exclusive write-through
    successors(oid, image)              # FOT targets of a resolved object
    resolve_pointer(oid, pointer, image)  # external pointer -> (oid, offset)

State machine (see PROXIES.md for the full transition table)::

    unresolved -> prefetch-inflight -> cached -> owned
         \\            |                  ^         |
          \\           v                  |         v
           +----->  cached          invalidated <--+
                  (demand/lazy)     (re-resolves on next dereference)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..sim import Future, Tracer
from .objectid import ObjectID
from .pointers import POINTER_BYTES, InvariantPointer
from .refs import GlobalRef

__all__ = [
    "ObjectProxy",
    "ProxyCache",
    "ProxyError",
    "PrefetchBudget",
    "ReachabilityPrefetcher",
    "PROXY_UNRESOLVED",
    "PROXY_PREFETCH_INFLIGHT",
    "PROXY_CACHED",
    "PROXY_OWNED",
    "PROXY_INVALIDATED",
]

# -- resolution states (the PROXIES.md state machine) -------------------------
PROXY_UNRESOLVED = "unresolved"
PROXY_PREFETCH_INFLIGHT = "prefetch-inflight"
PROXY_CACHED = "cached"
PROXY_OWNED = "owned"
PROXY_INVALIDATED = "invalidated"


class ProxyError(Exception):
    """Proxy-layer failures (dereference before bind, bad offsets...)."""


@dataclass(frozen=True)
class PrefetchBudget:
    """How far ahead of the access stream a reachability walk may run.

    ``depth`` bounds FOT hops beyond the roots (the roots themselves are
    level 0 and always eligible); ``fanout`` bounds how many FOT targets
    of any one object are followed; ``max_objects`` caps the total
    resolutions one walk may issue.
    """

    depth: int = 8
    fanout: int = 4
    max_objects: int = 64

    def __post_init__(self) -> None:
        if self.depth < 0 or self.fanout < 0 or self.max_objects < 0:
            raise ValueError("prefetch budgets must be non-negative")


class ObjectProxy:
    """A transparent, lazily resolved stand-in for one remote object.

    Obtained from :meth:`ProxyCache.proxy`; mobile code treats it like
    the object itself.  All accessors are generator processes — call
    them with ``yield from``.  Offsets are absolute within the object
    image (callers add ``proxy.ref.offset`` themselves, exactly as with
    :meth:`ExecutionContext.read`).
    """

    __slots__ = ("_cache", "_ref", "_state", "_data", "_epoch",
                 "_from_prefetch", "_classified")

    def __init__(self, cache: "ProxyCache", ref: GlobalRef):
        self._cache = cache
        self._ref = ref
        self._state = PROXY_UNRESOLVED
        self._data: Optional[bytearray] = None
        self._epoch = 0           # bumped by every invalidation
        self._from_prefetch = False
        self._classified = False  # first-touch resolve counter emitted?

    # -- inspection ----------------------------------------------------------
    @property
    def ref(self) -> GlobalRef:
        """The wrapped first-class reference."""
        return self._ref

    @property
    def oid(self) -> ObjectID:
        """Identity of the object this proxy stands in for."""
        return self._ref.oid

    @property
    def state(self) -> str:
        """Current resolution state (one of the ``PROXY_*`` constants)."""
        return self._state

    @property
    def resolved(self) -> bool:
        """Whether a dereference would complete without network traffic."""
        return self._state in (PROXY_CACHED, PROXY_OWNED)

    @property
    def size(self) -> int:
        """Image size in bytes; only meaningful once resolved."""
        if self._data is None:
            raise ProxyError(f"proxy for {self.oid.short()} is unresolved")
        return len(self._data)

    # -- dereference (generator processes) -----------------------------------
    def read(self, offset: int = 0, length: int = 64):
        """Process: resolve if needed, then return ``length`` bytes at
        ``offset`` of the object image."""
        yield from self._ensure()
        assert self._data is not None
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise ProxyError(
                f"range [{offset}:{offset + length}) out of bounds for "
                f"{self.oid.short()} ({len(self._data)} bytes)")
        return bytes(self._data[offset : offset + length])

    def read_all(self):
        """Process: resolve if needed, then return the whole image."""
        yield from self._ensure()
        assert self._data is not None
        return bytes(self._data)

    def write(self, data: bytes, offset: int = 0):
        """Process: apply a store through the proxy.

        The first mutation transfers ownership: the resolver acquires an
        exclusive copy (invalidating every other holder) before the
        store lands, so a proxied write is as coherent as a direct one.
        The cached image is updated in place — later reads through this
        proxy see the new bytes without further traffic.
        """
        if not self._ref.writable:
            raise ProxyError(f"reference {self._ref} is not writable")
        yield from self._ensure()
        assert self._data is not None
        if offset < 0 or offset + len(data) > len(self._data):
            raise ProxyError(
                f"write [{offset}:{offset + len(data)}) out of bounds for "
                f"{self.oid.short()} ({len(self._data)} bytes)")
        yield from self._cache.backend.store(self.oid, offset, bytes(data))
        self._data[offset : offset + len(data)] = data
        self._state = PROXY_OWNED
        return True

    def follow(self, pointer_offset: int):
        """Process: load the invariant pointer at ``pointer_offset`` and
        resolve it to a :class:`GlobalRef` (``None`` for null)."""
        raw = yield from self.read(pointer_offset, POINTER_BYTES)
        pointer = InvariantPointer.from_bytes(raw)
        if pointer.is_null:
            return None
        if pointer.is_internal:
            return GlobalRef(self.oid, pointer.offset, self._ref.mode)
        target_oid, target_offset = self._cache.backend.resolve_pointer(
            self.oid, pointer, bytes(self._data))
        return GlobalRef(target_oid, target_offset, self._ref.mode)

    def successors(self) -> List[ObjectID]:
        """FOT targets of the resolved object (the reachability edges)."""
        if not self.resolved:
            return []
        return self._cache.backend.successors(self.oid, bytes(self._data))

    # -- resolution machinery ------------------------------------------------
    def _classify(self) -> None:
        """Emit exactly one ``proxy.resolve.*`` counter per proxy, keyed
        to what the first resolution trigger found (decision table in
        PROXIES.md)."""
        if self._classified:
            return
        self._classified = True
        if self._state in (PROXY_CACHED, PROXY_OWNED):
            key = ("proxy.resolve.prefetch_hit" if self._from_prefetch
                   else "proxy.resolve.lazy")
        elif self._state == PROXY_PREFETCH_INFLIGHT:
            # The walker got here first but its batch has not landed:
            # the dereference waits on it instead of duplicating the
            # fetch — a partial win, counted as a miss.
            key = "proxy.resolve.prefetch_miss"
        else:
            key = "proxy.resolve.lazy"
        self._cache.tracer.count(key)

    def _ensure(self):
        """Process: drive the state machine until bytes are cached."""
        self._classify()
        while True:
            if self._state in (PROXY_CACHED, PROXY_OWNED):
                return
            inflight = self._cache.inflight(self.oid)
            if inflight is not None:
                yield inflight
                continue  # re-check: fill may have been discarded by a race
            # Unresolved or invalidated: demand-resolve.  If an
            # invalidation lands while the resolve is in flight the
            # epoch moves and we throw the image away and go again —
            # stale bytes are never installed.
            epoch = self._epoch
            images = yield from self._cache.backend.resolve_many([self.oid])
            if self._epoch != epoch:
                continue
            self._fill(images[self.oid], from_prefetch=False)
            return

    def _fill(self, image: bytes, from_prefetch: bool) -> None:
        self._data = bytearray(image)
        self._state = PROXY_CACHED
        self._from_prefetch = from_prefetch

    def _invalidate(self) -> None:
        self._epoch += 1
        self._data = None
        if self._state != PROXY_UNRESOLVED:
            self._state = PROXY_INVALIDATED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectProxy {self.oid.short()} {self._state}>"


class ProxyCache:
    """Per-consumer proxy table: one :class:`ObjectProxy` per object.

    ``backend`` is the resolver (see the module docstring for the
    protocol).  Layers that learn about remote mutations push
    :meth:`invalidate`; in-flight prefetch batches are tracked here so a
    dereference and the walker never race to fetch the same object
    twice.
    """

    def __init__(self, sim, backend, tracer: Optional[Tracer] = None,
                 budget: Optional[PrefetchBudget] = None):
        self.sim = sim
        self.backend = backend
        self.tracer = tracer or Tracer()
        self.budget = budget or PrefetchBudget()
        self._proxies: Dict[ObjectID, ObjectProxy] = {}
        self._inflight: Dict[ObjectID, Future] = {}
        register = getattr(backend, "register_invalidation", None)
        if register is not None:
            register(self.invalidate)

    def proxy(self, ref: GlobalRef) -> ObjectProxy:
        """The proxy for ``ref``'s object (created unresolved on first use).

        One proxy per object: a second reference into the same object
        shares the cached image (the returned proxy keeps the *first*
        binding's ref; offsets passed to ``read`` are absolute anyway).
        """
        proxy = self._proxies.get(ref.oid)
        if proxy is None:
            proxy = ObjectProxy(self, ref)
            self._proxies[ref.oid] = proxy
        return proxy

    def lookup(self, oid: ObjectID) -> Optional[ObjectProxy]:
        """The proxy for ``oid`` if one was ever handed out."""
        return self._proxies.get(oid)

    def inflight(self, oid: ObjectID) -> Optional[Future]:
        """The prefetch future covering ``oid``, if a walk has one open."""
        return self._inflight.get(oid)

    def invalidate(self, oid: ObjectID) -> bool:
        """Push-invalidate: drop any cached bytes for ``oid``.

        Called by the coherence agent when a probe lands, and by the
        runtime when another node takes ownership.  A proxy mid-prefetch
        moves its epoch forward so the landing batch is discarded rather
        than installed — a raced invalidation never leaves stale bytes
        behind.  Returns True if a proxy existed.
        """
        proxy = self._proxies.get(oid)
        if proxy is None:
            return False
        proxy._invalidate()
        return True

    def start_prefetch(self, roots: Iterable[GlobalRef],
                       budget: Optional[PrefetchBudget] = None):
        """Spawn a reachability walk from ``roots`` as a background
        process; returns the spawned process (a waitable)."""
        walker = ReachabilityPrefetcher(self, budget or self.budget)
        return self.sim.spawn(walker.walk(list(roots)), name="prefetch-walk")

    def settle(self) -> int:
        """End-of-run accounting: count prefetched-but-never-dereferenced
        proxies as ``prefetch.wasted``.  Returns the number found (and
        stops counting them twice by marking them classified)."""
        wasted = 0
        for proxy in self._proxies.values():
            if proxy._from_prefetch and not proxy._classified:
                proxy._classified = True
                self.tracer.count("prefetch.wasted")
                wasted += 1
        return wasted


class ReachabilityPrefetcher:
    """Breadth-first FOT walker issuing batched resolutions.

    One walk per invocation: level 0 is the argument roots; each later
    level is the (fanout-capped) union of the FOT targets of everything
    the previous level resolved.  Every object it decides to fetch is
    marked prefetch-inflight in the cache with a shared future, so the
    consumer's dereference joins the in-flight batch instead of racing
    it.  Budgets come from :class:`PrefetchBudget`; a walk cut short
    while reachable work remained counts ``prefetch.depth_truncated``.
    """

    def __init__(self, cache: ProxyCache, budget: Optional[PrefetchBudget] = None):
        self.cache = cache
        self.budget = budget or cache.budget
        self.issued = 0

    def walk(self, roots: Iterable[GlobalRef]):
        """Process: run the walk to completion (spawn via
        :meth:`ProxyCache.start_prefetch` to run it in the background)."""
        cache = self.cache
        budget = self.budget
        frontier: List[ObjectID] = []
        seen = set()
        for ref in roots:
            cache.proxy(ref)  # make sure a proxy exists for every root
            if ref.oid not in seen:
                seen.add(ref.oid)
                frontier.append(ref.oid)
        depth = 0
        while frontier:
            if depth > budget.depth or self.issued >= budget.max_objects:
                cache.tracer.count("prefetch.depth_truncated")
                return self.issued
            batch: List[ObjectID] = []
            for oid in frontier:
                if self.issued + len(batch) >= budget.max_objects:
                    break
                proxy = cache._proxies[oid]
                if proxy.resolved or cache.inflight(oid) is not None:
                    continue
                batch.append(oid)
            level = list(frontier)
            if batch:
                yield from self._resolve_batch(batch)
            self.issued += len(batch)
            # Next level: FOT targets of everything resolved at this
            # level, at most ``fanout`` per object, never revisited.
            frontier = []
            for oid in level:
                proxy = cache._proxies.get(oid)
                if proxy is None or not proxy.resolved:
                    continue
                for target in proxy.successors()[: budget.fanout]:
                    if target not in seen:
                        seen.add(target)
                        cache.proxy(GlobalRef(target, 0, "read"))
                        frontier.append(target)
            depth += 1
        return self.issued

    def _resolve_batch(self, oids: List[ObjectID]):
        cache = self.cache
        future = Future(cache.sim, name="prefetch-batch")
        epochs = {}
        for oid in oids:
            cache.tracer.count("prefetch.issued")
            proxy = cache._proxies[oid]
            proxy._state = PROXY_PREFETCH_INFLIGHT
            epochs[oid] = proxy._epoch
            cache._inflight[oid] = future
        try:
            images = yield from cache.backend.resolve_many(oids)
        finally:
            for oid in oids:
                if cache._inflight.get(oid) is future:
                    del cache._inflight[oid]
                proxy = cache._proxies[oid]
                if proxy._state == PROXY_PREFETCH_INFLIGHT:
                    proxy._state = PROXY_UNRESOLVED
            if not future.done:
                future.set_result(None)
        for oid in oids:
            proxy = cache._proxies[oid]
            if proxy._epoch != epochs[oid] or proxy.resolved:
                # Invalidated (or re-resolved) while the batch flew:
                # installing this image could serve stale bytes — drop
                # it and charge the walk for the wasted fetch.
                cache.tracer.count("prefetch.wasted")
                continue
            proxy._fill(images[oid], from_prefetch=True)
