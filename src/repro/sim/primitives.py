"""Synchronization primitives built on the simulation kernel.

These are the building blocks the network substrate uses: message queues
between NICs and protocol handlers (:class:`Store`), capacity-limited
resources such as serving slots on a host (:class:`Resource`), and
single-assignment futures many processes may wait on (:class:`Future`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .loop import Process, SimError, Simulator, Waitable

__all__ = ["Store", "Resource", "Future"]


class _StoreGet(Waitable):
    """Waitable returned by :meth:`Store.get`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        self.store = store

    def _subscribe(self, sim: Simulator, process: Process) -> None:
        if self.store._items:
            sim.schedule(0.0, process._resume, self.store._items.popleft())
        else:
            self.store._getters.append(process)


class Store:
    """An unbounded FIFO queue between simulated processes.

    ``put_nowait`` enqueues immediately; ``yield store.get()`` blocks the
    calling process until an item is available.  Delivery order is
    strictly FIFO for both items and waiting getters, which keeps
    simulations deterministic.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()

    def put_nowait(self, item: Any) -> None:
        """Hand ``item`` to the first waiting getter, or buffer it."""
        if self._getters:
            self.sim.schedule(0.0, self._getters.popleft()._resume, item)
        else:
            self._items.append(item)

    def get(self) -> _StoreGet:
        """Waitable get: resumes with the next item in FIFO order."""
        return _StoreGet(self)

    def get_nowait(self) -> Any:
        """Dequeue immediately; raises :class:`SimError` when empty."""
        if not self._items:
            raise SimError(f"store {self.name!r} empty")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Processes blocked in ``get()``."""
        return len(self._getters)


class _ResourceAcquire(Waitable):
    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource

    def _subscribe(self, sim: Simulator, process: Process) -> None:
        if self.resource._in_use < self.resource.capacity:
            self.resource._in_use += 1
            sim.schedule(0.0, process._resume, None)
        else:
            self.resource._waiters.append(process)


class Resource:
    """Counting semaphore: at most ``capacity`` concurrent holders.

    Models limited serving slots (e.g., Bob's overloaded inference
    executors in the Section 2 scenario).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimError(f"resource capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Process] = deque()

    def acquire(self) -> _ResourceAcquire:
        """Waitable acquire; FIFO among waiters."""
        return _ResourceAcquire(self)

    def release(self) -> None:
        """Release a holder; returns follow-on grants to deliver."""
        if self._in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            self.sim.schedule(0.0, waiter._resume, None)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        """Capacity slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Processes waiting to acquire."""
        return len(self._waiters)


class Future(Waitable):
    """Single-assignment result cell any number of processes may yield on.

    The producer calls :meth:`set_result` (or :meth:`set_exception`)
    exactly once: a coherence grant, bus credit, a prefetch batch.  One
    packet answering one packet is ``Host.request``, not a Future.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: List[Process] = []

    def _subscribe(self, sim: Simulator, process: Process) -> None:
        if self.done:
            if self._exc is not None:
                sim.schedule(0.0, process._throw, self._exc)
            else:
                sim.schedule(0.0, process._resume, self._value)
        else:
            self._waiters.append(process)

    def set_result(self, value: Any) -> None:
        """Complete the future with ``value`` (exactly once)."""
        if self.done:
            raise SimError(f"future {self.name!r} already completed")
        self.done = True
        self._value = value
        for proc in self._waiters:
            self.sim.schedule(0.0, proc._resume, value)
        self._waiters = []

    def set_exception(self, exc: BaseException) -> None:
        """Complete the future by raising ``exc`` in waiters."""
        if self.done:
            raise SimError(f"future {self.name!r} already completed")
        self.done = True
        self._exc = exc
        for proc in self._waiters:
            self.sim.schedule(0.0, proc._throw, exc)
        self._waiters = []

    @property
    def value(self) -> Any:
        """The current value."""
        if not self.done:
            raise SimError(f"future {self.name!r} not yet completed")
        if self._exc is not None:
            raise self._exc
        return self._value
