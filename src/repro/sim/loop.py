"""Deterministic discrete-event simulation kernel.

The entire reproduction runs on simulated time: network links, switches,
hosts, discovery protocols, and placement engines are all processes driven
by a single :class:`Simulator`.  Time is measured in *microseconds* (float)
to match the units the paper reports in Figures 2 and 3.

The kernel is deliberately small and dependency-free: a binary heap of
scheduled callbacks, plus generator-based processes in the style of SimPy.
Determinism matters more than raw speed here — every experiment must be
exactly reproducible from a seed.

A scheduled event *is* its heap entry, the list ``[time, seq, callback,
args]``: ``schedule`` returns it as the handle, and
:meth:`Simulator.cancel` empties its ``callback`` slot.  Lists compare
element by element at C speed and ``seq`` is unique, so the heap never
looks past the first two slots (:meth:`Simulator.reschedule` keeps the
one case of a shared ``seq`` apart).
"""

from __future__ import annotations

import heapq
import itertools
import random
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "AllOf",
    "SimError",
]

# Microsecond helpers: the simulation clock unit is 1.0 == 1 microsecond.
USEC = 1.0
MSEC = 1_000.0
SEC = 1_000_000.0


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Waitable:
    """Base class for things a process may ``yield`` on.

    Subclasses implement :meth:`_subscribe`, which must arrange for
    ``process._resume(value)`` (or ``process._throw(exc)``) to be called
    exactly once when the waitable completes.
    """

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` simulated microseconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        # Inlined sim.schedule: the delay was validated in __init__.  A
        # process's own sleep never lands here (Process._step pushes a
        # plain Timeout itself); an AllOf child does.
        heappush(sim._heap, [sim.now + self.delay, next(sim._seq),
                             process._resume, (self.value,)])


class Signal(Waitable):
    """A one-shot or repeating broadcast event processes can wait on.

    ``trigger(value)`` wakes every currently-waiting process with ``value``.
    A Signal may be triggered repeatedly; each trigger wakes the waiters
    registered since the previous trigger.
    """

    __slots__ = ("_sim", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self._waiters: List[Process] = []
        self.name = name

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        self._waiters.append(process)

    def trigger(self, value: Any = None) -> int:
        """Wake all waiting processes; returns the number woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim.schedule(0.0, proc._resume, value)
        return len(waiters)

    def fail(self, exc: BaseException) -> int:
        """Wake all waiting processes by raising ``exc`` inside them."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim.schedule(0.0, proc._throw, exc)
        return len(waiters)


class AllOf(Waitable):
    """Wait until every child waitable has completed.

    Resumes with a list of child results in the order given.  Children must
    be :class:`Process` or :class:`Timeout` instances (things that complete
    exactly once).
    """

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        results: List[Any] = [None] * len(self.children)
        remaining = [len(self.children)]
        if not self.children:
            sim.schedule(0.0, process._resume, [])
            return

        def make_collector(index: int) -> Callable[[Any], None]:
            def collect(value: Any) -> None:
                results[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    process._resume(results)

            return collect

        for i, child in enumerate(self.children):
            _subscribe_callback(sim, child, make_collector(i))


def _subscribe_callback(sim: "Simulator", child: Waitable,
                        callback: Callable[[Any], None]) -> None:
    """Attach a plain callback to a child waitable (used by combinators).

    Works for any waitable because ``_subscribe`` implementations only
    ever call ``process._resume(value)`` / ``process._throw(exc)`` (or
    schedule them), which the shim below also provides.  Failures of a
    child inside a combinator surface as a ``(value=exception)`` resume —
    combinator users race successes, not errors.
    """
    child._subscribe(sim, _CallbackShim(callback))  # type: ignore[arg-type]


class _CallbackShim:
    """Quacks like a Process for waitable wake-ups: runs a callback."""

    __slots__ = ("_callback", "finished")

    def __init__(self, callback: Callable[[Any], None]):
        self._callback = callback
        self.finished = False

    def _resume(self, value: Any) -> None:
        self._callback(value)

    def _throw(self, exc: BaseException) -> None:
        self._callback(exc)


class Process(Waitable):
    """A generator-based simulated process.

    The generator yields :class:`Waitable` objects; each yield suspends the
    process until the waitable completes, and the waitable's value becomes
    the result of the yield expression.  A ``return value`` inside the
    generator becomes :attr:`result` and is delivered to any process
    waiting on this one.
    """

    _ids = itertools.count()

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.pid = next(Process._ids)
        self.name = name or getattr(gen, "__name__", f"proc-{self.pid}")
        self.finished = False
        self.failed: Optional[BaseException] = None
        self.result: Any = None
        self._completion_callbacks: List[Callable[[Any], None]] = []
        self._waiting_procs: List[Process] = []

    # -- waitable protocol -------------------------------------------------
    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        if self.finished:
            if self.failed is not None:
                sim.schedule(0.0, process._throw, self.failed)
            else:
                sim.schedule(0.0, process._resume, self.result)
        else:
            self._waiting_procs.append(process)

    # -- lifecycle ---------------------------------------------------------
    def _step(self, send_value: Any = None, throw_exc: Optional[BaseException] = None) -> None:
        try:
            if throw_exc is not None:
                target = self.gen.throw(throw_exc)
            else:
                target = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except Exception as exc:
            self._fail(exc)
            return
        # Fast path for the overwhelmingly common yield: a plain Timeout.
        # Skips the isinstance check and the _subscribe indirection.
        if target.__class__ is Timeout:
            sim = self.sim
            heappush(sim._heap, [sim.now + target.delay, next(sim._seq),
                                 self._resume, (target.value,)])
            return
        if not isinstance(target, Waitable):
            self._fail(SimError(f"process {self.name} yielded non-waitable {target!r}"))
            return
        target._subscribe(self.sim, self)

    def _resume(self, value: Any) -> None:
        if not self.finished:
            self._step(send_value=value)

    def _throw(self, exc: BaseException) -> None:
        if not self.finished:
            self._step(throw_exc=exc)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        for proc in self._waiting_procs:
            self.sim.schedule(0.0, proc._resume, result)
        for callback in self._completion_callbacks:
            self.sim.schedule(0.0, callback, result)
        self._waiting_procs = []
        self._completion_callbacks = []

    def _fail(self, exc: BaseException) -> None:
        self.finished = True
        self.failed = exc
        if not self._waiting_procs and not self._completion_callbacks:
            # No one is waiting: surface the failure instead of losing it.
            self.sim._crashed_processes.append(self)
            return
        for proc in self._waiting_procs:
            self.sim.schedule(0.0, proc._throw, exc)
        for callback in self._completion_callbacks:
            self.sim.schedule(0.0, callback, None)
        self._waiting_procs = []
        self._completion_callbacks = []

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Process {self.name} pid={self.pid} {state}>"


class Simulator:
    """The event loop: a clock, a heap of callbacks, and a seeded RNG.

    Each heap entry is the event itself, ``[time, seq, callback, args]``
    (module docstring).  Cancelled events are skipped lazily at
    dispatch, and the heap is compacted in place whenever more than 8
    cancelled entries outnumber the live ones (see :meth:`cancel`).
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._cancelled_count = 0
        self._crashed_processes: List[Process] = []
        # Callbacks run so far, brought up to date whenever ``run`` returns:
        # the kernel's own cost counter, exact for a seed on any machine.
        self.events_dispatched = 0

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> list:
        """Run ``callback(*args)`` after ``delay`` simulated microseconds."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + delay, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> list:
        """Run ``callback(*args)`` at absolute simulated time ``time``.

        ``time`` itself is the event's instant; ``now + (time - now)``
        can round one ulp away from it.
        """
        if time < self.now:
            raise SimError(f"cannot schedule in the past (time={time}, now={self.now})")
        entry = [time, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Prevent the event ``entry`` from firing.  Idempotent.

        Cancelling drops the callback and its arguments at once (mass-
        cancelled timers must not pin their closures) and compacts the
        heap once more than 8 cancelled entries outnumber the live ones
        — a cancelled timer never lingers until its deadline just to be
        skipped, dragged through every pop on the way.  Compaction
        rewrites ``_heap`` *in place* (the dispatch loop holds a
        reference to the list) and re-heapifies: O(live) instead of
        O(log n) per dead entry at its deadline.  The floor of 8 keeps a
        heap of a few live events from compacting on every cancel.
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled_count += 1
        heap = self._heap
        if self._cancelled_count > 8 and self._cancelled_count * 2 > len(heap):
            heap[:] = [live for live in heap if live[2] is not None]
            heapq.heapify(heap)
            self._cancelled_count = 0

    def reschedule(self, entry: list, time: float, callback: Callable,
                   *args: Any) -> list:
        """Replace pending ``entry`` by ``callback(*args)`` at absolute
        ``time``, in the same-instant rank ``entry`` was scheduled with:
        the replacement runs where an event scheduled then would have."""
        if time < self.now:
            raise SimError(f"cannot schedule in the past (time={time}, now={self.now})")
        if time == entry[0]:
            # Same key: rewritten in place, since a cancelled twin with
            # an equal (time, seq) would make the heap compare callbacks.
            entry[2], entry[3] = callback, args
            return entry
        self.cancel(entry)
        seq = entry[1]
        # An earlier reschedule may have left this event's cancelled
        # original at ``time``: the same twin, so revive it.  One heap
        # scan; only link reconfiguration reschedules.
        for twin in self._heap:
            if twin[1] == seq and twin[0] == time:
                twin[2], twin[3] = callback, args
                self._cancelled_count -= 1
                return twin
        moved = [time, seq, callback, args]
        heappush(self._heap, moved)
        return moved

    def pending(self, callback: Callable) -> List[list]:
        """The live events that will run ``callback`` (scans the heap)."""
        return [entry for entry in self._heap if entry[2] == callback]

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it takes its first step
        at the current simulation time (via a zero-delay event)."""
        process = Process(self, gen, name=name)
        self.schedule(0.0, process._step)
        return process

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` bound to this simulator."""
        return Timeout(delay, value)

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the heap drains or the clock passes ``until``.

        Returns the final simulation time.  Raises if any process died
        with an unhandled exception and nobody was waiting on it.
        """
        # Dispatch loop: everything per-event is hoisted to locals.
        # ``heap`` aliases self._heap, which compaction mutates in place,
        # so the alias stays valid across callbacks that cancel events.
        heap = self._heap
        pop = heapq.heappop
        crashed_processes = self._crashed_processes
        bounded = until is not None
        processed = 0
        try:
            while heap:
                time, _, callback, args = heap[0]
                if callback is None:
                    pop(heap)
                    if self._cancelled_count > 0:
                        self._cancelled_count -= 1
                    continue
                if bounded and time > until:
                    self.now = until
                    break
                pop(heap)
                self.now = time
                callback(*args)
                processed += 1
                if processed > max_events:
                    raise SimError(f"exceeded max_events={max_events}; runaway simulation?")
                if crashed_processes:
                    crashed = crashed_processes[0]
                    raise SimError(
                        f"process {crashed.name!r} crashed at t={self.now:.3f}us"
                    ) from crashed.failed
            else:
                if bounded:
                    self.now = max(self.now, until)
        finally:
            self.events_dispatched += processed
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation, and return the process result.

        Convenience for tests and benchmarks: raises the process's own
        exception if it failed.
        """
        process = self.spawn(gen, name=name)
        self.run()
        if process.failed is not None:
            raise process.failed
        if not process.finished:
            raise SimError(f"process {process.name!r} did not finish by t={self.now}")
        return process.result

    @property
    def pending_event_count(self) -> int:
        """Scheduled events not yet fired or cancelled."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def __repr__(self) -> str:
        return f"<Simulator t={self.now:.3f}us pending={self.pending_event_count}>"
