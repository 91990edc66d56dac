"""Spans: simulated-time intervals linked into per-invocation trees.

A :class:`Span` is one named phase of a larger operation — the placement
decision inside an invocation, one stage-in fetch, the compute window —
with start/end timestamps taken from the *simulation* clock, a parent
link, and free-form tags.  The :class:`SpanRecorder` allocates span and
trace identifiers and holds the spans of the traces it retains; the
exporters in :mod:`repro.obs.export` turn its contents into JSON lines
or a Chrome ``trace_event`` file.

The rendezvous runtime emits one span tree per invocation (root span
``invoke``, trace id = the invocation id), so a cross-host flow that
touches placement, the network, and a remote executor reads as a single
timeline.  Because every component shares one simulator — and therefore
one recorder — a span may be *started* on one host and *finished* on
another: that is how the ``request`` and ``return`` phases measure the
wire legs of a remote execution.

Memory is bounded by the traces in flight, not by the length of the
run.  Every span of a trace is kept while its root is open.  Once the
root finishes, the trace is kept only while it is among the last
:data:`KEEP_RECENT` finished traces or among the :data:`KEEP_SLOWEST`
slowest roots finished so far (the tail exemplars); every other trace
is dropped whole.

All durations are simulated microseconds; see OBSERVABILITY.md for the
canonical span names and the unit rules.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set,
                    Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["Span", "SpanRecorder"]

#: Finished traces kept because they are among the most recent.
KEEP_RECENT = 256
#: Finished traces kept because their roots are among the slowest so far.
KEEP_SLOWEST = 32

_new_span = object.__new__


class Span:
    """One named interval of simulated time, with a parent link and tags.

    ``end_us`` is ``None`` until :meth:`SpanRecorder.finish` closes it;
    an unfinished span usually means the operation it covered failed
    mid-flight (the root span's ``error`` tag says how).
    """

    __slots__ = ("span_id", "name", "trace_id", "start_us", "end_us",
                 "parent_id", "node", "tags")

    def __init__(self, span_id: int, name: str, trace_id: int,
                 start_us: float, end_us: Optional[float] = None,
                 parent_id: Optional[int] = None, node: str = "",
                 tags: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.name = name
        self.trace_id = trace_id
        self.start_us = start_us
        self.end_us = end_us
        self.parent_id = parent_id
        self.node = node
        self.tags = {} if tags is None else tags

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has stamped the end time."""
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        """``end - start`` in simulated microseconds; raises if open."""
        if self.end_us is None:
            raise ValueError(f"span {self.name!r} (#{self.span_id}) is not finished")
        return self.end_us - self.start_us

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot (what the JSONL exporter writes)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "trace_id": self.trace_id,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "parent_id": self.parent_id,
            "node": self.node,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return (f"Span(span_id={self.span_id}, name={self.name!r}, "
                f"trace_id={self.trace_id}, start_us={self.start_us}, "
                f"end_us={self.end_us}, parent_id={self.parent_id}, "
                f"node={self.node!r}, tags={self.tags!r})")


class SpanRecorder:
    """Allocates spans and keeps, indexed by trace, the traces it retains.

    One recorder per :class:`~repro.sim.Simulator` is the intended shape
    (the runtime owns one); timestamps always come from ``sim.now``, so
    span ordering is exactly event-loop ordering.  Which traces are kept
    is stated in the module docstring; lookups see retained traces only.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Trace id -> its spans in start order; the first is the root.
        self._traces: Dict[int, List[Span]] = {}
        self._by_id: Dict[int, Span] = {}
        self._recent: Deque[int] = deque()
        # Min-heap of (root duration, finish sequence, trace id).
        self._slowest: List[Tuple[float, int, int]] = []
        self._exemplars: Set[int] = set()
        self._n_retired = 0
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        # Lookups by id are the index's own methods, with no Python frame
        # (ids cross hosts in packet payloads, so every remote phase
        # looks spans up).  ``get(span_id)`` raises ``KeyError`` if the
        # span is unknown or dropped; ``find(span_id)`` returns ``None``.
        self.get = self._by_id.__getitem__
        self.find = self._by_id.get

    # -- recording -----------------------------------------------------------
    def start(self, name: str, *, parent: Optional[Union[Span, int]] = None,
              trace_id: Optional[int] = None, node: str = "",
              **tags: Any) -> Span:
        """Open a span at the current simulated instant.

        ``parent`` may be a :class:`Span` or a span id (ids travel in
        packet payloads for cross-host phases).  ``trace_id`` defaults to
        the parent's trace, or a fresh trace for a root span.  A child
        whose trace has been dropped is returned but not kept.
        """
        if parent is None:
            parent_id = None
            if trace_id is None:
                trace_id = next(self._trace_ids)
        else:
            if isinstance(parent, int):
                parent = self._by_id[parent]
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        # Built without a call to Span.__init__ (here and in point): a
        # traced invocation makes seven spans.
        span = _new_span(Span)
        span.span_id = span_id = next(self._span_ids)
        span.name = name
        span.trace_id = trace_id
        span.start_us = self.sim.now
        span.end_us = None
        span.parent_id = parent_id
        span.node = node
        span.tags = tags
        trace = self._traces.get(trace_id)
        if trace is None:
            if parent_id is not None:
                return span
            trace = self._traces[trace_id] = []
        trace.append(span)
        self._by_id[span_id] = span
        return span

    def point(self, name: str, parent: Span, node: str,
              tags: Dict[str, Any]) -> Span:
        """A zero-width child of ``parent`` at the current instant: what
        ``start(name, parent=parent, node=node)`` and then ``finish``
        with ``tags`` record, in one call."""
        span = _new_span(Span)
        span.span_id = span_id = next(self._span_ids)
        span.name = name
        span.trace_id = trace_id = parent.trace_id
        span.start_us = span.end_us = self.sim.now
        span.parent_id = parent.span_id
        span.node = node
        span.tags = tags
        trace = self._traces.get(trace_id)
        if trace is not None:
            trace.append(span)
            self._by_id[span_id] = span
        return span

    def finish(self, span: Span, **tags: Any) -> Span:
        """Close ``span`` at the current simulated instant (idempotent
        guard: finishing twice is an error — phases do not reopen)."""
        if span.end_us is not None:
            raise ValueError(f"span {span.name!r} (#{span.span_id}) already finished")
        span.end_us = self.sim.now
        if tags:
            span.tags.update(tags)
        if span.parent_id is None:
            trace = self._traces.get(span.trace_id)
            if trace is not None and trace[0] is span:
                self._retire(span)
        return span

    def _retire(self, root: Span) -> None:
        """``root`` just finished: its trace joins the recent window and,
        if slow enough, the exemplars; a trace that leaves the one and is
        not in the other is dropped."""
        trace_id = root.trace_id
        self._n_retired += 1
        self._recent.append(trace_id)
        if len(self._recent) > KEEP_RECENT:
            oldest = self._recent.popleft()
            if oldest not in self._exemplars:
                self._drop(oldest)
        entry = (root.end_us - root.start_us, self._n_retired, trace_id)
        if len(self._slowest) < KEEP_SLOWEST:
            heapq.heappush(self._slowest, entry)
            self._exemplars.add(trace_id)
        elif entry[0] > self._slowest[0][0]:
            _, seq, evicted = heapq.heapreplace(self._slowest, entry)
            self._exemplars.discard(evicted)
            self._exemplars.add(trace_id)
            if seq <= self._n_retired - KEEP_RECENT:
                self._drop(evicted)

    def _drop(self, trace_id: int) -> None:
        for span in self._traces.pop(trace_id):
            del self._by_id[span.span_id]

    # -- lookup --------------------------------------------------------------
    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        """Retained spans (a copy), optionally restricted to one trace, in
        start order (creation order == simulator event order)."""
        if trace_id is None:
            return list(self._by_id.values())
        return list(self._traces.get(trace_id, ()))

    def children(self, span: Union[Span, int]) -> List[Span]:
        """Direct children of ``span``, in start order."""
        span_id = span.span_id if isinstance(span, Span) else span
        owner = self._by_id.get(span_id)
        if owner is None:
            return []
        return [s for s in self._traces[owner.trace_id]
                if s.parent_id == span_id]

    def root(self, trace_id: int) -> Span:
        """The root span of a trace; raises if absent or ambiguous."""
        roots = [s for s in self._traces.get(trace_id, ())
                 if s.parent_id is None]
        if not roots:
            raise KeyError(f"no root span for trace {trace_id}")
        if len(roots) > 1:
            raise ValueError(f"trace {trace_id} has {len(roots)} roots")
        return roots[0]

    def tree(self, trace_id: int) -> Dict[str, Any]:
        """The trace as nested dicts: each node is ``span.as_dict()``
        plus a ``children`` list — handy for asserting structure."""
        def expand(span: Span) -> Dict[str, Any]:
            entry = span.as_dict()
            entry["children"] = [expand(c) for c in self.children(span)]
            return entry
        return expand(self.root(trace_id))

    def phases(self, trace_id: int) -> Dict[str, float]:
        """Durations of the root's direct children, by span name.

        For an invocation trace the phases tile the root interval, so
        ``sum(phases.values())`` reconciles with the invocation latency
        (the acceptance check exercised in ``tests/test_obs.py``).
        """
        out: Dict[str, float] = {}
        for child in self.children(self.root(trace_id)):
            out[child.name] = out.get(child.name, 0.0) + child.duration_us
        return out

    def __len__(self) -> int:
        return len(self._by_id)

    def __repr__(self) -> str:
        open_count = sum(1 for s in self._by_id.values() if not s.finished)
        return f"<SpanRecorder spans={len(self._by_id)} open={open_count}>"
