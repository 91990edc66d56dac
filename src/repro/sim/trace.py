"""Measurement utilities: counters and latency samples.

Every experiment in the benchmark harness reads its numbers from these
collectors rather than from ad-hoc prints, so the same instrumentation
feeds the unit tests and the figure-regeneration benches.  Counting on a
per-packet path is a list-cell add at the site (:class:`Counter`); every
other site calls :meth:`Tracer.count`.

Tracers are the *local* collectors; the cluster-wide view lives one
layer up in :mod:`repro.obs` — a ``MetricsRegistry`` names every tracer
hierarchically and snapshots them together, and ``Span`` trees record
per-invocation timelines on top of the same simulated clock.  The
canonical key vocabulary both layers share is documented in
OBSERVABILITY.md.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List

__all__ = ["Counter", "SampleSeries", "Tracer", "NullTracer", "NULL_TRACER",
           "summarize", "percentile", "nearest_rank"]


def nearest_rank(pct: float, n: int) -> int:
    """The 1-based nearest rank ``ceil(pct/100 * n)`` of ``n`` samples,
    at least 1 (so p0 is the minimum).

    Computed exactly over the decimal value of ``pct``: the float
    product can land one rank high at exact multiples (99.9 of 1,000
    must be rank 999, not 1,000) or, truncated first, one low (50.25 of
    2 must be rank 2, not 1).
    """
    return max(1, -(-(Fraction(str(pct)) * n) // 100))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100]): the
    sample at :func:`nearest_rank` in sorted order."""
    if not values:
        raise ValueError("percentile of empty series")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    return sorted(values)[nearest_rank(pct, len(values)) - 1]


@dataclass
class Summary:
    """Five-number-ish summary of a latency/size series."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of an iterable of samples."""
    data = list(values)
    if not data:
        raise ValueError("cannot summarize empty series")
    n = len(data)
    mean = sum(data) / n
    variance = sum((x - mean) ** 2 for x in data) / n
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=min(data),
        p50=percentile(data, 50),
        p95=percentile(data, 95),
        p99=percentile(data, 99),
        maximum=max(data),
    )


class Counter:
    """A named bag of monotonically increasing integer counters.

    Each value lives in a one-element list, its **cell**.  A per-packet
    site binds :meth:`cell` once and pays ``cell[0] += n`` (no call, no
    string hash); :meth:`incr` adds to the same cell.  A cell still at
    zero is left out of :meth:`as_dict`, so binding early adds no key to
    any snapshot.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, List[int]] = defaultdict(lambda: [0])

    def cell(self, key: str) -> List[int]:
        """The one-element list holding ``key``'s value (made at zero)."""
        return self._cells[key]

    def incr(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to ``key``."""
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self._cells[key][0] += amount

    def get(self, key: str) -> int:
        """Return the stored value for ``key`` (0 when absent — never
        ``None``, so results are safe to add and compare directly)."""
        cell = self._cells.get(key)
        return cell[0] if cell is not None else 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of the non-zero counters as a plain dictionary."""
        return {key: cell[0] for key, cell in self._cells.items() if cell[0]}

    def __getitem__(self, key: str) -> int:
        return self.get(key)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Counter({body})"


class SampleSeries:
    """A named collection of float samples, each key's held as raw
    doubles in an ``array('d')``: 8 bytes a sample.  :meth:`Tracer.sample`
    appends to it."""

    def __init__(self) -> None:
        self._samples: Dict[str, array] = defaultdict(lambda: array("d"))

    def samples(self, key: str) -> List[float]:
        """Recorded samples for ``key`` (a new list)."""
        return list(self._samples.get(key, ()))

    def keys(self) -> List[str]:
        """Sorted recorded keys."""
        return sorted(self._samples.keys())


class Tracer:
    """Combined counters + samples.

    Each network node and protocol layer owns (or shares) a Tracer; the
    benchmark harness interrogates it after the run.

    Counters have two spellings over one store: ``count(key, n)`` for
    the control plane and fault or error branches, and, for a site that
    runs per packet or per operation, ``cell(key)`` bound once where the
    owner assigns its tracer, then ``cell[0] += n`` (the rule and what
    each costs: OBSERVABILITY.md, "What observing costs").
    """

    def __init__(self) -> None:
        self.counters = Counter()
        self.series = SampleSeries()

    def cell(self, key: str) -> List[int]:
        """The cell behind counter ``key`` (see :class:`Counter`)."""
        return self.counters.cell(key)

    def count(self, key: str, amount: int = 1) -> None:
        """Increment the named counter.  One call deep (``Counter.incr``
        written out): the benchmark's count of calls to this method is
        the count of increments that did not go through a bound cell."""
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self.counters._cells[key][0] += amount

    def sample(self, key: str, value: float) -> None:
        """Record one sample under ``key``, stored as a float in its
        series (written in place: one call deep, like :meth:`count`)."""
        self.series._samples[key].append(value)

    def event(self, category: str) -> None:
        """Count one occurrence of the ``category`` event, as
        ``event.<category>``."""
        self.counters.incr(f"event.{category}")


class NullTracer(Tracer):
    """A tracer that records nothing: what an untraced node is handed.

    Reads behave like an empty :class:`Tracer` (counters return 0,
    series are empty).  ``count``, ``sample`` and ``event`` are bare
    no-ops, and :meth:`cell` hands out a scratch cell that belongs to no
    counter, so a site that bound its cells runs the same ``cell[0] +=
    n`` traced or untraced: the packet path has no "is tracing on"
    branch, and an untraced node saves only what the cold ``count``
    sites and the samples cost.  The shared :data:`NULL_TRACER`
    singleton serves any number of nodes.

    The metrics registry skips null tracers when snapshotting, so an
    untraced node contributes no keys instead of a block of zeros.
    """

    def cell(self, key: str) -> List[int]:
        return [0]

    def count(self, key: str, amount: int = 1) -> None:
        pass

    def sample(self, key: str, value: float) -> None:
        pass

    def event(self, category: str) -> None:
        pass


#: Shared no-op tracer: safe to hand to any number of nodes at once
#: because nothing written through it is ever read back.
NULL_TRACER = NullTracer()
