"""Online tail-latency recording: a fixed-bucket log-linear histogram.

Open-loop load runs complete hundreds of thousands of operations; a
per-op latency list (the :class:`~repro.sim.trace.SampleSeries` way)
would grow without bound and make percentile queries O(n log n) at
report time.  :class:`LatencyHistogram` is the HdrHistogram-style
alternative: a fixed array of buckets that is **log-linear** — each
power-of-two decade above ``min_us`` is split into ``subbuckets``
linear buckets — so relative quantization error is bounded by
``1/subbuckets`` (~3.1% at the default 32) across the whole dynamic
range, memory is O(decades * subbuckets) regardless of sample count,
and recording is a handful of integer ops.

Percentile queries return the **upper edge** of the bucket holding the
nearest-rank sample: deterministic, conservative (never under-reports a
tail), and within the quantization bound of the exact value —
``tests/test_loadgen.py`` asserts that property against exact
percentiles on small traces.
"""

from __future__ import annotations

from typing import List

from ..sim.trace import nearest_rank

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Fixed-size log-linear histogram of microsecond latencies.

    * bucket 0 holds everything below ``min_us`` (reported as ``min_us``);
    * above that, decade ``d`` spans ``[min_us * 2^d, min_us * 2^(d+1))``
      split into ``subbuckets`` equal-width buckets;
    * values at or above ``max_us`` clamp into the final bucket.
    """

    __slots__ = ("min_us", "max_us", "subbuckets", "_decades", "_counts",
                 "count", "total_us", "max_recorded_us")

    def __init__(self, min_us: float = 1.0, max_us: float = 60e6,
                 subbuckets: int = 32):
        if min_us <= 0 or max_us <= min_us:
            raise ValueError("need 0 < min_us < max_us")
        if subbuckets < 1:
            raise ValueError("need at least one sub-bucket per decade")
        self.min_us = float(min_us)
        self.max_us = float(max_us)
        self.subbuckets = int(subbuckets)
        decades = 0
        while min_us * (2.0 ** decades) < max_us:
            decades += 1
        self._decades = decades
        self._counts: List[int] = [0] * (1 + decades * subbuckets)
        self.count = 0
        self.total_us = 0.0
        self.max_recorded_us = 0.0

    # -- recording -----------------------------------------------------------
    def _index(self, value_us: float) -> int:
        if value_us < self.min_us:
            return 0
        ratio = value_us / self.min_us
        decade = ratio.__trunc__().bit_length() - 1  # floor(log2(ratio))
        if decade >= self._decades:
            return len(self._counts) - 1
        within = ratio / (1 << decade) - 1.0  # in [0, 1)
        sub = int(within * self.subbuckets)
        if sub >= self.subbuckets:  # guard the float edge at the decade top
            sub = self.subbuckets - 1
        return 1 + decade * self.subbuckets + sub

    def record(self, value_us: float) -> None:
        """Add one latency sample (µs).  O(1), no allocation."""
        if value_us < 0:
            raise ValueError("latencies cannot be negative")
        self._counts[self._index(value_us)] += 1
        self.count += 1
        self.total_us += value_us
        if value_us > self.max_recorded_us:
            self.max_recorded_us = value_us

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s buckets into this histogram (same geometry)."""
        if (other.min_us, other.max_us, other.subbuckets) != (
                self.min_us, self.max_us, self.subbuckets):
            raise ValueError("cannot merge histograms with different geometry")
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        self.count += other.count
        self.total_us += other.total_us
        if other.max_recorded_us > self.max_recorded_us:
            self.max_recorded_us = other.max_recorded_us

    # -- queries -------------------------------------------------------------
    def _upper_edge(self, index: int) -> float:
        if index == 0:
            return self.min_us
        decade, sub = divmod(index - 1, self.subbuckets)
        return self.min_us * (1 << decade) * (1.0 + (sub + 1) / self.subbuckets)

    def percentile(self, p: float) -> float:
        """Latency (µs) at percentile ``p`` (0 < p <= 100), nearest-rank.

        Returns the upper edge of the bucket containing that rank — at
        most ``1/subbuckets`` above the exact sample, never below it.
        Returns 0.0 when empty.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = nearest_rank(p, self.count)
        seen = 0
        for index, n in enumerate(self._counts):
            seen += n
            if seen >= rank:
                return self._upper_edge(index)
        return self._upper_edge(len(self._counts) - 1)  # pragma: no cover

    def mean(self) -> float:
        """Exact mean of recorded samples (0.0 when empty)."""
        return self.total_us / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (f"<LatencyHistogram n={self.count} "
                f"p50={self.percentile(50):.1f}us "
                f"p99={self.percentile(99):.1f}us>" if self.count
                else "<LatencyHistogram empty>")
