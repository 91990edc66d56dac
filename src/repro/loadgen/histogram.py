"""Online tail-latency recording: a log-linear histogram.

Open-loop load runs complete hundreds of thousands of operations; a
per-op latency list (the :class:`~repro.sim.trace.SampleSeries` way)
would grow without bound and make percentile queries O(n log n) at
report time.  :class:`LatencyHistogram` is the HdrHistogram-style
alternative: buckets that are **log-linear** — each power-of-two
decade above ``min_us`` is split into ``subbuckets`` linear buckets —
so relative quantization error is bounded by ``1/subbuckets`` (~3.1%
at the default 32) across the whole dynamic range, and recording is a
handful of integer ops.

Only the buckets a sample has touched are stored (bucket index ->
count), so memory is the touched buckets: bounded by the geometry's
``1 + decades * subbuckets`` whatever the sample count, and in practice
the few hundred a latency distribution spans.  A dense array of the
whole geometry would hold 26,625 slots at 1,024 sub-buckets per decade.

Percentile queries return the **upper edge** of the bucket holding the
nearest-rank sample: deterministic, conservative (never under-reports a
tail), and within the quantization bound of the exact value —
``tests/test_loadgen.py`` asserts that property against exact
percentiles on small traces.
"""

from __future__ import annotations

from typing import Dict

from ..sim.trace import nearest_rank

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Log-linear histogram of microsecond latencies, touched buckets only.

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
        # Bucket index -> count, for the buckets a sample has touched.
        self._counts: Dict[int, int] = {}
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
            return self._decades * self.subbuckets
        within = ratio / (1 << decade) - 1.0  # in [0, 1)
        sub = int(within * self.subbuckets)
        if sub >= self.subbuckets:  # guard the float edge at the decade top
            sub = self.subbuckets - 1
        return 1 + decade * self.subbuckets + sub

    def record(self, value_us: float) -> None:
        """Add one latency sample (µs).  O(1); a bucket's first sample
        adds its entry."""
        if value_us < 0:
            raise ValueError("latencies cannot be negative")
        index = self._index(value_us)
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total_us += value_us
        if value_us > self.max_recorded_us:
            self.max_recorded_us = value_us

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s buckets into this histogram (same geometry)."""
        if (other.min_us, other.max_us, other.subbuckets) != (
                self.min_us, self.max_us, self.subbuckets):
            raise ValueError("cannot merge histograms with different geometry")
        counts = self._counts
        for index, n in other._counts.items():
            counts[index] = counts.get(index, 0) + n
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
        Returns 0.0 when empty.  Walks the touched buckets in index
        order.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = nearest_rank(p, self.count)
        seen = 0
        counts = self._counts
        for index in sorted(counts):
            seen += counts[index]
            if seen >= rank:
                return self._upper_edge(index)
        return self._upper_edge(self._decades * self.subbuckets)  # pragma: no cover

    def __repr__(self) -> str:
        return (f"<LatencyHistogram n={self.count} "
                f"p50={self.percentile(50):.1f}us "
                f"p99={self.percentile(99):.1f}us>" if self.count
                else "<LatencyHistogram empty>")
