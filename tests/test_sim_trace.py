"""Unit tests for counters, sample series, and summaries."""

import pytest

from repro.sim import Counter, SampleSeries, Tracer, percentile, summarize
from repro.sim.trace import nearest_rank


class TestPercentile:
    def test_basic_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 2.0
        assert percentile(values, 100) == 4.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_rank_is_exact_at_a_multiple(self):
        # 99.9 / 100 * 1000 is 999.0000000000001 in floats: its ceiling
        # was rank 1000.
        assert percentile(list(range(1, 1001)), 99.9) == 999

    def test_rank_counts_a_fractional_product_up(self):
        assert nearest_rank(99.9, 1000) == 999
        assert nearest_rank(50.25, 2) == 2
        assert nearest_rank(0.0, 5) == 1
        assert nearest_rank(100.0, 5) == 5


class TestSummarize:
    def test_mean_and_extremes(self):
        summary = summarize([2.0, 4.0, 6.0])
        assert summary.mean == pytest.approx(4.0)
        assert summary.minimum == 2.0
        assert summary.maximum == 6.0
        assert summary.count == 3

    def test_stdev_of_constant_series(self):
        assert summarize([5.0] * 10).stdev == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCounter:
    def test_incr_and_get(self):
        counter = Counter()
        counter.incr("x")
        counter.incr("x", 4)
        assert counter.get("x") == 5
        assert counter["x"] == 5

    def test_missing_key_is_zero(self):
        assert Counter().get("nothing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().incr("x", -1)

    def test_as_dict_snapshot(self):
        counter = Counter()
        counter.incr("a")
        snapshot = counter.as_dict()
        counter.incr("a")
        assert snapshot == {"a": 1}


class TestSampleSeries:
    def test_record_and_summary(self):
        series = SampleSeries()
        for value in (1.0, 2.0, 3.0):
            series.record("lat", value)
        assert summarize(series.samples("lat")).mean == pytest.approx(2.0)

    def test_keys_sorted(self):
        series = SampleSeries()
        series.record("b", 1.0)
        series.record("a", 1.0)
        assert series.keys() == ["a", "b"]

    def test_samples_returns_copy(self):
        series = SampleSeries()
        series.record("x", 1.0)
        series.samples("x").append(99.0)
        assert series.samples("x") == [1.0]

    def test_values_round_trip_exactly_in_order(self):
        values = [0.1, 1e-300, 123456.789012345, 2.0 ** 60 + 0.5, 0.0, 7.25]
        series = SampleSeries()
        for value in values:
            series.record("lat", value)
        out = series.samples("lat")
        assert out == values and type(out) is list
        assert out is not series.samples("lat")
        assert series.samples("missing") == []

    def test_an_int_sample_comes_back_as_a_float(self):
        series = SampleSeries()
        series.record("n", 3)
        (value,) = series.samples("n")
        assert value == 3.0 and type(value) is float


class TestTracer:
    def test_event_counts_category(self):
        tracer = Tracer()
        tracer.event("drop")
        assert tracer.counters["event.drop"] == 1
