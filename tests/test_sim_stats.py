"""Unit tests for measurement helpers (repro.sim.stats)."""

import pytest

from repro.sim.stats import (
    Counter,
    TimeSeries,
    UtilizationTracker,
    geomean,
    weighted_mean,
)


# ---------------------------------------------------------------- TimeSeries

def test_time_series_records_in_order():
    ts = TimeSeries("reads")
    ts.record(0, 10)
    ts.record(5, 20)
    assert len(ts) == 2
    assert ts.total() == 30


def test_time_series_rejects_out_of_order():
    ts = TimeSeries("reads")
    ts.record(10, 1)
    with pytest.raises(ValueError):
        ts.record(5, 1)


def test_time_series_binning():
    ts = TimeSeries()
    for t in range(10):
        ts.record(t, 1.0)
    starts, sums = ts.binned(bin_ns=5)
    assert starts == [0, 5]
    assert sums == [5.0, 5.0]


def test_time_series_binning_empty():
    ts = TimeSeries()
    assert ts.binned(5) == ([], [])


def test_time_series_binning_window():
    ts = TimeSeries()
    for t in (0, 10, 20, 30):
        ts.record(t, 2.0)
    starts, sums = ts.binned(bin_ns=10, start=10, end=30)
    assert sum(sums) == 6.0  # samples at 10, 20, 30


def test_time_series_binning_validation():
    ts = TimeSeries()
    ts.record(0, 1)
    with pytest.raises(ValueError):
        ts.binned(0)
    with pytest.raises(ValueError):
        ts.binned(5, start=10, end=5)


def test_time_series_binning_window_end_sample_clamps_into_last_bin():
    # A sample exactly at the window end falls outside every half-open
    # [edge, edge+bin) bin; it must clamp into the final bin, not vanish.
    ts = TimeSeries()
    for t in range(11):  # 0..10 inclusive
        ts.record(t, 1.0)
    starts, sums = ts.binned(bin_ns=5)
    assert starts == [0, 5]
    assert sums == [5.0, 6.0]  # t=10 joins the [5, 10) bin
    assert sum(sums) == len(ts)


def test_time_series_binning_single_sample():
    ts = TimeSeries()
    ts.record(7.0, 3.0)
    starts, sums = ts.binned(bin_ns=5)
    assert starts == [7.0]
    assert sums == [3.0]


def test_time_series_binning_single_sample_with_start_override():
    ts = TimeSeries()
    ts.record(7.0, 3.0)
    starts, sums = ts.binned(bin_ns=5, start=0)
    assert starts == [0.0, 5.0]
    assert sums == [0.0, 3.0]


def test_time_series_binning_overrides_widen_the_window():
    ts = TimeSeries()
    for t in (0, 10, 20):
        ts.record(t, 2.0)
    starts, sums = ts.binned(bin_ns=10, start=0, end=40)
    assert starts == [0, 10, 20, 30]
    assert sums == [2.0, 2.0, 2.0, 0.0]


def test_time_series_binning_window_excluding_all_samples():
    ts = TimeSeries()
    for t in (0, 10, 20):
        ts.record(t, 2.0)
    starts, sums = ts.binned(bin_ns=5, start=100, end=110)
    assert starts == [100, 105]
    assert sums == [0.0, 0.0]


# ------------------------------------------------------------------- Counter

def test_counter_accumulates():
    c = Counter()
    c.add("gemm.read", 100)
    c.add("gemm.read", 50)
    c.add("rs.write", 30)
    assert c.get("gemm.read") == 150
    assert c.get("missing") == 0
    assert c.total("gemm") == 150
    assert c.total() == 180
    assert c.as_dict() == {"gemm.read": 150, "rs.write": 30}


# ------------------------------------------------------- UtilizationTracker

def test_utilization_basic():
    u = UtilizationTracker()
    u.busy(0, 50)
    assert u.utilization(100) == pytest.approx(0.5)


def test_utilization_merges_overlap():
    u = UtilizationTracker()
    u.busy(0, 60)
    u.busy(30, 60)  # overlaps first half
    assert u.busy_time == pytest.approx(90)
    assert u.utilization(90) == pytest.approx(1.0)


def test_utilization_negative_duration_rejected():
    u = UtilizationTracker()
    with pytest.raises(ValueError):
        u.busy(0, -1)


def test_utilization_zero_elapsed():
    u = UtilizationTracker()
    assert u.utilization(0) == 0.0


def test_utilization_out_of_order_disjoint_span_counts():
    # Regression: a span entirely before the recorded high-water mark
    # used to contribute zero busy time even though it overlapped
    # nothing.  The tracker merges, so both spans count in full.
    u = UtilizationTracker()
    u.busy(100, 10)
    u.busy(0, 10)
    assert u.busy_time == pytest.approx(20)


def test_utilization_out_of_order_partial_overlap():
    u = UtilizationTracker()
    u.busy(50, 10)   # [50, 60)
    u.busy(45, 10)   # [45, 55) — only [45, 50) is new
    assert u.busy_time == pytest.approx(15)


def test_utilization_out_of_order_span_bridging_gap():
    u = UtilizationTracker()
    u.busy(0, 10)    # [0, 10)
    u.busy(20, 10)   # [20, 30)
    u.busy(5, 20)    # [5, 25) — fills the gap exactly once
    assert u.busy_time == pytest.approx(30)


def test_utilization_out_of_order_contained_span_adds_nothing():
    u = UtilizationTracker()
    u.busy(0, 100)
    u.busy(10, 5)    # fully covered
    assert u.busy_time == pytest.approx(100)


def test_utilization_zero_duration_span_is_noop():
    u = UtilizationTracker()
    u.busy(10, 0)
    u.busy(5, 0)
    assert u.busy_time == 0.0


# ------------------------------------------------------------------ geomean

def test_geomean_matches_paper_style_aggregation():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([1.3, 1.3, 1.3]) == pytest.approx(1.3)


def test_geomean_validation():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_weighted_mean():
    assert weighted_mean([1, 3], [1, 1]) == pytest.approx(2.0)
    assert weighted_mean([1, 3], [3, 1]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        weighted_mean([], [])
    with pytest.raises(ValueError):
        weighted_mean([1], [0])
