"""Perfetto counter-track export tests (repro.obs.perfetto): synthetic
unit checks plus an end-to-end save/load round trip from a real fused
GEMM-RS run with both a TraceRecorder and a MetricsRegistry attached."""

import json

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments.common import _fresh_topology, scaled_shape
from repro.models import zoo
from repro.obs import MetricsRegistry
from repro.obs.perfetto import (
    COUNTER_GROUP,
    counter_events,
    load_counter_tracks,
    merge_into_trace,
    save_merged,
)
from repro.t3.fusion import FusedGEMMRS


# ------------------------------------------------------------- unit level

def small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    gauge = registry.scope(0, "dma").gauge("queue_depth")
    gauge.set(0, 1.0)
    gauge.set(1000, 2.0)
    gauge.set(2500, 0.0)
    series = registry.scope(1, "gemm").series("stage_end")
    series.record(4000, 0)
    return registry


def test_counter_events_tracks_and_unit_conversion():
    events = counter_events(small_registry())
    tracks = {event["name"] for event in events}
    assert tracks == {"gpu0.dma.queue_depth", "gpu1.gemm.stage_end"}
    assert all(event["ph"] == "C" for event in events)
    assert all(event["pid"] == COUNTER_GROUP for event in events)
    gauge_ts = [event["ts"] for event in events
                if event["name"] == "gpu0.dma.queue_depth"]
    assert gauge_ts == [0.0, 1.0, 2.5]  # ns -> us


def test_counter_events_global_prefix_for_unowned_scope():
    registry = MetricsRegistry()
    registry.scope(-1, "sweep").gauge("inflight").set(0, 3.0)
    (event,) = counter_events(registry)
    assert event["name"] == "global.sweep.inflight"


def test_counter_events_subsampling_keeps_endpoints():
    registry = MetricsRegistry()
    gauge = registry.scope(0, "dma").gauge("depth")
    for t in range(100):
        gauge.set(t * 10, float(t))
    events = counter_events(registry, max_samples_per_track=5)
    assert len(events) == 5
    assert events[0]["args"]["value"] == 0.0
    assert events[-1]["args"]["value"] == 99.0


def test_merge_into_trace_appends_sorted_counters():
    spans = [{"name": "k", "ph": "X", "ts": 0.0, "dur": 1.0}]
    merged = merge_into_trace(spans, small_registry())
    assert merged[0] is spans[0]
    counter_ts = [event["ts"] for event in merged if event["ph"] == "C"]
    assert counter_ts == sorted(counter_ts)


def test_save_merged_and_load_counter_tracks(tmp_path):
    trace = TraceRecorder()
    trace.span("kernel", "gemm", 0, 5000, track="gpu0")
    path = tmp_path / "merged.json"
    save_merged(str(path), trace, small_registry())
    tracks = load_counter_tracks(str(path))
    assert set(tracks) == {"gpu0.dma.queue_depth", "gpu1.gemm.stage_end"}
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ns"
    span_events = [event for event in payload["traceEvents"]
                   if event.get("ph") == "X"]
    assert len(span_events) == 1


# ----------------------------------------------- end-to-end round trip

@pytest.fixture(scope="module")
def merged_trace_path(tmp_path_factory):
    """Run a small fused GEMM-RS with trace + registry and save merged."""
    from repro.experiments.sublayer_sweep import FAST_SCALE

    sub = zoo.t_nlg().sublayer("OP", 4)
    system = table1_system(n_gpus=sub.tp)
    tiles_n = max(1, sub.gemm.n // system.gemm.macro_tile_n)
    rows_needed = -(-sub.tp // tiles_n)
    shape = scaled_shape(sub.gemm, FAST_SCALE,
                         min_m=rows_needed * system.gemm.macro_tile_m)
    registry = MetricsRegistry()
    topo = _fresh_topology(system, "mca", obs=registry)
    trace = TraceRecorder()
    topo.env.trace = trace
    FusedGEMMRS(topo, shape, calibrate_mca=True).run()
    path = tmp_path_factory.mktemp("perfetto") / "run.json"
    trace.save(str(path), registry=registry)
    return str(path)


def test_round_trip_counter_tracks_are_monotonic(merged_trace_path):
    tracks = load_counter_tracks(merged_trace_path)
    assert tracks, "real run produced no counter tracks"
    for name, events in tracks.items():
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps), (
            f"track {name} has out-of-order timestamps")


def test_round_trip_counters_align_with_spans(merged_trace_path):
    """Counter samples must land inside the span timeline (shared clock,
    shared microsecond unit) — a ns/us mixup would blow them 1000x out."""
    with open(merged_trace_path) as handle:
        payload = json.load(handle)
    spans = [event for event in payload["traceEvents"]
             if event.get("ph") == "X"]
    counters = [event for event in payload["traceEvents"]
                if event.get("ph") == "C"]
    assert spans and counters
    span_lo = min(event["ts"] for event in spans)
    span_hi = max(event["ts"] + event["dur"] for event in spans)
    counter_hi = max(event["ts"] for event in counters)
    assert counter_hi <= span_hi + 1e-6
    assert all(event["ts"] >= span_lo - 1e-6 for event in counters)


def test_round_trip_expected_tracks_present(merged_trace_path):
    tracks = load_counter_tracks(merged_trace_path)
    components = {name.split(".")[1] for name in tracks}
    # DMA queue depth, DRAM occupancy and GEMM stage markers all export.
    assert {"dma", "dram", "gemm"} <= components
