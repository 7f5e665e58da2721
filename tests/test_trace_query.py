"""Tests for the trace-intelligence layer (repro.trace).

A module-scoped fused TP=4 run (with registry + decomposition-grade
trace) serves as the golden fixture: every query, join, decomposition,
pass, and render is checked against it, including the headline contract
— post-hoc numbers from a saved file equal the live profiler's exactly.
"""

import json

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.obs import MetricsRegistry, profiler
from repro.sim import Environment
from repro.t3.fusion import FusedGEMMRS
from repro.trace import (
    PASSES,
    TraceQuery,
    attribute_plan_stages_query,
    attribute_stages_query,
    comm_intervals,
    compute_intervals,
    counter_view,
    decompose_query,
    has_dram_spans,
    render_timeline,
    run_passes,
)


@pytest.fixture(scope="module")
def fused_run():
    """One fused GEMM-RS run with live telemetry and a full trace."""
    env = Environment()
    registry = MetricsRegistry()
    env.obs = registry
    trace = TraceRecorder(record_dram=True)
    env.trace = trace
    system = table1_system(n_gpus=4).with_fidelity(quantum_bytes=16 * 1024)
    topo = RingTopology(env, system)
    FusedGEMMRS(topo, GEMMShape(1024, 512, 256), n_cus=4).run()
    return registry, trace


@pytest.fixture(scope="module")
def saved(fused_run, tmp_path_factory):
    registry, trace = fused_run
    path = tmp_path_factory.mktemp("trace") / "fused.trace.json"
    trace.save(str(path), registry=registry)
    return path


@pytest.fixture(scope="module")
def query(saved):
    return TraceQuery.from_file(str(saved))


# ---------------------------------------------------------------- loading

def test_from_file_matches_from_recorder(fused_run, saved, query,
                                        tmp_path):
    registry, trace = fused_run
    live = TraceQuery.from_recorder(trace, registry=registry)
    assert len(live) == len(query)
    assert live.categories() == query.categories()
    assert sorted(live.tracks()) == sorted(query.tracks())
    # The merged span + counter file is byte-deterministic, and a
    # load -> save round trip reproduces it.
    again = tmp_path / "again.trace.json"
    trace.save(str(again), registry=registry)
    assert again.read_bytes() == saved.read_bytes()
    TraceRecorder.load(str(saved)).save(str(again), registry=registry)
    assert again.read_bytes() == saved.read_bytes()


def test_exact_ns_round_trip(fused_run, query):
    """Saved spans carry exact float ns, not microsecond-rounded times."""
    _, trace = fused_run
    live = sorted(trace.spans, key=lambda s: s.sort_key())
    loaded = sorted(query.select(), key=lambda s: s.sort_key())
    assert [(s.start_ns, s.end_ns) for s in live] == \
        [(s.start_ns, s.end_ns) for s in loaded]


def test_counter_tracks_loaded(query):
    tracks = query.counter_tracks()
    assert tracks, "saved registry produced no counter tracks"
    view = counter_view(query, r"\.gemm\.stage_end$")
    assert view.tracks and view.values()


def test_from_events_accepts_foreign_traces():
    """Traces without args.start_ns fall back to ts/dur microseconds."""
    events = [{"ph": "X", "name": "op", "cat": "kernel", "ts": 1.0,
               "dur": 2.0, "pid": "compute", "tid": 0}]
    query = TraceQuery.from_events(events)
    span = query.select(category="kernel")[0]
    assert (span.start_ns, span.end_ns) == (1000.0, 3000.0)


# -------------------------------------------------------------- selection

def test_select_by_category_and_track(query):
    kernels = query.select(category="kernel")
    assert len(kernels) == 4
    one_track = query.select(track=kernels[0].track)
    assert all(s.track == kernels[0].track for s in one_track)


def test_select_window_keeps_overlapping_spans(query):
    lo, hi = query.bounds()
    mid = (lo + hi) / 2
    windowed = query.select(window=(lo, mid))
    assert windowed and all(s.start_ns <= mid and s.end_ns >= lo
                            for s in windowed)
    assert len(windowed) < len(query)


def test_track_summaries_and_utilization(query):
    summaries = query.summaries()
    assert summaries
    for summary in summaries:
        assert 0.0 <= summary.utilization <= 1.0
        assert summary.busy_ns <= query.horizon_ns
    util = query.utilization(category="kernel")
    assert 0.0 < util <= 1.0


def test_gaps_complement_busy_time(query):
    track = query.select(category="dma")[0].track
    summary = query.track_summary(track)
    gap_total = sum(hi - lo for lo, hi in query.gaps(track))
    assert gap_total == pytest.approx(summary.gap_ns)
    window = summary.last_ns - summary.first_ns
    assert gap_total == pytest.approx(window - summary.busy_ns)


# ------------------------------------------------------------------ joins

def test_chunk_flows_join_dma_link_dram(query):
    flows = query.chunk_flows()
    assert flows, "no DMA->link->DRAM flows joined"
    for flow in flows:
        assert flow.links, f"DMA {flow.dma.name} joined no link spans"
        for link in flow.links:
            assert link.start_ns >= flow.dma.start_ns
            assert link.end_ns <= flow.dma.end_ns
            assert link.track == f"link.{flow.src_gpu}->{flow.dst_gpu}"
        for service in flow.dram:
            assert service.track.startswith(f"gpu{flow.dst_gpu}.")
            assert service.args.get("stream") == "comm"
            if service.args.get("chunk") is not None:
                assert service.args["chunk"] == flow.chunk
        assert flow.trigger_to_wire_ns >= 0.0
    assert any(flow.dram for flow in flows), \
        "record_dram trace joined no DRAM service spans"


def test_join_respects_key_equality(query):
    dmas = query.select(category="dma")
    links = query.select(category="link")
    joined = query.join(dmas, links, key=lambda s: s.args.get("chunk"))
    assert joined and all(children for _, children in joined
                          if children)


# ---------------------------------------------------------- critical path

def test_critical_path_walks_backward_contiguously(query):
    path = query.critical_path()
    assert path, "empty critical path"
    assert path[-1].span.end_ns == query.bounds()[1]
    for earlier, later in zip(path, path[1:]):
        assert earlier.span.end_ns <= later.span.start_ns
        assert later.slack_ns == pytest.approx(
            later.span.start_ns - earlier.span.end_ns)
    breakdown = query.critical_path_breakdown()
    assert set(breakdown) <= {"kernel", "dma", "link", "dram", "slack"}


# ---------------------------------------------- post-hoc == live contract

def test_decomposition_matches_live_profiler_exactly(fused_run, query):
    registry, _ = fused_run
    live = profiler.decompose(registry)
    posthoc = decompose_query(query)
    assert posthoc.compute_ns == live.compute_ns
    assert posthoc.comm_ns == live.comm_ns
    assert posthoc.hidden_ns == live.hidden_ns
    assert posthoc.exposed_ns == live.exposed_ns


def test_stage_attribution_matches_live_exactly(fused_run, query):
    registry, _ = fused_run
    live = [s.__dict__ for s in profiler.attribute_stages(registry)]
    posthoc = [s.__dict__ for s in attribute_stages_query(query)]
    assert posthoc == live


def test_plan_stage_attribution_matches_live_exactly(fused_run, query):
    registry, _ = fused_run
    live = [s.__dict__ for s in profiler.attribute_plan_stages(registry)]
    posthoc = [s.__dict__ for s in attribute_plan_stages_query(query)]
    assert posthoc == live


def test_interval_helpers(query):
    assert has_dram_spans(query)
    compute = compute_intervals(query)
    comm = comm_intervals(query)
    assert compute and comm
    for intervals in (compute, comm):
        assert all(lo <= hi for lo, hi in intervals)


# ----------------------------------------------------------------- passes

def test_all_passes_run_on_golden_trace(query):
    results = run_passes(query)
    assert [r.name for r in results] == list(PASSES)
    for result in results:
        assert result.text.strip()
        json.dumps(result.to_dict())  # JSON-serializable


def test_unknown_pass_raises(query):
    with pytest.raises(KeyError):
        run_passes(query, ["nonsense"])


def test_trigger_latency_pass_finds_tracker_series(query):
    result = run_passes(query, ["trigger-latency"])[0]
    assert result.data.get("count", 0) > 0


# --------------------------------------------------------------- timeline

def test_render_timeline_headless(query):
    text = render_timeline(query, width=80)
    lines = text.splitlines()
    assert len(lines) >= 3
    assert any("%" in line for line in lines)  # per-track utilization
    assert all(len(line) <= 140 for line in lines)


def test_render_timeline_window_and_filter(query):
    lo, hi = query.bounds()
    dma_tracks = [t for t in query.tracks() if t.endswith(".dma")]
    text = render_timeline(query, width=60, window=(lo, (lo + hi) / 2),
                           tracks=dma_tracks)
    lines = text.splitlines()
    assert dma_tracks and len(lines) == len(dma_tracks) + 2
    assert all(track in text for track in dma_tracks)
