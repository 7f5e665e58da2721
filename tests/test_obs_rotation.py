"""Records of a one-period ring run, copied out to the ranks it did not
simulate, equal the full ring's.

A plain sub-layer suite with a registry or trace recorder attached
simulates one rotation period of its ring and copies each simulated
rank's records to the ranks that would repeat it
(:mod:`repro.obs.rotation`): registry scopes at once, trace spans when
they are read.  The full ring (``ring=None``) is the oracle: every
registry scope field, the byte-exact saved trace with the registry
merged in, and every :class:`~repro.trace.TraceQuery` answer must match
it.
"""

import dataclasses

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments.common import (_fresh_topology, _ring_period,
                                      _run_fused, _run_sequential,
                                      _sequential_period)
from repro.faults import FaultPlan
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import PeriodicRingTopology
from repro.obs import MetricsRegistry
from repro.obs.rotation import Ring, rotate_out
from repro.t3.configs import config_by_name
from repro.trace import (PASSES, TraceQuery, attribute_plan_stages_query,
                         attribute_stages_query, decompose_query)

#: name -> (ranks, (m, n, k), fused rotation period) on 4-CU systems.
#: Sequential's unchunked GEMM gives it period 1 on both.
_CASES = {
    "whole-row": (4, (512, 768, 2048), 1),
    "half-row": (8, (512, 512, 1024), 2),
}


def _fields(value):
    """Every field of a registry object, recursively, as plain data (dict
    and list order included)."""
    if isinstance(value, dict):
        return [(key, _fields(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_fields(item) for item in value]
    names = getattr(type(value), "__slots__", None)
    if names is None and hasattr(value, "__dict__"):
        names = vars(value)
    if names is None:
        return value
    return (type(value).__name__,
            [(name, _fields(getattr(value, name))) for name in names])


def _run(system, shape, config, ring):
    registry, recorder = MetricsRegistry(), TraceRecorder(record_dram=True)
    if config == "Sequential":
        _run_sequential(_fresh_topology(
            system, "compute-priority", obs=registry, trace=recorder,
            ring=ring), shape)
    else:
        policy = config_by_name(config).mc_policy
        _run_fused(_fresh_topology(system, policy, obs=registry,
                                   trace=recorder, ring=ring),
                   shape, policy == "mca")
    return registry, recorder


@pytest.mark.parametrize("config", ("Sequential", "T3", "T3-MCA"))
@pytest.mark.parametrize("name", sorted(_CASES))
def test_copied_records_equal_the_full_ring(name, config, tmp_path):
    n_gpus, (m, n, k), fused_period = _CASES[name]
    system = table1_system(n_gpus=n_gpus)
    system = system.replace(
        compute=dataclasses.replace(system.compute, n_cus=4))
    shape = GEMMShape(m=m, n=n, k=k, name=name)
    if config == "Sequential":
        ring, period = _sequential_period(system, shape), 1
    else:
        ring, period = _ring_period(system, shape), fused_period
    assert ring is not None and ring[0] == period

    full = _run(system, shape, config, None)
    copied = _run(system, shape, config, ring)
    assert copied[0].gpus() == list(range(n_gpus))
    assert [_fields(scope) for scope in copied[0].scopes()] == \
        [_fields(scope) for scope in full[0].scopes()]
    paths = []
    for label, (registry, recorder) in (("full", full), ("copied", copied)):
        paths.append(tmp_path / f"{label}.json")
        recorder.save(str(paths[-1]), registry=registry)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert _answers(*copied) == _answers(*full)


def _chunk_is_one(span):
    return (span.args or {}).get("chunk") == 1


def _answers(registry, recorder):
    """Every TraceQuery answer over one run."""
    query = TraceQuery.from_recorder(recorder, registry)
    return {
        "len": len(query),
        "bounds": query.bounds(),
        "tracks": query.tracks(),
        "summaries": query.summaries(),
        "chunk_flows": query.chunk_flows(),
        "critical_path": query.critical_path(),
        "decompose": decompose_query(query),
        "stages": attribute_stages_query(query),
        "plan-stages": attribute_plan_stages_query(query),
        "passes": {name: run(query) for name, run in PASSES.items()},
        # These filters read ids the relabel rewrites, so a rotated query
        # must answer them from the ring, not from its recorded period.
        "GPU3": query.intervals(track="GPU3"),
        "dram-chunk-1": query.intervals(category="dram",
                                        where=_chunk_is_one),
        "dram-args-chunk-1": query.intervals(category="dram",
                                             args={"chunk": 1}),
    }


def test_time_only_analyses_build_no_ring_copies(monkeypatch):
    """The decomposition and the plan-stage attribution read span times
    and the non-id ``stage`` arg only, so a rotated query answers both
    from its recorded period without building the ring's span copies."""
    n_gpus, (m, n, k), period = _CASES["half-row"]
    system = table1_system(n_gpus=n_gpus)
    system = system.replace(
        compute=dataclasses.replace(system.compute, n_cus=4))
    shape = GEMMShape(m=m, n=n, k=k, name="half-row")
    registry, recorder = _run(system, shape, "T3",
                              _ring_period(system, shape))
    assert recorder.ring is not None and recorder.ring.period == period
    built = []
    ring_spans = Ring.spans

    def spy(self, recorded):
        built.append(len(recorded))
        return ring_spans(self, recorded)

    monkeypatch.setattr(Ring, "spans", spy)
    for analysis in (decompose_query, attribute_plan_stages_query):
        query = TraceQuery.from_recorder(recorder, registry)
        assert analysis(query)
        assert built == [], analysis.__name__
    # A question about ids does build the copies, once.
    query.select(category="dma")
    query.select(category="dma")
    assert built == [len(recorder.spans)]


def test_sequential_period_needs_equal_byte_chunks():
    """Sequential repeats rank 0 on every rank only when its ring RS/AG
    chunks are equal in bytes."""
    system = table1_system(n_gpus=4)
    assert _sequential_period(system, GEMMShape(512, 768, 2048)) == (1, 1)
    odd = GEMMShape(255, 255, 64)
    assert odd.output_bytes % 4
    assert _sequential_period(system, odd) is None


#: attachment -> (policy overrides, ``_fresh_topology`` keywords).  Each
#: tells ranks apart, so the builder keeps every rank of the ring.
_SYMMETRY_BREAKERS = {
    "faults": ({}, {"faults": FaultPlan()}),
    "invariants": ({}, {"check_invariants": True}),
    "resilience": ({}, {"resilience": True}),
    "record-traffic": ({}, {"record_traffic": True}),
    "adaptive-policy": ({"kind": "adaptive"}, {}),
    "record-decisions": ({"record_decisions": True}, {}),
    "nodes": ({}, {"gpus_per_node": 2}),
}


@pytest.mark.parametrize("attached", sorted(_SYMMETRY_BREAKERS) + ["obs"])
def test_builder_honours_a_period_only_on_a_symmetric_machine(attached):
    """``_fresh_topology`` simulates the one rotation period a caller asks
    for only when nothing attached tells ranks apart; a registry and a
    trace recorder do not."""
    policy, attachments = _SYMMETRY_BREAKERS.get(attached, ({}, {}))
    system = table1_system(n_gpus=4).with_policy(**policy)
    topo = _fresh_topology(system, "mca", obs=MetricsRegistry(),
                           trace=TraceRecorder(), ring=(1, 1),
                           **attachments)
    if attached == "obs":
        assert isinstance(topo, PeriodicRingTopology)
        assert topo.n_simulated == 1
    else:
        assert not isinstance(topo, PeriodicRingTopology)
        assert len(topo.gpus) == topo.n_gpus == 4


def test_rotation_rejects_records_it_cannot_relabel():
    """A span category, track or scope whose ids the relabel does not
    know raises instead of being copied with stale ids."""
    incident = TraceRecorder()
    incident.instant("dma-drop", "fault", 10.0, track="gpu0.faults")
    with pytest.raises(ValueError, match="'fault' span"):
        rotate_out(4, 1, recorder=incident)

    odd_track = TraceRecorder()
    odd_track.span("gemm", "kernel", 0.0, 5.0, track="GPU0.stream1")
    with pytest.raises(ValueError, match="GPU0.stream1"):
        rotate_out(4, 1, recorder=odd_track)

    faults = MetricsRegistry()
    faults.scope(0, "faults").count("dma-drop")
    with pytest.raises(ValueError, match="'faults' scope"):
        rotate_out(4, 1, registry=faults)

    virtual = MetricsRegistry()
    virtual.scope(3, "dram").count("reads")
    with pytest.raises(ValueError, match="not a simulated rank"):
        rotate_out(4, 1, registry=virtual)

    bare_dma = TraceRecorder()
    bare_dma.span("dma.chunk1->gpu3", "dma", 0.0, 5.0, track="GPU0.dma")
    with pytest.raises(ValueError, match="'chunk' arg is None"):
        rotate_out(4, 1, recorder=bare_dma)

    chunkless_dma = TraceRecorder()
    chunkless_dma.span("dma.chunk1->gpu3", "dma", 0.0, 5.0,
                       track="GPU0.dma", args={"bytes": 8, "dst": 3})
    with pytest.raises(ValueError, match="'chunk' arg is None"):
        rotate_out(4, 1, recorder=chunkless_dma)

    gpuless_policy = TraceRecorder()
    gpuless_policy.instant("threshold=2", "policy", 1.0,
                           track="gpu0.policy", group="policy")
    with pytest.raises(ValueError, match="'gpu' arg is None"):
        rotate_out(4, 1, recorder=gpuless_policy)

    named_chunk = TraceRecorder(record_dram=True)
    named_chunk.span("rs.update", "dram", 0.0, 5.0, track="gpu0.hbm.ch1",
                     group="memory", args={"bytes": 8, "chunk": "3"})
    with pytest.raises(ValueError, match="'chunk' arg is '3'"):
        rotate_out(4, 1, recorder=named_chunk)


def test_a_recorder_rotates_out_once():
    recorder = TraceRecorder()
    recorder.span("gemm", "kernel", 0.0, 5.0, track="GPU0")
    rotate_out(4, 2, recorder=recorder)
    assert len(recorder) == 2 and len(recorder.spans) == 1
    with pytest.raises(ValueError, match="already rotated"):
        rotate_out(4, 2, recorder=recorder)


def test_rotation_shifts_ids_round_the_ring():
    """Rank 1 of a 4-rank ring at period 2 becomes rank 3: GPU ids and
    ring chunk ids move 2 ahead mod 4; the plain GEMM's chunk 0 stays."""
    recorder = TraceRecorder(record_dram=True)
    recorder.span("dma.chunk3->gpu0", "dma", 1.0, 2.0, track="GPU1.dma",
                  group="compute", args={"bytes": 8, "chunk": 3, "dst": 0})
    recorder.span("rs.update", "dram", 1.0, 2.0, track="gpu1.hbm.ch5",
                  group="memory", args={"bytes": 8, "chunk": 3})
    recorder.span("gemm.write", "dram", 2.0, 3.0, track="gpu1.hbm.ch5",
                  group="memory", args={"bytes": 8, "chunk": 0})
    recorder.span("8KiB", "link", 1.0, 2.0, track="link.1->0",
                  group="interconnect", args={"bytes": 8})
    registry = MetricsRegistry()
    registry.scope(1, "link").count("link.1->0.bytes", 8)
    registry.scope(1, "link").span("link.1->0", 1.0, 2.0)

    rotate_out(4, 2, registry, recorder, unrotated_labels=("gemm",))

    assert len(recorder.spans) == 4 and len(recorder) == 8
    copies = recorder.ring_spans()[4:]
    assert [(s.name, s.track, s.args) for s in copies] == [
        ("dma.chunk1->gpu2", "GPU3.dma", {"bytes": 8, "chunk": 1, "dst": 2}),
        ("rs.update", "gpu3.hbm.ch5", {"bytes": 8, "chunk": 1}),
        ("gemm.write", "gpu3.hbm.ch5", {"bytes": 8, "chunk": 0}),
        ("8KiB", "link.3->2", {"bytes": 8}),
    ]
    link = registry.get(3, "link")
    assert link.counters == {"link.3->2.bytes": 8}
    assert link.span_names() == ["link.3->2"]
    assert link.spans("link.3->2").spans == [(1.0, 2.0)]
