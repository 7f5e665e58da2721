"""Post-hoc overlap decomposition: the live profiler's math on a trace.

:mod:`repro.obs.profiler` decomposes a run into compute / hidden /
exposed time from a live :class:`~repro.obs.MetricsRegistry`.  This
module computes the *same quantities from the trace spans alone*, so any
saved Chrome JSON — including one reloaded months after the run — yields
the identical numbers.

The equivalence is exact, not approximate: the simulator records every
relevant interval into both sinks at the same code site with the same
floats (kernel spans in ``gpu.py``, link serialization in
``primitives.py``, comm-stream DRAM service in ``dram.py``), the
exporter round-trips exact nanosecond endpoints through ``args``, and
both sides run the same interval arithmetic
(:func:`~repro.obs.profiler.overlap_breakdown`,
:func:`~repro.obs.profiler.stage_attribution`,
:func:`~repro.obs.profiler.plan_stage_attribution`) — only the span
selection below is this module's own.  ``tests/test_trace_query.py``
pins bit-for-bit equality between the live registry and a saved file.

Category mapping (trace span -> profiler scope):

========  ==========================  =================================
quantity  registry source             trace source
========  ==========================  =================================
compute   ``compute`` scope "kernel"  category ``"kernel"``
comm      ``link`` scope spans        category ``"link"``
comm      ``dram`` "comm_service"     category ``"dram"``,
                                      ``args.stream == "comm"``
========  ==========================  =================================

Decomposition-grade traces therefore need
``TraceRecorder(record_dram=True)`` — without DRAM spans the comm set is
missing its memory-service leg and the numbers diverge from the live
profiler (``has_dram_spans`` lets callers detect this).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import intervals as iv
from repro.obs.profiler import (OverlapBreakdown, PlanStageSpan,
                                StageAttribution, overlap_breakdown,
                                plan_stage_attribution, stage_attribution)
from repro.trace.query import TraceQuery

#: the filter that selects comm-stream DRAM service spans.
_COMM_DRAM = {"category": "dram", "args": {"stream": "comm"}}


def compute_intervals(query: TraceQuery) -> List[iv.Interval]:
    """Machine-level kernel-execution intervals (merged)."""
    return query.intervals(category="kernel")


def comm_intervals(query: TraceQuery) -> List[iv.Interval]:
    """Machine-level communication intervals: link serialization plus
    comm-stream DRAM service, mirroring ``obs.profiler.comm_spans``.

    Merging the two merged sets gives the union of all their spans, with
    the same endpoints; both filters read span times only, so a rotated
    query answers them from its recorded spans."""
    return iv.merge(query.intervals(category="link")
                    + query.intervals(**_COMM_DRAM))


def has_dram_spans(query: TraceQuery) -> bool:
    """True when the trace carries comm-stream DRAM service time (was
    recorded with ``record_dram=True``) — required for decompositions
    that match the live profiler."""
    return bool(query.intervals(**_COMM_DRAM))


def decompose_query(query: TraceQuery,
                    total_ns: Optional[float] = None) -> OverlapBreakdown:
    """The live profiler's :func:`~repro.obs.profiler.decompose`, post-hoc.

    ``total_ns`` defaults to the trace horizon (last event end), which
    can differ from the live ``registry.end_time()`` when counter tracks
    extend past the last span; the four span-derived quantities are
    always identical to the live run's.
    """
    return overlap_breakdown(
        compute_intervals(query), comm_intervals(query),
        query.horizon_ns if total_ns is None else total_ns)


def stage_boundaries_query(query: TraceQuery) -> List[float]:
    """Per-GEMM-stage critical-path boundaries from the ``stage_end``
    counter tracks (``gpu<N>.gemm.stage_end``): the slowest GPU's end
    per stage, mirroring ``obs.profiler.stage_boundaries``."""
    per_stage: Dict[int, float] = {}
    for track, samples in query.counters.items():
        if not track.endswith(".gemm.stage_end"):
            continue
        for when, stage in samples:
            index = int(stage)
            per_stage[index] = max(per_stage.get(index, 0.0), when)
    return [per_stage[index] for index in sorted(per_stage)]


def attribute_stages_query(query: TraceQuery) -> List[StageAttribution]:
    """Split each GEMM-stage window into compute / hidden / exposed,
    post-hoc (``obs.profiler.attribute_stages`` on a trace)."""
    return stage_attribution(compute_intervals(query), comm_intervals(query),
                             stage_boundaries_query(query))


def attribute_plan_stages_query(query: TraceQuery,
                                stage_order: Optional[List[str]] = None,
                                ) -> List[PlanStageSpan]:
    """Per-collective-plan-phase overlap attribution, post-hoc.

    DMA spans carry the plan phase their route belongs to in
    ``args.stage`` (mirroring the ``stage.<name>`` obs spans the live
    ``attribute_plan_stages`` reads); this groups the machine-wide DMA
    activity per phase and splits it into hidden / exposed time.
    """
    per_stage: Dict[str, List[iv.Interval]] = {}
    for stage in query.arg_values("dma", "stage"):
        per_stage.setdefault(str(stage), []).extend(
            query.intervals(category="dma", args={"stage": stage}))
    return plan_stage_attribution(per_stage, compute_intervals(query),
                                  stage_order)
