"""Scale-out study: fused T3 across nodes (Section 7.8).

The paper's evaluation keeps tensor parallelism inside one node; its
Section 7.8 discussion argues the mechanism generalizes to multi-node
TP where the inter-node hops are the expensive part.  With the
:class:`~repro.collectives.plan.CollectivePlan` layer this is now
runnable: on a :class:`~repro.interconnect.topology.HierarchicalRingTopology`
the fused GEMM-RS programs itself from the two-phase hierarchical plan
(intra-node rings, then per-position inter-node rail rings) and the same
Tracker/Trigger/DMA machinery reduces across nodes.

The experiment compares, for the same 8-GPU sub-layer GEMM:

* **1 node x 8 GPUs** — the paper's single-node setup (flat ring plan);
* **2 nodes x 4 GPUs** — the same 8 ranks split over two nodes joined by
  slow links (plan stages ``intra`` + ``inter``).

Per case, **Sequential** is the co-simulated GEMM followed by the
plan-driven CU reduce-scatter
(:class:`~repro.collectives.baseline.PlannedReduceScatter` — apples to
apples, it walks the same plan); **T3-MCA** is the fused run.  The
hierarchical T3-MCA run reports per-plan-stage overlap attribution:
intra-node communication hides under the GEMM while the inter-node rail
phase — serialized after each chunk's intra reduction — is where the
remaining exposure concentrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import table1_system
from repro.experiments.common import (
    _fresh_topology,
    _run_fused,
    _run_sequential,
    scaled_shape,
)
from repro.models import zoo
from repro.obs import MetricsRegistry
from repro.obs.profiler import PlanStageSpan, attribute_plan_stages


@dataclass
class ScaleoutRow:
    """One topology case of the scale-out comparison."""

    label: str
    n_nodes: int
    gpus_per_node: int
    sequential_us: float
    t3_mca_us: float
    #: plan phases of the fused run, in plan order.
    stage_names: List[str] = field(default_factory=list)
    #: per-phase overlap attribution of the T3-MCA run.
    plan_stages: List[PlanStageSpan] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.sequential_us / self.t3_mca_us


@dataclass
class ScaleoutResult:
    """The rendered scale-out study."""

    case_label: str
    rows: List[ScaleoutRow]

    def row(self, label: str) -> ScaleoutRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        lines = [
            "Section 7.8 — scale-out: fused T3 across nodes "
            f"({self.case_label})",
            f"{'case':18} {'Sequential':>11} {'T3-MCA':>9} {'speedup':>8} "
            f"{'plan':>12}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.label:18} {r.sequential_us:>9.1f}us "
                f"{r.t3_mca_us:>7.1f}us {r.speedup:>8.3f} "
                f"{'+'.join(r.stage_names):>12}")
        for r in self.rows:
            if not r.plan_stages:
                continue
            lines.append("")
            lines.append(f"Plan-stage attribution ({r.label}, T3-MCA):")
            for span in r.plan_stages:
                hidden_pct = (100.0 * span.hidden_ns / span.comm_ns
                              if span.comm_ns else 0.0)
                lines.append(
                    f"  {span.stage:>6}: comm={span.comm_ns / 1e3:>7.1f}us  "
                    f"hidden={span.hidden_ns / 1e3:>7.1f}us  "
                    f"exposed={span.exposed_ns / 1e3:>7.1f}us  "
                    f"({hidden_pct:.0f}% hidden)")
        return "\n".join(lines)


def run(fast: bool = True,
        trace_out: Optional[str] = None) -> ScaleoutResult:
    """Compare single-node vs two-node fused T3 on one sub-layer GEMM.

    ``trace_out`` saves a decomposition-grade trace (spans + counter
    tracks + registry snapshot) of the **2-node fused T3-MCA run** —
    the case where inter-node exposure concentrates and the post-hoc
    trace analysis (``runner trace``) has the most to say.
    """
    scale = 16 if fast else 1
    sub = zoo.t_nlg().sublayer("FC-2", 8)
    shape = scaled_shape(sub.gemm, scale)
    system = table1_system(n_gpus=8)
    cases = (
        ("1 node x 8 GPUs", 1, 8),
        ("2 nodes x 4 GPUs", 2, 4),
    )
    rows: List[ScaleoutRow] = []
    for label, n_nodes, per in cases:
        gemm_time, rs_time, _ = _run_sequential(
            _fresh_topology(system, "compute-priority",
                            check_invariants=True, gpus_per_node=per),
            shape, all_gather=False)
        registry = MetricsRegistry()
        trace = None
        if trace_out is not None and n_nodes > 1:
            from repro.analysis.trace import TraceRecorder
            trace = TraceRecorder(record_dram=True)
        fused, fused_time = _run_fused(
            _fresh_topology(system, "mca", check_invariants=True,
                            obs=registry, trace=trace, gpus_per_node=per),
            shape, calibrate_mca=True, all_gather=False)
        if trace is not None:
            trace.save(trace_out, registry=registry)
        rows.append(ScaleoutRow(
            label=label, n_nodes=n_nodes, gpus_per_node=per,
            sequential_us=(gemm_time + rs_time) / 1e3,
            t3_mca_us=fused_time / 1e3,
            stage_names=list(fused.plan.stage_names),
            plan_stages=attribute_plan_stages(
                registry, stage_order=list(fused.plan.stage_names)),
        ))
    return ScaleoutResult(case_label=f"{sub.label}, fast={fast}", rows=rows)
