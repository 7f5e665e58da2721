"""Collective communication: plans, analytic models, baseline kernels.

* :mod:`repro.collectives.plan` — the :class:`CollectivePlan` IR: one
  source of truth for per-rank step lists, chunk routes, chunk sizes and
  staggered production order, for flat-ring, hierarchical (multi-node),
  direct and all-to-all collectives.
* :mod:`repro.collectives.api` — collective types plus closed-form time /
  traffic models (used for the ideal configurations and the Figure 14
  "hardware" reference).
* :mod:`repro.collectives.baseline` — the CU-driven collective kernels of
  today's GPUs (Figure 10a), the thing T3 replaces: one executor that
  walks a reduce-scatter or all-gather plan.
"""

from repro.collectives.api import (
    CollectiveOp,
    all_to_all_time,
    ring_ag_time,
    ring_ar_time,
    ring_rs_time,
    rs_with_nmc_time,
)
from repro.collectives.plan import (
    ChunkRoute,
    CollectivePlan,
    PlanStep,
    RankPlan,
    RouteKind,
    all_to_all_plan,
    direct_rs_plan,
    hierarchical_rs_plan,
    plan_for,
    ring_all_gather_plan,
    ring_production_order,
    ring_reduce_scatter_plan,
)
from repro.collectives.baseline import (
    CollectiveResult,
    PlannedReduceScatter,
    RingAllGather,
    RingAllReduce,
    RingReduceScatter,
)

__all__ = [
    "ChunkRoute",
    "CollectiveOp",
    "CollectivePlan",
    "CollectiveResult",
    "PlanStep",
    "PlannedReduceScatter",
    "RankPlan",
    "RingAllGather",
    "RingAllReduce",
    "RingReduceScatter",
    "RouteKind",
    "all_to_all_plan",
    "all_to_all_time",
    "direct_rs_plan",
    "hierarchical_rs_plan",
    "plan_for",
    "ring_ag_time",
    "ring_all_gather_plan",
    "ring_ar_time",
    "ring_production_order",
    "ring_reduce_scatter_plan",
    "ring_rs_time",
    "rs_with_nmc_time",
]
