"""Overlap profiler: the paper's compute/communication decomposition.

Given the :class:`~repro.obs.registry.MetricsRegistry` of one simulated
configuration, decompose the run into the quantities Sections 3 and 6
reason about:

* **compute time** — union of kernel-execution spans across GPUs,
* **hidden communication** — communication activity (link serialization
  plus comm-stream DRAM service) that ran *under* compute,
* **exposed communication** — communication activity outside any compute
  span: the time the paper's techniques exist to shrink,
* **per-ring-stage attribution** — the same split inside each GEMM
  stage window (stage boundaries are the slowest GPU's ``stage_end``),
  locating *where* on the critical path exposure happens.

All interval algebra is machine-level: a communication interval counts as
hidden when *any* GPU is computing during it, mirroring how the paper's
timelines (Figure 2) are drawn.  Sequential runs serialize their phases,
so their hidden time is ~0 by construction; fused T3 runs overlap the
ring reduce-scatter with the GEMM, so strictly more communication hides.

Aggregation follows ``repro.analysis.metrics`` conventions: per-case rows
reduced to geomean + max, with exposed-communication reduction reported
as a Sequential-relative ratio (speedup-style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import SpeedupTable
from repro.obs import intervals as iv
from repro.obs.registry import MetricsRegistry

#: configurations the profiler simulates (the Ideal-* configurations are
#: closed-form in ``run_sublayer_suite`` — there is no run to profile).
PROFILED_CONFIGS = ("Sequential", "T3", "T3-MCA")

#: exposed-time floor (ns) for ratio aggregation: a perfectly-hidden run
#: would otherwise divide by zero.
_EXPOSED_FLOOR_NS = 1.0


def _machine_spans(registry: MetricsRegistry, component: str,
                   names: Optional[List[str]] = None) -> List[iv.Interval]:
    """Union of the named span lists across every scope of ``component``."""
    spans: List[iv.Interval] = []
    for scope in registry.scopes(component):
        for name in (names if names is not None else scope.span_names()):
            span_list = scope.spans(name)
            spans.extend(span_list.spans)
    return iv.merge(spans)


def compute_spans(registry: MetricsRegistry) -> List[iv.Interval]:
    """Machine-level kernel-execution intervals."""
    return _machine_spans(registry, "compute", ["kernel"])


def comm_spans(registry: MetricsRegistry) -> List[iv.Interval]:
    """Machine-level communication intervals: link serialization plus
    comm-stream DRAM service (the reduce-scatter's NMC updates / remote
    writes and the collectives' landing writes)."""
    spans = _machine_spans(registry, "link")
    spans.extend(_machine_spans(registry, "dram", ["comm_service"]))
    return iv.merge(spans)


@dataclass
class OverlapBreakdown:
    """One configuration's machine-level overlap decomposition (ns)."""

    total_ns: float
    compute_ns: float
    comm_ns: float
    hidden_ns: float
    exposed_ns: float

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of communication that ran under compute."""
        return self.hidden_ns / self.comm_ns if self.comm_ns > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "total_ns": self.total_ns,
            "compute_ns": self.compute_ns,
            "comm_ns": self.comm_ns,
            "hidden_ns": self.hidden_ns,
            "exposed_ns": self.exposed_ns,
            "overlap_efficiency": self.overlap_efficiency,
        }


@dataclass
class StageAttribution:
    """The decomposition inside one GEMM-stage window."""

    stage: int
    start_ns: float
    end_ns: float
    compute_ns: float
    hidden_ns: float
    exposed_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def dominant(self) -> str:
        """What the window's critical path is spent on."""
        parts = {"compute": self.compute_ns, "hidden-comm": self.hidden_ns,
                 "exposed-comm": self.exposed_ns}
        return max(parts, key=parts.get) if any(parts.values()) else "idle"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "compute_ns": self.compute_ns,
            "hidden_ns": self.hidden_ns,
            "exposed_ns": self.exposed_ns,
            "dominant": self.dominant,
        }


def overlap_breakdown(compute: List[iv.Interval], comm: List[iv.Interval],
                      total_ns: float) -> OverlapBreakdown:
    """Split merged machine-level communication intervals into the part
    under compute (hidden) and the rest (exposed).  Shared by the live
    profiler and the post-hoc trace decomposition, which differ only in
    where the intervals come from."""
    return OverlapBreakdown(
        total_ns=total_ns,
        compute_ns=iv.total(compute),
        comm_ns=iv.total(comm),
        hidden_ns=iv.total(iv.intersect(comm, compute)),
        exposed_ns=iv.total(iv.subtract(comm, compute)),
    )


def decompose(registry: MetricsRegistry,
              total_ns: Optional[float] = None) -> OverlapBreakdown:
    """Machine-level overlap decomposition of one profiled run."""
    return overlap_breakdown(
        compute_spans(registry), comm_spans(registry),
        registry.end_time() if total_ns is None else total_ns)


def stage_boundaries(registry: MetricsRegistry) -> List[float]:
    """Per-stage critical-path boundary: the *slowest* GPU's stage end."""
    per_stage: Dict[int, float] = {}
    for scope in registry.scopes("gemm"):
        series = scope.get_series("stage_end")
        if series is None:
            continue
        for when, stage in zip(series.times, series.values):
            index = int(stage)
            per_stage[index] = max(per_stage.get(index, 0.0), when)
    return [per_stage[index] for index in sorted(per_stage)]


def attribute_stages(registry: MetricsRegistry) -> List[StageAttribution]:
    """Split each GEMM-stage window into compute / hidden / exposed."""
    return stage_attribution(compute_spans(registry), comm_spans(registry),
                             stage_boundaries(registry))


def stage_attribution(compute: List[iv.Interval], comm: List[iv.Interval],
                      boundaries: List[float]) -> List[StageAttribution]:
    """The hidden / exposed split inside each GEMM-stage window; window
    ``i`` ends at ``boundaries[i]`` and the first starts with compute."""
    if not boundaries:
        return []
    hidden = iv.intersect(comm, compute)
    exposed = iv.subtract(comm, compute)
    window_start = compute[0][0] if compute else 0.0
    attributions: List[StageAttribution] = []
    for stage, end in enumerate(boundaries):
        attributions.append(StageAttribution(
            stage=stage, start_ns=window_start, end_ns=end,
            compute_ns=iv.total(iv.clip(compute, window_start, end)),
            hidden_ns=iv.total(iv.clip(hidden, window_start, end)),
            exposed_ns=iv.total(iv.clip(exposed, window_start, end)),
        ))
        window_start = end
    return attributions


@dataclass
class PlanStageSpan:
    """Overlap decomposition of one collective-plan phase ("intra",
    "inter" or "ring"): the union of DMA transfers tagged with that stage
    by the :class:`~repro.gpu.dma.DMAEngine`."""

    stage: str
    comm_ns: float
    hidden_ns: float
    exposed_ns: float
    start_ns: float
    end_ns: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "stage": self.stage,
            "comm_ns": self.comm_ns,
            "hidden_ns": self.hidden_ns,
            "exposed_ns": self.exposed_ns,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }


def attribute_plan_stages(registry: MetricsRegistry,
                          stage_order: Optional[List[str]] = None,
                          ) -> List[PlanStageSpan]:
    """Per-plan-phase overlap attribution.

    DMA transfers record a ``stage.<name>`` span per command (the plan
    phase the route belongs to); this collects them machine-wide and
    splits each phase's activity into hidden (under compute) and exposed
    time.  ``stage_order`` pins the output order (e.g. the plan's
    ``stage_names``); otherwise phases appear in first-activity order.
    """
    return plan_stage_attribution(_dma_stage_spans(registry),
                                  compute_spans(registry), stage_order)


def _dma_stage_spans(registry: MetricsRegistry,
                     ) -> Dict[str, List[iv.Interval]]:
    """The ``stage.<name>`` DMA spans of every GPU, keyed by plan phase."""
    per_stage: Dict[str, List[iv.Interval]] = {}
    for scope in registry.scopes("dma"):
        for name in scope.span_names():
            if not name.startswith("stage."):
                continue
            stage = name[len("stage."):]
            per_stage.setdefault(stage, []).extend(scope.spans(name).spans)
    return per_stage


def plan_stage_attribution(per_stage: Dict[str, List[iv.Interval]],
                           compute: List[iv.Interval],
                           stage_order: Optional[List[str]] = None,
                           ) -> List[PlanStageSpan]:
    """Merge each plan phase's transfers and split them into hidden
    (under ``compute``) and exposed time; ``stage_order`` first, then
    the remaining phases in first-activity order."""
    names = [s for s in (stage_order or []) if s in per_stage]
    names += sorted((s for s in per_stage if s not in names),
                    key=lambda s: min(start for start, _ in per_stage[s]))
    result: List[PlanStageSpan] = []
    for stage in names:
        spans = iv.merge(per_stage[stage])
        hidden = iv.intersect(spans, compute)
        result.append(PlanStageSpan(
            stage=stage,
            comm_ns=iv.total(spans),
            hidden_ns=iv.total(hidden),
            exposed_ns=iv.total(spans) - iv.total(hidden),
            start_ns=spans[0][0],
            end_ns=spans[-1][1],
        ))
    return result


@dataclass
class ConfigProfile:
    """One (case, configuration) profile."""

    config: str
    breakdown: OverlapBreakdown
    stages: List[StageAttribution] = field(default_factory=list)
    plan_stages: List[PlanStageSpan] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "breakdown": self.breakdown.to_dict(),
            "stages": [stage.to_dict() for stage in self.stages],
            "plan_stages": [span.to_dict() for span in self.plan_stages],
        }


@dataclass
class CaseProfile:
    """All profiled configurations of one sub-layer case."""

    label: str
    configs: Dict[str, ConfigProfile] = field(default_factory=dict)

    def hidden_ns(self, config: str) -> float:
        return self.configs[config].breakdown.hidden_ns

    def exposed_ns(self, config: str) -> float:
        return self.configs[config].breakdown.exposed_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "configs": {name: profile.to_dict()
                        for name, profile in self.configs.items()},
        }


def profile_case(label: str,
                 registries: Dict[str, MetricsRegistry],
                 times: Optional[Dict[str, float]] = None) -> CaseProfile:
    """Build a :class:`CaseProfile` from per-configuration registries.

    ``times`` optionally pins each breakdown's ``total_ns`` to the
    suite-reported total (GEMM+RS+AG) instead of the registry horizon.
    """
    case = CaseProfile(label=label)
    for config, registry in registries.items():
        total = times.get(config) if times else None
        compute = compute_spans(registry)
        comm = comm_spans(registry)
        case.configs[config] = ConfigProfile(
            config=config,
            breakdown=overlap_breakdown(
                compute, comm,
                registry.end_time() if total is None else total),
            stages=stage_attribution(compute, comm,
                                     stage_boundaries(registry)),
            plan_stages=plan_stage_attribution(_dma_stage_spans(registry),
                                               compute),
        )
    return case


@dataclass
class OverlapReport:
    """The profiler's cross-case report (the ``profile`` subcommand)."""

    cases: List[CaseProfile] = field(default_factory=list)
    fast: bool = True

    def add(self, case: CaseProfile) -> None:
        self.cases.append(case)

    def configs(self) -> List[str]:
        names: List[str] = []
        for case in self.cases:
            for name in case.configs:
                if name not in names:
                    names.append(name)
        return names

    def exposed_reduction_table(self) -> SpeedupTable:
        """Exposed-communication reduction vs Sequential, speedup-style
        (geomean + max via the shared :class:`SpeedupTable` reducer)."""
        table = SpeedupTable(baseline_name="Sequential")
        for case in self.cases:
            if "Sequential" not in case.configs:
                continue
            base = max(case.exposed_ns("Sequential"), _EXPOSED_FLOOR_NS)
            for name in case.configs:
                if name == "Sequential":
                    continue
                exposed = max(case.exposed_ns(name), _EXPOSED_FLOOR_NS)
                table.add(case.label, name, base / exposed)
        return table

    def check_strict_hiding(self, config: str = "T3-MCA",
                            baseline: str = "Sequential") -> bool:
        """True when ``config`` hides strictly more communication than
        ``baseline`` for *every* profiled case (the headline invariant)."""
        relevant = [case for case in self.cases
                    if config in case.configs and baseline in case.configs]
        if not relevant:
            return False
        return all(case.hidden_ns(config) > case.hidden_ns(baseline)
                   for case in relevant)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fast": self.fast,
            "cases": [case.to_dict() for case in self.cases],
            "strict_hiding": {
                config: self.check_strict_hiding(config)
                for config in self.configs() if config != "Sequential"
            },
        }

    def render(self) -> str:
        lines: List[str] = []
        mode = "fast" if self.fast else "full"
        lines.append(f"Overlap profile ({mode} mode, times in us)")
        configs = self.configs()
        width = max((len(c.label) for c in self.cases), default=4) + 2
        header = ("case".ljust(width)
                  + "config".rjust(12) + "compute".rjust(11)
                  + "comm".rjust(11) + "hidden".rjust(11)
                  + "exposed".rjust(11) + "hidden%".rjust(9))
        lines.append(header)
        lines.append("-" * len(header))
        for case in self.cases:
            for index, name in enumerate(configs):
                profile = case.configs.get(name)
                if profile is None:
                    continue
                b = profile.breakdown
                label = case.label if index == 0 else ""
                lines.append(
                    label.ljust(width) + name.rjust(12)
                    + f"{b.compute_ns / 1e3:>11.1f}"
                    + f"{b.comm_ns / 1e3:>11.1f}"
                    + f"{b.hidden_ns / 1e3:>11.1f}"
                    + f"{b.exposed_ns / 1e3:>11.1f}"
                    + f"{100 * b.overlap_efficiency:>8.1f}%")
            lines.append("")
        table = self.exposed_reduction_table()
        if table.rows:
            lines.append(table.render(
                "Exposed-communication reduction vs Sequential "
                "(ratio, higher is better)"))
        for name in configs:
            if name == "Sequential":
                continue
            verdict = ("strictly more comm hidden than Sequential in "
                       "every case"
                       if self.check_strict_hiding(name)
                       else "DID NOT hide more comm than Sequential in "
                            "every case")
            lines.append(f"{name}: {verdict}")
        # Per-stage attribution for the last case's T3-MCA run (the
        # critical-path view; every case is available in the JSON dump).
        for case in reversed(self.cases):
            profile = case.configs.get("T3-MCA")
            if profile is None or not profile.stages:
                continue
            lines.append("")
            lines.append(f"Critical-path attribution per ring stage "
                         f"({case.label}, T3-MCA):")
            for stage in profile.stages:
                lines.append(
                    f"  stage {stage.stage:>2}: "
                    f"{stage.duration_ns / 1e3:>9.1f} us  "
                    f"compute={stage.compute_ns / 1e3:>8.1f}  "
                    f"hidden={stage.hidden_ns / 1e3:>8.1f}  "
                    f"exposed={stage.exposed_ns / 1e3:>8.1f}  "
                    f"[{stage.dominant}]")
            break
        return "\n".join(lines)
