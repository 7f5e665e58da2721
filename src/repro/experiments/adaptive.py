"""Adaptive overlap-policy study: does closing the telemetry loop pay?

The static paper policy (:class:`~repro.policy.StaticPaperPolicy`) picks
one MCA occupancy threshold per producer kernel and never revisits it.
:class:`~repro.policy.AdaptiveMcaPolicy` retunes that threshold
mid-kernel from the gate-deferral EWMA sampled at the arbiter sites.
This experiment measures where that adaptivity actually pays, on the
three weak-spot suites the ROADMAP calls out plus a healthy control:

* **degraded-link** — GPU 0's send link at 50% bandwidth (the
  fault-sweep's flaky-retimer scenario): the ring stretches, partials
  arrive late, and a tight static gate keeps deferring the comm that
  the elongated timeline could hide;
* **straggler** — GPU 0's compute slowed 1.5x: same story from the
  compute side;
* **hierarchical** — the scale-out 2-node x 4-GPU fused run, where the
  inter-node rail phase concentrates exposure;
* **mixed** — the healthy Mega-GPT-2 TP=8 sub-layer sequence, the
  control group (adaptivity should at worst break even here).

Every case runs the fused **T3-MCA** configuration twice — once per
policy, explicitly pinned via ``SystemConfig.with_policy`` so the
process-wide ``--policy`` default cannot skew the comparison — and
reports the machine-level **exposed communication time** from
:func:`repro.obs.profiler.decompose`.  The suites run at a finer
memory-transaction quantum (:data:`ADAPTIVE_QUANTUM`) than the figure
sweeps: the occupancy gate arbitrates per request, and at the default
64 KiB quantum a fast-mode chunk is a handful of transactions — too
coarse for per-request admission to be exercised at all.

Runs are uncached by design (each carries a per-run metrics registry,
which the sweep cache cannot hold); ``trace_out`` re-runs the first
straggler case with a trace recorder attached and saves it with the
registry snapshot, so ``runner trace --pass policy-decisions`` can join
the per-decision policy instants against the arbiter's deferral
attribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig, table1_system
from repro.experiments.fault_sweep import SWEEP_SEED
from repro.experiments.fault_sweep import default_cases as fault_cases
from repro.experiments.common import (
    _fresh_topology,
    _run_fused,
    scaled_shape,
)
from repro.experiments.sublayer_sweep import (
    FAST_SCALE,
    save_case_trace,
    simulate_case,
)
from repro.faults import ANY, FaultPlan
from repro.models import zoo
from repro.obs import MetricsRegistry
from repro.obs.profiler import decompose

#: memory-transaction quantum for every policy-study run (see module
#: docstring — the admission gate needs per-request granularity).
ADAPTIVE_QUANTUM = 8 * 1024

#: configurations simulated per case (Sequential anchors the suite; the
#: policies are compared on the fused T3-MCA run).
CONFIGS: Tuple[str, ...] = ("Sequential", "T3-MCA")

#: the two policies under comparison.
POLICY_KINDS: Tuple[str, ...] = ("static", "adaptive")

#: degraded-link severity (bandwidth fraction of GPU 0's send link).
LINK_FACTOR = 0.5

#: straggler severity (GPU 0 compute-slowdown factor).
STRAGGLER_FACTOR = 1.5

#: the suites whose exposed-communication reduction feeds the bench
#: payload's geomean (the faulty suites the acceptance bar is set on).
FAULT_SUITES: Tuple[str, ...] = ("degraded-link", "straggler")


@dataclass
class PolicyMeasure:
    """One policy's measurement of one case's fused T3-MCA run."""

    total_ns: float
    exposed_ns: float
    hidden_ns: float
    retunes: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {"total_ns": self.total_ns, "exposed_ns": self.exposed_ns,
                "hidden_ns": self.hidden_ns, "retunes": self.retunes}


@dataclass
class PolicyCase:
    """Static-vs-adaptive comparison on one case of one suite."""

    suite: str
    label: str
    static: PolicyMeasure
    adaptive: PolicyMeasure

    @property
    def exposed_delta_ns(self) -> float:
        """Exposed-communication time saved by the adaptive policy."""
        return self.static.exposed_ns - self.adaptive.exposed_ns

    @property
    def exposed_reduction(self) -> float:
        """Fraction of static exposure the adaptive policy removed."""
        if self.static.exposed_ns <= 0:
            return 0.0
        return self.exposed_delta_ns / self.static.exposed_ns


@dataclass
class AdaptiveResult:
    """All suites of the policy study, ready to render."""

    fast: bool
    cases: List[PolicyCase] = field(default_factory=list)

    def suite(self, name: str) -> List[PolicyCase]:
        return [case for case in self.cases if case.suite == name]

    def suite_names(self) -> List[str]:
        seen: List[str] = []
        for case in self.cases:
            if case.suite not in seen:
                seen.append(case.suite)
        return seen

    def suite_exposed(self, name: str) -> Tuple[float, float]:
        """(static, adaptive) exposed-communication totals of a suite."""
        selected = self.suite(name)
        return (sum(c.static.exposed_ns for c in selected),
                sum(c.adaptive.exposed_ns for c in selected))

    def adaptive_wins(self, name: str) -> bool:
        """Strictly less suite-level exposed comm under the adaptive
        policy (the acceptance bar for the faulty suites)."""
        static, adaptive = self.suite_exposed(name)
        return adaptive < static

    def geomean_exposed_reduction(self) -> float:
        """Geomean exposed-comm reduction across the faulty suites.

        Computed from the suite-level static/adaptive exposure ratios
        (speedup-style, as ``repro.analysis.metrics`` aggregates), then
        re-expressed as a reduction fraction: 0.01 means the adaptive
        policy removed 1% of the static policy's exposed time.
        """
        logs = []
        for name in FAULT_SUITES:
            static, adaptive = self.suite_exposed(name)
            if static > 0 and adaptive > 0:
                logs.append(math.log(static / adaptive))
        if not logs:
            return 0.0
        return 1.0 - 1.0 / math.exp(sum(logs) / len(logs))

    def to_dict(self) -> Dict[str, object]:
        """The bench payload's ``policy`` block (schema v4)."""
        return {
            "suites": {
                name: {
                    "static_exposed_ns": self.suite_exposed(name)[0],
                    "adaptive_exposed_ns": self.suite_exposed(name)[1],
                    "adaptive_wins": self.adaptive_wins(name),
                }
                for name in self.suite_names()
            },
            "adaptive_wins": all(self.adaptive_wins(name)
                                 for name in FAULT_SUITES),
            "geomean_exposed_reduction": self.geomean_exposed_reduction(),
        }

    def render(self) -> str:
        lines = [
            "Adaptive overlap policy — StaticPaperPolicy vs "
            "AdaptiveMcaPolicy on fused T3-MCA runs",
            "(exposed = communication activity outside every compute "
            f"span; {ADAPTIVE_QUANTUM // 1024} KiB transaction quantum)",
        ]
        descriptions = {
            "degraded-link": f"GPU-0 send link at {LINK_FACTOR:.0%} "
                             "bandwidth",
            "straggler": f"GPU-0 compute slowed x{STRAGGLER_FACTOR:.2f}",
            "hierarchical": "2 nodes x 4 GPUs, inter-node rail plan",
            "mixed": "healthy Mega-GPT-2 TP=8 sub-layer sequence",
        }
        for name in self.suite_names():
            lines.append("")
            lines.append(f"{name} ({descriptions.get(name, '')})")
            lines.append(f"  {'case':24} {'static':>10} {'adaptive':>10} "
                         f"{'delta':>8} {'retunes':>8}")
            for case in self.suite(name):
                lines.append(
                    f"  {case.label:24} "
                    f"{case.static.exposed_ns / 1e3:>8.1f}us "
                    f"{case.adaptive.exposed_ns / 1e3:>8.1f}us "
                    f"{case.exposed_reduction:>+7.2%} "
                    f"{case.adaptive.retunes:>8}")
            static, adaptive = self.suite_exposed(name)
            verdict = ("adaptive wins" if adaptive < static else
                       "tie" if adaptive == static else "adaptive loses")
            lines.append(
                f"  {'suite total':24} {static / 1e3:>8.1f}us "
                f"{adaptive / 1e3:>8.1f}us "
                f"{'':>8} -> {verdict}")
        lines.append("")
        lines.append(
            "geomean exposed-communication reduction (faulty suites): "
            f"{self.geomean_exposed_reduction():.2%}")
        return "\n".join(lines)


def _system(tp: int, kind: str) -> SystemConfig:
    return table1_system(n_gpus=tp).with_policy(kind).with_fidelity(
        quantum_bytes=ADAPTIVE_QUANTUM)


def _retunes(registry: Optional[MetricsRegistry]) -> int:
    if registry is None:
        return 0
    return int(sum(scope.counter("retunes.relax")
                   + scope.counter("retunes.tighten")
                   for scope in registry.scopes("policy")))


def _plan_for(suite: str) -> Optional[FaultPlan]:
    if suite == "degraded-link":
        return FaultPlan.degraded_link(src=0, dst=ANY,
                                       bandwidth_factor=LINK_FACTOR,
                                       seed=SWEEP_SEED)
    if suite == "straggler":
        return FaultPlan.straggler(gpu_id=0, factor=STRAGGLER_FACTOR,
                                   seed=SWEEP_SEED)
    return None


def _measure_sublayer(sub, scale: int, kind: str,
                      faults: Optional[FaultPlan]) -> PolicyMeasure:
    """One fused T3-MCA run of one sub-layer case under one policy."""
    sink: Dict[str, MetricsRegistry] = {}
    suite = simulate_case(sub, scale, _system(sub.tp, kind),
                          configs=list(CONFIGS), faults=faults,
                          check_invariants=True, obs_sink=sink)
    registry = sink["T3-MCA"]
    breakdown = decompose(registry, total_ns=suite.times["T3-MCA"])
    return PolicyMeasure(total_ns=suite.times["T3-MCA"],
                         exposed_ns=breakdown.exposed_ns,
                         hidden_ns=breakdown.hidden_ns,
                         retunes=_retunes(registry))


def _sublayer_suite(result: AdaptiveResult, name: str, cases, scale: int,
                    progress=None) -> None:
    plan = _plan_for(name)
    for sub in cases:
        if progress is not None:
            progress(f"{name}: {sub.label}")
        measures = {kind: _measure_sublayer(sub, scale, kind, plan)
                    for kind in POLICY_KINDS}
        result.cases.append(PolicyCase(
            suite=name, label=sub.label,
            static=measures["static"], adaptive=measures["adaptive"]))


def _hierarchical_suite(result: AdaptiveResult, fast: bool,
                        progress=None) -> None:
    """The scale-out 2-node fused run, once per policy."""
    sub = zoo.t_nlg().sublayer("FC-2", 8)
    shape = scaled_shape(sub.gemm, 16 if fast else 1)
    if progress is not None:
        progress(f"hierarchical: {sub.label}")
    measures = {}
    for kind in POLICY_KINDS:
        registry = MetricsRegistry()
        _fused, duration = _run_fused(
            _fresh_topology(_system(8, kind), "mca", check_invariants=True,
                            obs=registry, gpus_per_node=4),
            shape, calibrate_mca=True, all_gather=False)
        breakdown = decompose(registry, total_ns=duration)
        measures[kind] = PolicyMeasure(
            total_ns=duration, exposed_ns=breakdown.exposed_ns,
            hidden_ns=breakdown.hidden_ns, retunes=_retunes(registry))
    result.cases.append(PolicyCase(
        suite="hierarchical", label=f"{sub.label} 2x4",
        static=measures["static"], adaptive=measures["adaptive"]))


def quick_policy_point(fast: bool = True) -> AdaptiveResult:
    """The cheap bench probe: just the two faulty suites on the first
    fault case (enough to compute the schema-v4 ``policy`` block)."""
    result = AdaptiveResult(fast=fast)
    scale = FAST_SCALE if fast else 1
    cases = fault_cases()[:1]
    for name in FAULT_SUITES:
        _sublayer_suite(result, name, cases, scale)
    return result


def run(fast: bool = True, trace_out: Optional[str] = None,
        progress=None) -> AdaptiveResult:
    """Run the full four-suite policy study."""
    result = AdaptiveResult(fast=fast)
    scale = FAST_SCALE if fast else 1
    cases = fault_cases()
    for name in FAULT_SUITES:
        _sublayer_suite(result, name, cases, scale, progress=progress)
    _hierarchical_suite(result, fast, progress=progress)
    _sublayer_suite(result, "mixed", zoo.megatron_gpt2().ar_sublayers(8),
                    scale, progress=progress)
    if trace_out is not None:
        # The first straggler case under the adaptive policy: its trace
        # carries the per-decision policy instants the registry's
        # ``policy-decisions`` pass joins against.
        sub = fault_cases()[0]
        save_case_trace(sub, scale, _system(sub.tp, "adaptive"),
                        _plan_for("straggler"), trace_out)
    return result
