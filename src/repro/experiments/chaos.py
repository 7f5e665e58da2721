"""Chaos campaign: the resilience layer vs a seeded fault barrage.

Every scenario injects one fault (kind x severity x topology x
scheduler x seed, all drawn deterministically from the campaign seed)
into a fused GEMM-RS and measures three things:

* the **no-response baseline** — the same fused run without the
  resilience layer.  Dropped DMA completions and Tracker evictions
  deadlock it (diagnosed by the drain check / watchdog, never a hang);
* the **resilient run** — a :class:`~repro.resilience.ResilienceRuntime`
  attached, walking the :class:`~repro.resilience.ScenarioLadder` on
  failure: RUN -> RETRY (escalated deadlines/budgets) -> REPAIR (the
  plan rebuilt around the runtime's diagnosis) -> FALLBACK (plan-driven
  Sequential on the same faulty machine);
* a **Sequential reference** under the identical fault plan, so retained
  speedup means "how much of T3's win survives the fault *and* the
  recovery overhead".

The report (``results/chaos.txt``) aggregates survival rate, MTTR (mean
time-to-recover over every in-run recovery action), rung distribution
and retained speedup per fault kind, plus the campaign-wide acceptance
numbers: zero invariant violations, zero watchdog hangs, resilient
survival >= 95%.

Scenarios run under a generous event-count watchdog so a regression can
never hang the campaign — a deadlock surfaces as a diagnosed failure.
Nothing here touches the sweep cache: every run is faulty by design and
simulated fresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig, table1_system
from repro.experiments.common import _fresh_topology, _run_sequential
from repro.faults import (
    FaultPlan,
    InvariantViolation,
    LinkDegradation,
    TrackerPressure,
)
from repro.gpu.wavefront import GEMMShape
from repro.resilience import (
    LadderRung,
    RepairResult,
    ResiliencePolicy,
    ResilienceRuntime,
    ScenarioLadder,
    repair_for_diagnosis,
)
from repro.sim.engine import SimulationError
from repro.t3.fusion import FusedGEMMRS

#: deterministic root seed; every scenario's draws derive from it.
CAMPAIGN_SEED = 747

#: the fault kinds swept (one injected fault per scenario).
FAULT_KINDS: Tuple[str, ...] = ("dropped-dma", "tracker-pressure",
                                "degraded-link", "link-stall", "straggler")

#: severity names, index-aligned with the per-kind parameter tables.
SEVERITIES: Tuple[str, ...] = ("mild", "moderate", "severe")

#: per-kind severity parameters (mild, moderate, severe).
DROP_EVENTS = (1, 2, 3)                  # dropped completions
EVICT_EVERY = (8, 5, 3)                  # force-evict cadence
BANDWIDTH_FACTORS = (0.5, 0.25, 0.1)     # degraded-link fraction
STALLS = ((4_000.0, 0.3), (8_000.0, 0.5), (16_000.0, 0.8))  # (ns, prob)
STRAGGLER_FACTORS = (1.5, 2.0, 3.0)      # compute slowdown

#: the two fused schedulers exercised per scenario.
SCHEDULERS: Tuple[str, ...] = ("T3", "T3-MCA")

#: seeds per (kind, severity, topology, scheduler) cell.
FAST_SEEDS = 4
FULL_SEEDS = 8

#: chunkable-but-quick shape: 4x4 macro tiles on the Table-1 system.
CHAOS_SHAPE = GEMMShape(m=512, n=512, k=512, name="chaos-512")

#: event budget per run — two orders of magnitude above a healthy run
#: (~3k events), so only a genuine runaway trips it.
WATCHDOG_EVENTS = 2_000_000


@dataclass(frozen=True)
class TopologySpec:
    """One campaign topology: a flat ring or a node-grouped hierarchy."""

    name: str
    n_gpus: int
    gpus_per_node: Optional[int] = None


TOPOLOGIES: Tuple[TopologySpec, ...] = (
    TopologySpec("ring-4", 4),
    TopologySpec("hier-2x4", 8, gpus_per_node=4),
)


def _draw(seed: int, *key) -> int:
    """Deterministic 64-bit draw from the campaign seed + a key tuple."""
    payload = repr((CAMPAIGN_SEED, seed) + key).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class ChaosScenario:
    """One fully-resolved campaign cell."""

    index: int
    kind: str
    severity: str
    topology: TopologySpec
    scheduler: str
    seed: int
    plan: FaultPlan
    detail: str


def _ring_edges(spec: TopologySpec) -> List[Tuple[int, int]]:
    """The directed edges a ring-RS plan on ``spec`` can use (forward
    intra edges, node closures and rails for hierarchies) — the pool a
    link fault's target is drawn from, so every injected link fault hits
    an edge the collective actually exercises."""
    n = spec.n_gpus
    if not spec.gpus_per_node:
        return [(r, (r - 1) % n) for r in range(n)]
    per = spec.gpus_per_node
    n_nodes = n // per
    edges: List[Tuple[int, int]] = []
    for k in range(n_nodes):
        base = k * per
        # forward intra-node ring (position g sends to g-1, wrapping via
        # the node-closure link).
        for g in range(per):
            edges.append((base + g, base + (g - 1) % per))
        # inter-node rails: same position, next node down.
        for g in range(per):
            edges.append((base + g, ((k - 1) % n_nodes) * per + g))
    return edges


def _fault_for(kind: str, severity: str, spec: TopologySpec,
               seed: int) -> Tuple[FaultPlan, str]:
    """Build the scenario's fault plan; targets are seeded draws."""
    level = SEVERITIES.index(severity)
    draw = _draw(seed, kind, severity, spec.name)
    if kind == "dropped-dma":
        gpu = draw % spec.n_gpus
        events = DROP_EVENTS[level]
        return (FaultPlan.dropped_dma(gpu_id=gpu, max_events=events,
                                      seed=seed),
                f"drop {events} completion(s) on gpu{gpu}")
    if kind == "tracker-pressure":
        gpu = draw % spec.n_gpus
        every = EVICT_EVERY[level]
        return (FaultPlan(seed=seed, tracker=(
                    TrackerPressure(gpu_id=gpu, evict_every=every),)),
                f"force-evict every {every}th region on gpu{gpu}")
    if kind == "degraded-link":
        edges = _ring_edges(spec)
        src, dst = edges[draw % len(edges)]
        factor = BANDWIDTH_FACTORS[level]
        return (FaultPlan.degraded_link(src=src, dst=dst,
                                        bandwidth_factor=factor, seed=seed),
                f"link {src}->{dst} at {factor:.0%} bandwidth")
    if kind == "link-stall":
        edges = _ring_edges(spec)
        src, dst = edges[draw % len(edges)]
        stall_ns, prob = STALLS[level]
        return (FaultPlan(seed=seed, links=(LinkDegradation(
                    src=src, dst=dst, stall_ns=stall_ns,
                    stall_probability=prob),)),
                f"link {src}->{dst} stalls {stall_ns:.0f}ns @ p={prob}")
    if kind == "straggler":
        gpu = draw % spec.n_gpus
        factor = STRAGGLER_FACTORS[level]
        return (FaultPlan.straggler(gpu_id=gpu, factor=factor, seed=seed),
                f"gpu{gpu} computes {factor}x slower")
    raise ValueError(f"unknown chaos fault kind {kind!r}")


def campaign_scenarios(seeds: int = FAST_SEEDS) -> List[ChaosScenario]:
    """The full deterministic scenario grid, in a stable order."""
    scenarios: List[ChaosScenario] = []
    index = 0
    for kind in FAULT_KINDS:
        for severity in SEVERITIES:
            for spec in TOPOLOGIES:
                for scheduler in SCHEDULERS:
                    for seed in range(seeds):
                        plan, detail = _fault_for(kind, severity, spec,
                                                  seed)
                        scenarios.append(ChaosScenario(
                            index=index, kind=kind, severity=severity,
                            topology=spec, scheduler=scheduler, seed=seed,
                            plan=plan, detail=detail))
                        index += 1
    return scenarios


# -- per-scenario execution ----------------------------------------------------


@dataclass
class Attempt:
    """One simulated run inside a scenario (any rung)."""

    ok: bool
    duration: float = 0.0
    error: str = ""
    runtime: Optional[ResilienceRuntime] = None
    plan: Optional[object] = None        # the fused CollectivePlan used
    invariant_violation: bool = False
    watchdog: bool = False

    @property
    def survived(self) -> bool:
        return self.ok and not self.invariant_violation


def _attempt_fused(scenario: ChaosScenario, system: SystemConfig,
                   resilience: Optional[ResiliencePolicy],
                   plan_override=None, trace=None, obs=None) -> Attempt:
    """One fused GEMM-RS run; failures come back diagnosed, not raised."""
    mca = scenario.scheduler == "T3-MCA"
    topo = _fresh_topology(
        system, "mca" if mca else "compute-priority", faults=scenario.plan,
        check_invariants=True, obs=obs, resilience=resilience, trace=trace,
        gpus_per_node=scenario.topology.gpus_per_node,
        watchdog_events=WATCHDOG_EVENTS)
    runtime = topo.env.resilience
    collective_plan = None
    try:
        fused = FusedGEMMRS(topo, CHAOS_SHAPE, calibrate_mca=mca,
                            plan=plan_override)
        collective_plan = fused.plan
        result = fused.run()
    except (SimulationError, RuntimeError) as exc:
        return Attempt(ok=False, error=str(exc), runtime=runtime,
                       plan=collective_plan,
                       watchdog="watchdog" in str(exc).lower())
    attempt = Attempt(ok=True, duration=result.duration, runtime=runtime,
                      plan=collective_plan)
    try:
        topo.env.invariants.check_all()
    except InvariantViolation as exc:
        attempt.invariant_violation = True
        attempt.error = str(exc)
    return attempt


@dataclass
class ScenarioOutcome:
    """Everything measured for one scenario."""

    scenario: ChaosScenario
    baseline_survived: bool
    baseline_time: Optional[float]
    baseline_error: str
    resilient_survived: bool
    resilient_time: Optional[float]
    rung: LadderRung
    repair_action: str
    sequential_time: Optional[float]
    detections: int
    recoveries: int
    mttr_ns: Optional[float]
    invariant_violation: bool
    watchdog_hang: bool

    @property
    def retained_speedup(self) -> Optional[float]:
        if not self.resilient_survived or not self.sequential_time \
                or not self.resilient_time:
            return None
        return self.sequential_time / self.resilient_time

    @property
    def baseline_speedup(self) -> Optional[float]:
        if not self.baseline_survived or not self.sequential_time \
                or not self.baseline_time:
            return None
        return self.sequential_time / self.baseline_time


def _maybe_repair(attempt: Attempt) -> Optional[RepairResult]:
    """A plan repair derived from the failed attempt's diagnosis, when
    the monitors saw anything actionable."""
    if attempt.runtime is None or attempt.plan is None:
        return None
    repair = repair_for_diagnosis(attempt.plan,
                                  attempt.runtime.diagnosis())
    return repair if repair.changed else None


def run_scenario(scenario: ChaosScenario,
                 system: SystemConfig) -> ScenarioOutcome:
    """Baseline, resilient ladder walk and Sequential reference for one
    scenario."""
    baseline = _attempt_fused(scenario, system, resilience=None)
    # Sequential GEMM + plan-driven reduce-scatter on the same faulty
    # machine: both the FALLBACK rung and the retained-speedup reference.
    # It runs in a fresh environment: no armed deadline timers, no DMA
    # engines for the faults to kill.
    try:
        gemm_time, rs_time, _ = _run_sequential(_fresh_topology(
            system, "compute-priority", faults=scenario.plan,
            check_invariants=True,
            gpus_per_node=scenario.topology.gpus_per_node,
            watchdog_events=WATCHDOG_EVENTS), CHAOS_SHAPE, all_gather=False)
        sequential_time: Optional[float] = gemm_time + rs_time
    except (SimulationError, RuntimeError):
        sequential_time = None

    policy = ResiliencePolicy()
    ladder = ScenarioLadder(max_retries=1)
    runtimes: List[ResilienceRuntime] = []
    repair_action = ""

    current = _attempt_fused(scenario, system, resilience=policy)
    if current.runtime is not None:
        runtimes.append(current.runtime)
    ladder.settled(LadderRung.RUN, current.survived)
    rung = LadderRung.RUN
    while not current.survived:
        repair = _maybe_repair(current)
        rung = ladder.next_rung(can_repair=repair is not None)
        if rung is LadderRung.DEAD:
            break
        if rung is LadderRung.RETRY:
            current = _attempt_fused(
                scenario, system,
                resilience=policy.escalated(ladder.retry_attempt))
        elif rung is LadderRung.REPAIR:
            repair_action = repair.action
            current = _attempt_fused(scenario, system, resilience=policy,
                                     plan_override=repair.plan)
        else:  # FALLBACK: plan-driven Sequential on the faulty machine
            if sequential_time is not None:
                current = Attempt(ok=True, duration=sequential_time)
            else:
                current = Attempt(ok=False,
                                  error="fallback Sequential failed too")
        if current.runtime is not None:
            runtimes.append(current.runtime)
        ladder.settled(rung, current.survived)

    records = [r for rt in runtimes for r in rt.recoveries]
    mttr = (sum(r.time_to_recover_ns for r in records) / len(records)
            if records else None)
    return ScenarioOutcome(
        scenario=scenario,
        baseline_survived=baseline.survived,
        baseline_time=baseline.duration if baseline.survived else None,
        baseline_error=baseline.error.splitlines()[0] if baseline.error
        else "",
        resilient_survived=current.survived,
        resilient_time=current.duration if current.survived else None,
        rung=rung,
        repair_action=repair_action,
        sequential_time=sequential_time,
        detections=sum(rt.detections for rt in runtimes),
        recoveries=len(records),
        mttr_ns=mttr,
        invariant_violation=(baseline.invariant_violation
                             or current.invariant_violation),
        watchdog_hang=baseline.watchdog or current.watchdog,
    )


# -- campaign aggregation ------------------------------------------------------


@dataclass
class ChaosResult:
    """The whole campaign, with the acceptance numbers precomputed."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def survival_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return (sum(o.resilient_survived for o in self.outcomes)
                / len(self.outcomes))

    @property
    def baseline_survival_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return (sum(o.baseline_survived for o in self.outcomes)
                / len(self.outcomes))

    @property
    def invariant_violations(self) -> int:
        return sum(o.invariant_violation for o in self.outcomes)

    @property
    def watchdog_hangs(self) -> int:
        return sum(o.watchdog_hang for o in self.outcomes)

    def mttr_ns(self) -> Optional[float]:
        """Campaign MTTR: mean time-to-recover over every in-run
        recovery action (re-issued completions, restored regions)."""
        with_recoveries = [o for o in self.outcomes if o.mttr_ns is not None]
        if not with_recoveries:
            return None
        total = sum(o.mttr_ns * o.recoveries for o in with_recoveries)
        count = sum(o.recoveries for o in with_recoveries)
        return total / count if count else None

    def mean_retained_speedup(self) -> Optional[float]:
        ratios = [o.retained_speedup for o in self.outcomes
                  if o.retained_speedup is not None]
        return sum(ratios) / len(ratios) if ratios else None

    def mean_baseline_speedup(self) -> Optional[float]:
        ratios = [o.baseline_speedup for o in self.outcomes
                  if o.baseline_speedup is not None]
        return sum(ratios) / len(ratios) if ratios else None

    def rung_distribution(self) -> Dict[str, int]:
        dist: Dict[str, int] = {}
        for o in self.outcomes:
            rung = o.rung.value if o.resilient_survived else "dead"
            dist[rung] = dist.get(rung, 0) + 1
        return dist

    def summary(self) -> Dict[str, object]:
        """The bench-schema payload (see ``repro.obs.bench`` v3)."""
        return {
            "scenarios": self.n_scenarios,
            "survival_rate": round(self.survival_rate, 4),
            "baseline_survival_rate": round(self.baseline_survival_rate,
                                            4),
            "mttr_ns": self.mttr_ns(),
            "retained_speedup": self.mean_retained_speedup(),
            "invariant_violations": self.invariant_violations,
            "watchdog_hangs": self.watchdog_hangs,
        }

    def render(self) -> str:
        lines = ["Chaos campaign — resilience layer vs seeded faults",
                 f"({self.n_scenarios} scenarios: "
                 f"{len(FAULT_KINDS)} fault kinds x "
                 f"{len(SEVERITIES)} severities x "
                 f"{len(TOPOLOGIES)} topologies x "
                 f"{len(SCHEDULERS)} schedulers x seeds; "
                 f"shape {CHAOS_SHAPE.name})", ""]
        header = (f"  {'fault kind':<18}{'severity':<10}"
                  f"{'baseline':>9}  {'resilient':>9}  {'recoveries':>10}"
                  f"  {'mttr(ns)':>9}  {'retained':>8}")
        lines.append(header)
        for kind in FAULT_KINDS:
            for severity in SEVERITIES:
                cell = [o for o in self.outcomes
                        if o.scenario.kind == kind
                        and o.scenario.severity == severity]
                if not cell:
                    continue
                base = sum(o.baseline_survived for o in cell)
                res = sum(o.resilient_survived for o in cell)
                recs = sum(o.recoveries for o in cell)
                mttrs = [o.mttr_ns for o in cell if o.mttr_ns is not None]
                weights = [o.recoveries for o in cell
                           if o.mttr_ns is not None]
                mttr = (sum(m * w for m, w in zip(mttrs, weights))
                        / sum(weights)) if weights and sum(weights) else None
                ratios = [o.retained_speedup for o in cell
                          if o.retained_speedup is not None]
                retained = sum(ratios) / len(ratios) if ratios else None
                lines.append(
                    f"  {kind:<18}{severity:<10}"
                    f"{f'{base}/{len(cell)}':>9}  "
                    f"{f'{res}/{len(cell)}':>9}  {recs:>10}  "
                    + (f"{mttr:>9.0f}" if mttr is not None
                       else f"{'-':>9}")
                    + (f"  {retained:>8.3f}" if retained is not None
                       else f"  {'-':>8}"))
        lines.append("")
        dist = self.rung_distribution()
        rungs = ", ".join(f"{name}={dist[name]}" for name in
                          ("run", "retry", "repair", "fallback", "dead")
                          if name in dist)
        lines.append(f"  survival rungs: {rungs}")
        mttr = self.mttr_ns()
        retained = self.mean_retained_speedup()
        base_speedup = self.mean_baseline_speedup()
        lines.append(
            f"  survival rate: resilient {self.survival_rate:.1%} vs "
            f"no-response baseline {self.baseline_survival_rate:.1%}")
        lines.append(
            "  MTTR: " + (f"{mttr:.0f} ns over "
                          f"{sum(o.recoveries for o in self.outcomes)} "
                          "in-run recoveries" if mttr is not None
                          else "no in-run recoveries"))
        lines.append(
            "  retained T3 speedup vs Sequential (same faults): "
            + (f"{retained:.3f}x resilient" if retained is not None
               else "n/a")
            + (f" vs {base_speedup:.3f}x baseline (survivors only)"
               if base_speedup is not None else ""))
        lines.append(
            f"  invariant violations: {self.invariant_violations}; "
            f"watchdog hangs: {self.watchdog_hangs}")
        return "\n".join(lines)


def trace_scenario(scenario: ChaosScenario, system: SystemConfig,
                   trace_out: str) -> None:
    """Save a decomposition-grade trace of one scenario's resilient
    fused attempt: spans + fault/resilience incident markers + counter
    tracks + registry snapshot, the input to ``runner trace``."""
    from repro.analysis.trace import TraceRecorder
    from repro.obs import MetricsRegistry
    trace = TraceRecorder(record_dram=True)
    registry = MetricsRegistry()
    _attempt_fused(scenario, system, resilience=ResiliencePolicy(),
                   trace=trace, obs=registry)
    trace.save(trace_out, registry=registry)


def run(fast: bool = True, seeds: Optional[int] = None,
        progress=None, trace_out: Optional[str] = None) -> ChaosResult:
    """Run the campaign (240 scenarios fast, 480 full).

    ``trace_out`` additionally saves a trace of one representative
    scenario's resilient run (the first severe dropped-DMA T3-MCA cell —
    faults manifest *and* recoveries fire, so the incident overlay has
    something to show).
    """
    n_seeds = seeds if seeds is not None else (FAST_SEEDS if fast
                                               else FULL_SEEDS)
    # Built per call: a config captures the process-wide overlap-policy
    # default when it is constructed.
    systems = {spec.n_gpus: table1_system(n_gpus=spec.n_gpus)
               for spec in TOPOLOGIES}
    result = ChaosResult()
    scenarios = campaign_scenarios(seeds=n_seeds)
    for scenario in scenarios:
        outcome = run_scenario(scenario, systems[scenario.topology.n_gpus])
        result.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    if trace_out is not None:
        representative = next(
            (s for s in scenarios if s.kind == "dropped-dma"
             and s.severity == "severe" and s.scheduler == "T3-MCA"),
            scenarios[0])
        trace_scenario(representative,
                       systems[representative.topology.n_gpus], trace_out)
    return result
