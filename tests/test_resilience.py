"""Unit tests for the resilience layer: policy ladder, detection
monitors, plan repair, the runtime's recovery bookkeeping, and the chaos
campaign's registration/determinism."""

import pytest

from repro.collectives.plan import (
    direct_rs_plan,
    hierarchical_rs_plan,
    ring_reduce_scatter_plan,
)
from repro.config import set_default_overlap_policy, table1_system
from repro.experiments import chaos
from repro.faults import FaultPlan
from repro.resilience import (
    LadderRung,
    ResiliencePolicy,
    ResilienceRuntime,
    RunState,
)
from repro.resilience.detect import (
    Diagnosis,
    Ewma,
    LinkFinding,
    LinkHealthMonitor,
    StragglerDetector,
    StragglerFinding,
)
from repro.resilience.policy import CollectiveStateMachine, ScenarioLadder
from repro.resilience.repair import (
    demote_rank,
    exclude_rank,
    repair_for_diagnosis,
    reroute_off_link,
)

# ------------------------------------------------------------------ policy


def test_policy_rejects_bad_knobs():
    with pytest.raises(ValueError, match="deadline_slack"):
        ResiliencePolicy(deadline_slack=0.5)
    with pytest.raises(ValueError, match="backoff"):
        ResiliencePolicy(backoff=0.9)
    with pytest.raises(ValueError, match="ewma_alpha"):
        ResiliencePolicy(ewma_alpha=0.0)
    with pytest.raises(ValueError, match="budgets"):
        ResiliencePolicy(max_reissues_per_command=-1)
    with pytest.raises(ValueError, match="thresholds"):
        ResiliencePolicy(link_degraded_threshold=1.0)


def test_policy_escalation_doubles_deadlines_and_budgets():
    base = ResiliencePolicy()
    first = base.escalated(1)
    assert first.deadline_slack == base.deadline_slack * 2
    assert first.deadline_floor_ns == base.deadline_floor_ns * 2
    assert first.max_reissues_per_command == \
        base.max_reissues_per_command * 2
    assert first.max_deadline_extensions == \
        base.max_deadline_extensions + 1
    second = base.escalated(2)
    assert second.deadline_slack == base.deadline_slack * 4
    with pytest.raises(ValueError, match="1-based"):
        base.escalated(0)


def test_state_machine_validates_transitions():
    machine = CollectiveStateMachine()
    assert machine.state is RunState.HEALTHY
    assert not machine.ever_degraded
    machine.to(RunState.DEGRADED)
    machine.to(RunState.RECOVERED)
    machine.to(RunState.DEGRADED)      # a later fault re-degrades
    machine.to(RunState.FAILED)
    assert machine.ever_degraded
    assert len(machine.transitions) == 4
    with pytest.raises(ValueError, match="illegal"):
        machine.to(RunState.HEALTHY)   # FAILED is terminal


def test_state_machine_same_state_is_a_noop():
    machine = CollectiveStateMachine()
    machine.to(RunState.HEALTHY)
    assert machine.transitions == []
    with pytest.raises(ValueError, match="illegal"):
        machine.to(RunState.RECOVERED)  # healthy cannot skip degraded


def test_ladder_walks_escalation_order():
    ladder = ScenarioLadder(max_retries=1)
    assert ladder.next_rung() is LadderRung.RETRY
    assert ladder.retry_attempt == 1
    assert ladder.next_rung() is LadderRung.REPAIR
    assert ladder.next_rung() is LadderRung.FALLBACK
    assert ladder.next_rung() is LadderRung.DEAD


def test_ladder_skips_repair_when_no_repair_available():
    ladder = ScenarioLadder(max_retries=1)
    assert ladder.next_rung(can_repair=False) is LadderRung.RETRY
    assert ladder.next_rung(can_repair=False) is LadderRung.FALLBACK


def test_ladder_honours_retry_budget():
    ladder = ScenarioLadder(max_retries=2)
    assert ladder.next_rung() is LadderRung.RETRY
    assert ladder.next_rung() is LadderRung.RETRY
    assert ladder.retry_attempt == 2
    assert ladder.next_rung() is LadderRung.REPAIR
    none = ScenarioLadder(max_retries=0)
    assert none.next_rung() is LadderRung.REPAIR
    with pytest.raises(ValueError):
        ScenarioLadder(max_retries=-1)


# --------------------------------------------------------------- detection


def test_ewma_smooths_towards_samples():
    ewma = Ewma(alpha=0.5)
    assert ewma.observe(4.0) == 4.0      # first sample seeds the average
    assert ewma.observe(8.0) == 6.0
    assert ewma.samples == 2


def test_link_monitor_needs_a_peer_baseline():
    monitor = LinkHealthMonitor(ResiliencePolicy())
    for _ in range(4):
        monitor.observe(0, 1, observed_ns=50.0, expected_ns=10.0)
    assert monitor.findings() == []      # one link has no peers


def test_link_monitor_flags_the_degraded_outlier():
    policy = ResiliencePolicy()
    monitor = LinkHealthMonitor(policy)
    for _ in range(policy.min_samples):
        for (src, dst) in ((0, 1), (1, 2), (2, 3)):
            monitor.observe(src, dst, observed_ns=12.0, expected_ns=10.0)
        monitor.observe(3, 0, observed_ns=48.0, expected_ns=10.0)
    findings = monitor.findings()
    assert [(f.src, f.dst) for f in findings] == [(3, 0)]
    assert findings[0].service_ratio > policy.link_degraded_threshold


def test_link_monitor_ignores_immature_links():
    policy = ResiliencePolicy(min_samples=3)
    monitor = LinkHealthMonitor(policy)
    for (src, dst) in ((0, 1), (1, 2)):
        for _ in range(3):
            monitor.observe(src, dst, observed_ns=12.0, expected_ns=10.0)
    monitor.observe(2, 0, observed_ns=99.0, expected_ns=10.0)  # 1 sample
    assert monitor.findings() == []


def test_straggler_detector_flags_relative_outlier():
    policy = ResiliencePolicy()
    detector = StragglerDetector(policy)
    for _ in range(policy.min_samples):
        for gpu in range(3):
            detector.observe(gpu, 100.0)
        detector.observe(3, 400.0)
    findings = detector.findings()
    assert [f.gpu_id for f in findings] == [3]
    assert findings[0].latency_ratio > policy.straggler_threshold
    lone = StragglerDetector(policy)
    for _ in range(4):
        lone.observe(0, 500.0)
    assert lone.findings() == []         # a fleet of one has no baseline


def test_diagnosis_summary_names_the_faults():
    healthy = Diagnosis()
    assert healthy.healthy and healthy.summary() == "healthy"
    sick = Diagnosis(
        degraded_links=[LinkFinding(src=3, dst=0, service_ratio=4.0,
                                    samples=4)],
        stragglers=[StragglerFinding(gpu_id=1, latency_ratio=2.0,
                                     samples=4)])
    assert not sick.healthy
    assert "3->0" in sick.summary() and "rank 1" in sick.summary()


# ------------------------------------------------------------------ repair


def test_reroute_reverses_ring_off_degraded_edge():
    plan = ring_reduce_scatter_plan(4)
    result = reroute_off_link(plan, 1, 0)
    assert result.action == "reversed" and result.changed
    edges = {(rp.rank, s.dst) for rp in result.plan.ranks
             for s in rp.steps}
    assert (1, 0) not in edges


def test_reroute_unused_edge_is_unchanged():
    plan = ring_reduce_scatter_plan(4)   # forward edges r -> r-1 only
    result = reroute_off_link(plan, 0, 2)
    assert result.action == "unchanged" and not result.changed


def test_reroute_two_rank_ring_cannot_avoid_the_edge():
    plan = ring_reduce_scatter_plan(2)   # forward == backward at N=2
    result = reroute_off_link(plan, 1, 0)
    assert result.action == "unchanged"
    assert "cannot avoid" in result.detail


def test_reroute_direct_plan_is_honest_unchanged():
    plan = direct_rs_plan(4)
    edges = {(rp.rank, s.dst) for rp in plan.ranks for s in rp.steps}
    src, dst = sorted(edges)[0]
    result = reroute_off_link(plan, src, dst)
    assert result.action == "unchanged"


def test_demote_rotates_graceful_chunked_ring():
    plan = ring_reduce_scatter_plan(8, n_chunks=4)
    result = demote_rank(plan, 2)
    assert result.action == "rotated"
    result.plan.validate()
    assert result.plan.n_chunks == 4


def test_demote_full_ring_is_unchanged():
    plan = ring_reduce_scatter_plan(4)
    assert demote_rank(plan, 1).action == "unchanged"
    with pytest.raises(ValueError):
        demote_rank(plan, 9)


def test_exclude_rebuilds_over_survivors():
    result = exclude_rank(ring_reduce_scatter_plan(4), 2)
    assert result.action == "rebuilt" and result.plan.n_ranks == 3
    # 2x4 minus one rank no longer divides: degrades to a flat ring.
    hier = exclude_rank(hierarchical_rs_plan(2, 4), 5)
    assert hier.plan.n_ranks == 7 and hier.plan.collective == "ring-rs"
    with pytest.raises(ValueError, match="2-rank"):
        exclude_rank(ring_reduce_scatter_plan(2), 0)


def test_repair_for_diagnosis_prefers_the_worst_link():
    plan = ring_reduce_scatter_plan(4)
    diagnosis = Diagnosis(
        degraded_links=[LinkFinding(src=1, dst=0, service_ratio=4.0,
                                    samples=4)],
        stragglers=[StragglerFinding(gpu_id=2, latency_ratio=2.0,
                                     samples=4)])
    assert repair_for_diagnosis(plan, diagnosis).action == "reversed"
    straggler_only = Diagnosis(
        stragglers=[StragglerFinding(gpu_id=2, latency_ratio=2.0,
                                     samples=4)])
    result = repair_for_diagnosis(
        ring_reduce_scatter_plan(8, n_chunks=4), straggler_only)
    assert result.action == "rotated"
    assert repair_for_diagnosis(plan, Diagnosis()).action == "unchanged"


# ----------------------------------------------------------------- runtime


def test_runtime_starts_dormant_and_arms_on_fault():
    runtime = ResilienceRuntime()
    assert not runtime.armed
    assert runtime.machine.state is RunState.HEALTHY
    runtime.on_fault_observed("dropped-dma", gpu_id=1)
    assert runtime.armed
    assert runtime.detections == 1
    assert runtime.machine.state is RunState.DEGRADED
    runtime.on_fault_observed("dropped-dma", gpu_id=1)
    assert runtime.detections == 2       # arming is idempotent


def test_runtime_reporting_defaults():
    runtime = ResilienceRuntime()
    assert runtime.dma_reissues == 0
    assert runtime.tracker_restores == 0
    assert runtime.mean_time_to_recover_ns() is None
    assert "state=healthy" in runtime.summary()


def test_runtime_recovers_dropped_completion_end_to_end():
    """A dropped DMA completion kills the bare fused run but the
    resilient one re-issues the notification and finishes."""
    scenario = chaos.ChaosScenario(
        index=0, kind="dropped-dma", severity="mild",
        topology=chaos.TOPOLOGIES[0], scheduler="T3-MCA", seed=0,
        plan=FaultPlan.dropped_dma(gpu_id=1, max_events=1, seed=7),
        detail="unit drop recovery")
    system = table1_system(n_gpus=scenario.topology.n_gpus)
    bare = chaos._attempt_fused(scenario, system, resilience=None)
    assert not bare.ok
    resilient = chaos._attempt_fused(scenario, system,
                                     resilience=ResiliencePolicy())
    assert resilient.survived
    assert resilient.runtime.dma_reissues >= 1
    assert resilient.runtime.mean_time_to_recover_ns() > 0
    assert resilient.runtime.machine.state is RunState.RECOVERED


def test_crippled_policy_walks_the_ladder_to_fallback(monkeypatch):
    """With every in-run recovery budget at zero, a dropped DMA
    completion defeats RUN and RETRY, no repair applies, and the
    scenario survives on the plan-driven Sequential FALLBACK rung."""
    crippled = ResiliencePolicy(max_reissues_per_command=0,
                                max_restores_per_region=0,
                                max_deadline_extensions=0)
    monkeypatch.setattr(chaos, "ResiliencePolicy", lambda: crippled)
    scenario = chaos.ChaosScenario(
        index=0, kind="dropped-dma", severity="severe",
        topology=chaos.TOPOLOGIES[0], scheduler="T3-MCA", seed=0,
        plan=FaultPlan.dropped_dma(gpu_id=1, max_events=2, seed=11),
        detail="ladder walk")
    outcome = chaos.run_scenario(
        scenario, table1_system(n_gpus=scenario.topology.n_gpus))
    assert not outcome.baseline_survived
    assert outcome.rung is LadderRung.FALLBACK
    assert outcome.resilient_survived
    assert outcome.resilient_time == outcome.sequential_time
    assert round(outcome.resilient_time, 2) == 31_665.05


# ------------------------------------------------------------------- chaos


def test_chaos_registered_in_runner():
    from repro.experiments.runner import EXPERIMENTS
    assert "chaos" in EXPERIMENTS


def test_chaos_campaign_grid_is_deterministic():
    first = chaos.campaign_scenarios(seeds=1)
    second = chaos.campaign_scenarios(seeds=1)
    assert len(first) == (len(chaos.FAULT_KINDS) * len(chaos.SEVERITIES)
                          * len(chaos.TOPOLOGIES) * len(chaos.SCHEDULERS))
    assert [s.index for s in first] == list(range(len(first)))
    assert [(s.kind, s.severity, s.detail) for s in first] == \
        [(s.kind, s.severity, s.detail) for s in second]


def test_chaos_link_faults_target_used_edges():
    for spec in chaos.TOPOLOGIES:
        edges = set(chaos._ring_edges(spec))
        for seed in range(3):
            plan, detail = chaos._fault_for("degraded-link", "severe",
                                            spec, seed)
            entry = plan.links[0]
            assert (entry.src, entry.dst) in edges, detail


def test_chaos_campaign_honours_the_policy_default(monkeypatch):
    """Each campaign run builds its systems under the overlap-policy
    default current at that run, not the one of an earlier run."""
    for kind in ("static", "adaptive"):
        seen = set()
        monkeypatch.setattr(
            chaos, "run_scenario",
            lambda scenario, system: seen.add(system.policy.kind))
        previous = set_default_overlap_policy(kind)
        try:
            chaos.run(seeds=1)
        finally:
            set_default_overlap_policy(previous)
        assert seen == {kind}
