"""Tests for the fault-injection harness and the invariant checker
(repro.faults): plans, the injector's determinism, the injection seams,
transparency of the empty plan, and the fault-sweep experiment."""

import json

import pytest

from repro.config import TrackerConfig, table1_system
from repro.experiments import fault_sweep, sublayer_sweep
from repro.faults import (
    ANY,
    ComputeSlowdown,
    DMACompletionFault,
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    InvariantViolation,
    LinkDegradation,
    TrackerPressure,
)
from repro.gpu.dma import DMACommand
from repro.interconnect.topology import RingTopology
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.models import zoo
from repro.sim import Environment, SimulationError
from repro.t3.tracker import Tracker

#: cheap integration case: T-NLG OP at TP=4, fast-mode token scaling.
SYSTEM = table1_system(n_gpus=4)
SUB = zoo.t_nlg().sublayer("OP", 4)
CONFIGS = ["Sequential", "T3"]


def simulate(faults=None, check_invariants=False):
    return sublayer_sweep.simulate_case(
        SUB, sublayer_sweep.FAST_SCALE, SYSTEM, CONFIGS,
        faults=faults, check_invariants=check_invariants)


def update(wg, nbytes):
    return MemRequest(kind=AccessKind.UPDATE, stream=Stream.COMPUTE,
                      nbytes=nbytes, label="gemm", wg_id=wg)


# ------------------------------------------------------------------ FaultPlan

def test_plan_roundtrips_through_json():
    plan = FaultPlan(
        seed=42,
        compute=(ComputeSlowdown(gpu_id=2, factor=1.5, start_ns=10.0,
                                 end_ns=20.0),),
        links=(LinkDegradation(src=0, dst=ANY, bandwidth_factor=0.5,
                               stall_ns=5.0, stall_probability=0.25),),
        dma=(DMACompletionFault(action="delay", delay_ns=100.0,
                                max_events=3),),
        tracker=(TrackerPressure(gpu_id=1, evict_every=4),),
    )
    clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone == plan
    assert not plan.is_empty
    assert FaultPlan().is_empty


def test_plan_accepts_lists_and_type_checks():
    plan = FaultPlan(compute=[ComputeSlowdown(factor=2.0)])
    assert isinstance(plan.compute, tuple)
    with pytest.raises(TypeError, match="ComputeSlowdown"):
        FaultPlan(compute=(LinkDegradation(),))


@pytest.mark.parametrize("bad", [
    lambda: ComputeSlowdown(factor=0.5),
    lambda: ComputeSlowdown(start_ns=-1.0),
    lambda: ComputeSlowdown(start_ns=5.0, end_ns=5.0),
    lambda: LinkDegradation(bandwidth_factor=0.0),
    lambda: LinkDegradation(bandwidth_factor=1.5),
    lambda: LinkDegradation(stall_probability=2.0),
    lambda: DMACompletionFault(action="explode"),
    lambda: DMACompletionFault(action="delay", delay_ns=0.0),
    lambda: DMACompletionFault(max_events=0),
    lambda: TrackerPressure(evict_every=0),
])
def test_plan_validation_rejects_bad_entries(bad):
    with pytest.raises((ValueError, TypeError)):
        bad()


# --------------------------------------------------------------- FaultInjector

def test_empty_plan_returns_exact_identity_values():
    injector = FaultInjector(FaultPlan())
    assert injector.compute_factor(0, 0.0) == 1.0
    assert injector.link_parameters(0, 1, 75.0, 700.0) == (75.0, 700.0)
    assert injector.transfer_stall(0, 1, 0.0) == 0.0
    assert injector.dma_completion_fault(0, "cmd") is None
    assert injector.tracker_eviction_due(0) is False
    assert injector.summary() == "no faults applied"


def test_injector_rejects_non_plan():
    with pytest.raises(TypeError, match="FaultPlan"):
        FaultInjector({"seed": 0})


def test_compute_factor_respects_gpu_and_window():
    plan = FaultPlan(compute=(
        ComputeSlowdown(gpu_id=1, factor=2.0, start_ns=100.0, end_ns=200.0),
    ))
    injector = FaultInjector(plan)
    assert injector.compute_factor(1, 150.0) == 2.0
    assert injector.compute_factor(1, 50.0) == 1.0     # before window
    assert injector.compute_factor(1, 200.0) == 1.0    # window is half-open
    assert injector.compute_factor(0, 150.0) == 1.0    # other GPU


def test_stall_draws_are_deterministic_and_order_independent():
    plan = FaultPlan(seed=7, links=(
        LinkDegradation(stall_ns=10.0, stall_probability=0.5),))
    a, b = FaultInjector(plan), FaultInjector(plan)
    # Same per-link draw sequences even when links are queried in a
    # different interleaving.
    seq_a = [a.transfer_stall(0, 1, 0.0) for _ in range(8)]
    b_other = [b.transfer_stall(2, 3, 0.0) for _ in range(8)]
    seq_b = [b.transfer_stall(0, 1, 0.0) for _ in range(8)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)  # probabilistic, seeded
    # A different seed produces a different decision sequence.
    c = FaultInjector(FaultPlan(seed=8, links=plan.links))
    assert [c.transfer_stall(0, 1, 0.0) for _ in range(8)] != seq_a


def test_dma_fault_budget_is_consumed():
    injector = FaultInjector(FaultPlan.dropped_dma(max_events=2))
    assert injector.dma_completion_fault(0, "x").action == "drop"
    assert injector.dma_completion_fault(1, "y").action == "drop"
    assert injector.dma_completion_fault(0, "z") is None
    assert injector.summary() == "dma-drop x2"


def test_dma_fault_filters_on_command_substring():
    plan = FaultPlan(dma=(DMACompletionFault(
        action="drop", command_substr="chunk2"),))
    injector = FaultInjector(plan)
    assert injector.dma_completion_fault(0, "rs.chunk1") is None
    assert injector.dma_completion_fault(0, "rs.chunk2") is not None


def test_tracker_pressure_counts_per_gpu():
    injector = FaultInjector(FaultPlan(tracker=(
        TrackerPressure(evict_every=3),)))
    due = [injector.tracker_eviction_due(0) for _ in range(6)]
    assert due == [False, False, True, False, False, True]
    # Counters are per (fault, gpu): GPU 1 starts fresh.
    assert injector.tracker_eviction_due(1) is False


# --------------------------------------------------------- invariant checker

def test_tracker_overshoot_is_a_violation():
    env = Environment()
    env.invariants = InvariantChecker(env)
    tracker = Tracker(TrackerConfig(), env=env, gpu_id=0)
    tracker.program_region(0, -1, expected_bytes=100)
    with pytest.raises(InvariantViolation, match="overshoot"):
        tracker.observe(update(0, 150))


def test_negative_credit_is_a_violation():
    env = Environment()
    env.invariants = InvariantChecker(env)
    tracker = Tracker(TrackerConfig(), env=env, gpu_id=0)
    tracker.program_region(0, -1, expected_bytes=100)
    # MemRequest itself rejects negative sizes, so exercise the credit
    # path directly — the checker is the backstop for internal bugs.
    with pytest.raises(InvariantViolation, match="monotonicity"):
        tracker._credit(0, -1, -10)


def test_double_fire_is_a_violation():
    env = Environment()
    checker = InvariantChecker(env)
    checker.on_trigger_fired("DMA command c0")
    with pytest.raises(InvariantViolation, match="single-fire"):
        checker.on_trigger_fired("DMA command c0")


def test_violation_message_carries_diagnostic_dump():
    env = Environment()
    checker = InvariantChecker(env)
    checker.on_trigger_fired("block b")
    with pytest.raises(InvariantViolation,
                       match="simulation diagnostic dump"):
        checker.on_trigger_fired("block b")


# -------------------------------------------------- integer-byte regression

def test_tracker_fractional_credit_never_fires_early():
    """Regression: float accumulation used to satisfy the old
    ``received >= expected - 1e-6`` epsilon before the last update."""
    tracker = Tracker(TrackerConfig())
    fired = []
    tracker.add_completion_listener(fired.append)
    tracker.program_region(0, -1, expected_bytes=100)
    # 1000 fractional credits that float-sum to ~99.9999999: integer
    # flooring keeps every one at zero credit.
    for _ in range(1000):
        tracker.observe(update(0, 0.0999999999))
    assert fired == []
    entry_set = tracker._set_for(0)
    assert entry_set[(0, -1)].received_bytes == 0
    # Whole bytes complete the region exactly at the threshold.
    tracker.observe(update(0, 99))
    assert fired == []
    tracker.observe(update(0, 1))
    assert fired == [(0, -1)]


def test_program_region_rounds_expected_bytes_to_int():
    tracker = Tracker(TrackerConfig())
    tracker.program_region(3, -1, expected_bytes=100.4)
    fired = []
    tracker.add_completion_listener(fired.append)
    tracker.observe(update(3, 100))
    assert fired == [(3, -1)]


# ------------------------------------------------------------ injection seams

def test_degraded_link_slows_only_matching_pipes():
    env = Environment()
    env.faults = FaultInjector(FaultPlan.degraded_link(0, ANY, 0.5))
    topo = RingTopology(env, SYSTEM)
    healthy = RingTopology(Environment(), SYSTEM)
    for key, pipe in topo.links.items():
        expected = healthy.links[key].bandwidth * (0.5 if key[0] == 0
                                                   else 1.0)
        assert pipe.bandwidth == expected
        assert pipe.endpoints == key


def test_duplicate_dma_completion_is_absorbed_exactly_once():
    env = Environment()
    env.invariants = InvariantChecker(env)
    env.faults = FaultInjector(FaultPlan(dma=(
        DMACompletionFault(action="duplicate"),)))
    topo = RingTopology(env, SYSTEM)
    src = topo.gpus[0]
    src.dma.program(DMACommand(command_id="c0", dst_gpu_id=3, chunk_id=0,
                               wg_slices=((0, 32 * 1024),)))
    done = src.dma.trigger("c0")
    env.run()
    assert done.fired                       # delivered exactly once
    assert src.dma.duplicates_absorbed == 1
    assert env.invariants.duplicates_absorbed == 1


def test_delayed_dma_completion_arrives_late():
    def finish_time(plan):
        env = Environment()
        if plan is not None:
            env.faults = FaultInjector(plan)
        topo = RingTopology(env, SYSTEM)
        src = topo.gpus[0]
        src.dma.program(DMACommand(command_id="c0", dst_gpu_id=3,
                                   chunk_id=0,
                                   wg_slices=((0, 32 * 1024),)))
        done = src.dma.trigger("c0")
        finished = []
        done.add_callback(lambda ev: finished.append(env.now))
        env.run()
        assert finished
        return finished[0]

    healthy = finish_time(None)
    delayed = finish_time(FaultPlan(dma=(
        DMACompletionFault(action="delay", delay_ns=500.0),)))
    assert delayed == pytest.approx(healthy + 500.0)


def test_forced_eviction_loses_the_region():
    env = Environment()
    env.faults = FaultInjector(FaultPlan(tracker=(
        TrackerPressure(evict_every=2),)))
    tracker = Tracker(TrackerConfig(), env=env, gpu_id=0)
    tracker.program_region(0, -1, expected_bytes=100)
    tracker.program_region(1, -1, expected_bytes=100)  # evicts region 0
    assert tracker.stats.forced_evictions == 1
    assert tracker.pending_regions() == [(1, -1)]
    assert ("tracker-evict", 0, (0, -1)) in env.faults.applied
    # The lost key stays on record, and in the hang dump, until restored.
    assert tracker.evicted == [(0, -1)]
    assert "; evicted regions: (0, -1)" in tracker._diagnostic()
    tracker.restore_region((0, -1), remaining_bytes=100)
    assert tracker.evicted == []
    assert "evicted regions" not in tracker._diagnostic()


# --------------------------------------------------------- end-to-end runs

def test_empty_plan_and_invariants_are_bit_identical():
    baseline = simulate()
    checked = simulate(faults=FaultPlan(), check_invariants=True)
    assert checked.times == baseline.times
    assert checked.traffic == baseline.traffic
    assert (checked.gemm_time, checked.rs_time, checked.ag_time) == \
        (baseline.gemm_time, baseline.rs_time, baseline.ag_time)


def test_straggler_slows_results_deterministically():
    healthy = simulate()
    slow_a = simulate(faults=FaultPlan.straggler(0, 2.0),
                      check_invariants=True)
    slow_b = simulate(faults=FaultPlan.straggler(0, 2.0),
                      check_invariants=True)
    assert slow_a.times == slow_b.times            # seeded, replayable
    for name in CONFIGS:
        assert slow_a.times[name] > healthy.times[name]


def test_dropped_dma_hang_becomes_diagnosable_error():
    with pytest.raises(SimulationError) as excinfo:
        simulate(faults=FaultPlan.dropped_dma(), check_invariants=True)
    message = str(excinfo.value)
    assert "dropped DMA completions" in message
    assert "simulation diagnostic dump" in message
    assert "pending" in message
    assert "tracker" in message


# ------------------------------------------------------- fault-sweep figure

def test_fault_sweep_runs_and_renders(tmp_path):
    cases = [SUB]
    result = fault_sweep.run(fast=True, cases=cases,
                             straggler_factors=(1.0, 2.0),
                             link_factors=(1.0, 0.5))
    again = fault_sweep.run(fast=True, cases=cases,
                            straggler_factors=(1.0, 2.0),
                            link_factors=(1.0, 0.5))
    assert [(p.kind, p.severity, p.label, p.speedup)
            for p in result.points] == \
        [(p.kind, p.severity, p.label, p.speedup) for p in again.points]

    text = result.render()
    assert "Fault sweep" in text
    assert "compute slowdown" in text
    assert "bandwidth fraction" in text
    assert SUB.label in text

    # Injected severities actually bite: both configurations slow down.
    healthy = {(p.kind, p.label): p for p in result.points
               if p.severity == 1.0}
    degraded = [p for p in result.points if p.severity != 1.0]
    assert degraded
    for point in degraded:
        reference = healthy[(point.kind, point.label)]
        assert point.sequential_time > reference.sequential_time
        assert point.t3_time > reference.t3_time


def test_fault_sweep_registered_in_runner():
    from repro.experiments.runner import EXPERIMENTS
    assert "fault-sweep" in EXPERIMENTS


# ----------------------------------------------- window boundary semantics

def test_in_window_is_half_open():
    """Fault windows are [start, end): inclusive start, exclusive end."""
    from repro.faults.plan import _in_window

    assert _in_window(100.0, 200.0, 100.0)        # exactly start: in
    assert _in_window(100.0, 200.0, 199.999)      # inside: in
    assert not _in_window(100.0, 200.0, 200.0)    # exactly end: out
    assert not _in_window(100.0, 200.0, 99.999)   # before start: out
    assert _in_window(100.0, None, 1e18)          # open-ended window
    assert not _in_window(100.0, None, 0.0)


def test_compute_slowdown_window_boundaries_match_in_window():
    fault = ComputeSlowdown(gpu_id=0, factor=2.0, start_ns=50.0,
                            end_ns=80.0)
    assert not fault.matches(0, 49.999)
    assert fault.matches(0, 50.0)
    assert fault.matches(0, 79.999)
    assert not fault.matches(0, 80.0)


def test_link_stall_window_boundaries_match_in_window():
    fault = LinkDegradation(src=0, dst=1, stall_ns=100.0,
                            start_ns=10.0, end_ns=20.0)
    assert not fault.stalls_at(9.999)
    assert fault.stalls_at(10.0)
    assert fault.stalls_at(19.999)
    assert not fault.stalls_at(20.0)
    # A zero-stall entry never stalls, whatever the window says.
    assert not LinkDegradation(src=0, dst=1).stalls_at(15.0)


# -------------------------------------- planned vs observed incidence

def test_planned_incidence_skips_identity_entries():
    """No-op draws (factor 1.0, undegraded links, p=0 stalls) are legal
    to plan but can never fire; planned_incidence must agree with the
    injector that nothing can happen."""
    plan = FaultPlan(
        compute=(ComputeSlowdown(gpu_id=0, factor=1.0),),
        links=(LinkDegradation(src=0, dst=1),                # identity
               LinkDegradation(src=0, dst=1, stall_ns=50.0,
                               stall_probability=0.0)),      # p=0 stall
    )
    incidence = plan.planned_incidence()
    assert incidence["straggler_windows"] == 0
    assert incidence["link_faults"] == 0
    assert incidence["dma_fault_budget"] == 0
    assert incidence["tracker_pressure_rules"] == 0


def test_planned_incidence_counts_effective_entries():
    plan = FaultPlan(
        compute=(ComputeSlowdown(gpu_id=0, factor=1.5),
                 ComputeSlowdown(gpu_id=1, factor=1.0)),     # identity
        links=(LinkDegradation(src=0, dst=1, bandwidth_factor=0.5),
               LinkDegradation(src=1, dst=2, extra_latency_ns=100.0),
               LinkDegradation(src=2, dst=3, stall_ns=50.0,
                               stall_probability=0.5)),
        dma=(DMACompletionFault(action="drop", max_events=2),
             DMACompletionFault(action="delay", delay_ns=10.0,
                                max_events=3)),
        tracker=(TrackerPressure(gpu_id=0, evict_every=4),),
    )
    incidence = plan.planned_incidence()
    assert incidence["straggler_windows"] == 1
    assert incidence["link_faults"] == 3
    assert incidence["dma_fault_budget"] == 5
    assert incidence["tracker_pressure_rules"] == 1


def test_identity_plan_observed_incidence_is_empty():
    """An all-identity plan fires nothing through a real simulation, in
    agreement with its planned incidence of zero everywhere."""
    plan = FaultPlan(
        compute=(ComputeSlowdown(gpu_id=ANY, factor=1.0),),
        links=(LinkDegradation(src=ANY, dst=ANY),),
    )
    assert all(count == 0 for count in plan.planned_incidence().values())
    baseline = simulate()
    noop = simulate(faults=plan)
    assert noop.times == baseline.times
    assert noop.traffic == baseline.traffic
