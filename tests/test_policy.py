"""Overlap-policy layer tests (repro.policy).

The static half of the contract — :class:`StaticPaperPolicy` reproduces
the pre-refactor inline arbiter decision-for-decision — is checked here
property-based (hypothesis drives random calibration/arbitration
histories against an inline reference implementation); the byte-level
whole-simulation half is the recorded fingerprints in
``tests/test_engine_regressions.py``.  The rest covers the adaptive
controller's mechanics and its survival of a chaos slice, decision-log
record/replay, config validation, policy resolution, where the decision
logic lives, and the ``policy-decisions`` trace-analysis pass.
"""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.trace import TraceSpan
from repro.config import (
    MCAConfig,
    OverlapPolicyConfig,
    set_default_overlap_policy,
    table1_system,
)
from repro.memory.arbiter import ArbiterState, MCAPolicy
from repro.memory.request import Stream
from repro.policy import (
    AdaptiveMcaPolicy,
    Decision,
    DecisionLog,
    RecordedPolicy,
    StaticPaperPolicy,
    make_overlap_policy,
    paper_threshold_index,
    resolve_overlap_policy,
)
from repro.trace.passes import pass_policy_decisions
from repro.trace.query import TraceQuery


class FakeEnv:
    """The attributes a policy reads off an environment, nothing else."""

    def __init__(self):
        self._now = 0.0
        self.trace = None
        self.obs = None
        self.overlap = None


def arbiter_state(occupancy, now, compute_waiting=0, comm_waiting=1,
                  capacity=48):
    return ArbiterState(compute_waiting, comm_waiting, occupancy,
                        capacity, now)


def adaptive(**overrides):
    return AdaptiveMcaPolicy(OverlapPolicyConfig(kind="adaptive",
                                                 **overrides))


# -- static bit-equivalence (the tentpole's transparency contract) --------


class InlineReferenceArbiter:
    """The pre-refactor MCA decision logic, inlined verbatim: the
    Section 4.5 intensity->threshold table, the occupancy gate, and the
    starvation guard, with no policy layer in sight."""

    def __init__(self, config: MCAConfig):
        self.config = config
        self.threshold = config.occupancy_thresholds[0]
        self._last_comm_issue = 0.0

    def calibrate(self, memory_intensity):
        thresholds = self.config.occupancy_thresholds
        for breakpoint_value, threshold in zip(
                self.config.intensity_breakpoints, thresholds):
            if memory_intensity >= breakpoint_value:
                self.threshold = threshold
                return
        self.threshold = thresholds[-1]

    def choose(self, state):
        if state.compute_waiting > 0:
            if (state.comm_waiting > 0
                    and state.now - self._last_comm_issue
                    > self.config.starvation_limit_ns):
                return Stream.COMM
            return Stream.COMPUTE
        if state.comm_waiting > 0 and (
                self.threshold is None
                or state.dram_occupancy < self.threshold):
            return Stream.COMM
        return None

    def on_issue(self, stream, now):
        if stream is Stream.COMM:
            self._last_comm_issue = now


history = st.lists(
    st.one_of(
        st.tuples(st.just("calibrate"),
                  st.floats(min_value=0.0, max_value=1.5,
                            allow_nan=False)),
        st.tuples(st.just("round"),
                  st.integers(min_value=0, max_value=3),    # compute
                  st.integers(min_value=0, max_value=3),    # comm
                  st.integers(min_value=0, max_value=40),   # occupancy
                  st.floats(min_value=0.0, max_value=900.0,
                            allow_nan=False))),              # time delta
    min_size=1, max_size=80)


@given(events=history)
@settings(max_examples=120, deadline=None)
def test_static_policy_matches_inline_reference(events):
    """Any interleaving of calibrations and arbitration rounds yields
    the same thresholds and the same stream decisions as the
    pre-refactor inline arbiter."""
    config = MCAConfig()
    refactored = MCAPolicy(config)          # default StaticPaperPolicy
    reference = InlineReferenceArbiter(config)
    now = 0.0
    for event in events:
        if event[0] == "calibrate":
            refactored.calibrate(event[1])
            reference.calibrate(event[1])
            assert refactored.threshold == reference.threshold
            continue
        _, compute, comm, occupancy, delta = event
        now += delta
        choices = []
        for policy in (refactored, reference):
            state = ArbiterState(compute, comm, occupancy, 48, now)
            choice = policy.choose(state)
            if choice is not None:
                policy.on_issue(choice, now)
            choices.append(choice)
        assert choices[0] is choices[1], (
            f"diverged at t={now}: compute={compute} comm={comm} "
            f"occupancy={occupancy} threshold={reference.threshold}")


@given(intensity=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_paper_threshold_index_matches_first_match_semantics(intensity):
    config = MCAConfig()
    index = paper_threshold_index(config, intensity)
    expected = len(config.occupancy_thresholds) - 1
    for position, breakpoint_value in enumerate(
            config.intensity_breakpoints):
        if intensity >= breakpoint_value:
            expected = position
            break
    assert index == expected


def test_static_policy_records_calibration_decisions():
    policy = StaticPaperPolicy(record=True)
    site = policy.register_mca_site(0, 2, MCAConfig())
    policy.on_calibration(site, 0.8)
    log = policy.decision_log()
    assert len(log) == 1
    decision = log.decisions[0]
    assert decision.kind == "threshold"
    assert decision.value == 5
    assert decision.channel == 2


# -- config validation (MCAConfig + OverlapPolicyConfig) ------------------


def test_mca_config_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="one more occupancy threshold"):
        MCAConfig(occupancy_thresholds=(5, 10, None),
                  intensity_breakpoints=(0.75, 0.5, 0.25))
    with pytest.raises(ValueError, match="one more occupancy threshold"):
        MCAConfig(occupancy_thresholds=(5, 10, 30, None),
                  intensity_breakpoints=(0.75, 0.5))


def test_mca_config_rejects_non_decreasing_breakpoints():
    with pytest.raises(ValueError, match="strictly"):
        MCAConfig(intensity_breakpoints=(0.25, 0.5, 0.75))
    with pytest.raises(ValueError, match="strictly"):
        MCAConfig(intensity_breakpoints=(0.75, 0.75, 0.25))


def test_mca_config_defaults_are_valid_and_round_trip():
    config = MCAConfig()
    assert MCAConfig.from_dict(config.to_dict()) == config


def test_overlap_policy_config_validation():
    with pytest.raises(ValueError, match="unknown overlap policy"):
        OverlapPolicyConfig(kind="oracle")
    with pytest.raises(ValueError, match="decision_log_path"):
        OverlapPolicyConfig(kind="recorded")
    with pytest.raises(ValueError, match="ewma_alpha"):
        OverlapPolicyConfig(ewma_alpha=0.0)
    with pytest.raises(ValueError, match="retune_interval_ns"):
        OverlapPolicyConfig(retune_interval_ns=0.0)
    with pytest.raises(ValueError, match="watermarks"):
        OverlapPolicyConfig(relax_watermark=0.1, tighten_watermark=0.2)
    with pytest.raises(ValueError, match="pacing_max_gap_ns"):
        OverlapPolicyConfig(pacing_max_gap_ns=-1.0)
    with pytest.raises(ValueError, match="pacing_occupancy_watermark"):
        OverlapPolicyConfig(pacing_occupancy_watermark=1.0)
    with pytest.raises(ValueError, match="eagerness_max_delay_ns"):
        OverlapPolicyConfig(eagerness_max_delay_ns=-5.0)
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="retune_interval_ns"):
        OverlapPolicyConfig(retune_interval_ns=nan)
    # An infinite gap or delay would reach the engine as an event delay.
    for value in (nan, inf):
        with pytest.raises(ValueError, match="pacing_max_gap_ns"):
            OverlapPolicyConfig(pacing_max_gap_ns=value)
        with pytest.raises(ValueError, match="eagerness_max_delay_ns"):
            OverlapPolicyConfig(eagerness_max_delay_ns=value)


def test_default_policy_kind_hook_round_trips():
    previous = set_default_overlap_policy("adaptive")
    try:
        assert previous == "static"
        assert OverlapPolicyConfig().kind == "adaptive"
        assert table1_system(n_gpus=4).policy.kind == "adaptive"
    finally:
        set_default_overlap_policy(previous)
    assert OverlapPolicyConfig().kind == "static"
    with pytest.raises(ValueError, match="unknown overlap policy"):
        set_default_overlap_policy("oracle")


def test_policy_selection_lands_in_the_cache_key():
    base = table1_system(n_gpus=4)
    assert base.to_dict() != base.with_policy("adaptive").to_dict()
    assert base.with_policy("adaptive").to_dict() \
        != base.with_policy("adaptive", ewma_alpha=0.2).to_dict()
    # with_policy is non-destructive: the base config is unchanged.
    assert base.policy.kind == "static"


# -- decision log ---------------------------------------------------------


def test_decision_log_save_load_round_trip(tmp_path):
    log = DecisionLog(policy="adaptive-mca")
    log.append(Decision(seq=1, t_ns=0.0, kind="threshold", gpu=0,
                        channel=2, value=10, reason="relax"))
    log.append(Decision(seq=2, t_ns=5.5, kind="pacing", gpu=1,
                        channel=-1, value=3.5, reason="occupancy"))
    log.append(Decision(seq=3, t_ns=9.0, kind="threshold", gpu=0,
                        channel=2, value=None, reason="relax"))
    path = log.save(tmp_path / "decisions.json")
    loaded = DecisionLog.load(path)
    assert loaded.policy == "adaptive-mca"
    assert [d.to_dict() for d in loaded.decisions] \
        == [d.to_dict() for d in log.decisions]


def test_decision_log_rejects_foreign_payloads():
    with pytest.raises(ValueError, match="t3-decision-log"):
        DecisionLog.from_json('{"schema": "other", "decisions": []}')


# -- the adaptive controller ----------------------------------------------


def test_adaptive_relaxes_up_the_ladder_under_sustained_deferrals():
    policy = adaptive(retune_interval_ns=10.0)
    env = FakeEnv()
    policy.bind(env)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 1.0)
    assert site.threshold == 5         # memory-hungry kernel: tight gate
    seen = set()
    now = 0.0
    for _ in range(400):
        now += 1.0
        env._now = now
        policy.comm_admission(site, arbiter_state(40, now))
        seen.add(site.threshold)
    # Occupancy 40 defeats every finite threshold: the controller must
    # walk the whole ladder to unlimited.
    assert None in seen
    assert policy.retunes >= 3
    assert site.index >= site.base_index


def test_adaptive_never_tightens_below_the_static_pick():
    policy = adaptive(retune_interval_ns=10.0)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 1.0)
    now = 0.0
    for _ in range(200):
        now += 1.0
        assert policy.comm_admission(site, arbiter_state(0, now))
    # Every round admitted: deferral evidence never accumulates, and the
    # index is already at the static base, so nothing ever moves.
    assert site.threshold == 5
    assert policy.retunes == 0


def test_adaptive_decays_back_to_the_static_pick():
    policy = adaptive(retune_interval_ns=10.0)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 1.0)
    now = 0.0
    for _ in range(100):                      # relax phase: always denied
        now += 1.0
        policy.comm_admission(site, arbiter_state(40, now))
    assert site.index > site.base_index
    for _ in range(600):                      # calm phase: always granted
        now += 1.0
        policy.comm_admission(site, arbiter_state(0, now))
    assert site.index == site.base_index
    assert site.threshold == 5


def test_adaptive_retunes_are_rate_limited():
    policy = adaptive(retune_interval_ns=1e6)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 1.0)
    now = 0.0
    for _ in range(200):
        now += 1.0
        policy.comm_admission(site, arbiter_state(40, now))
    assert policy.retunes == 0
    assert site.threshold == 5


def test_calibration_resets_the_controller():
    policy = adaptive(retune_interval_ns=10.0)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 1.0)
    now = 0.0
    for _ in range(200):
        now += 1.0
        policy.comm_admission(site, arbiter_state(40, now))
    assert site.index > site.base_index
    policy.on_calibration(site, 1.0)          # new kernel, same intensity
    assert site.threshold == 5
    assert site.ewma_deferral == 0.0


def test_pacing_gap_scales_with_gpu_occupancy():
    policy = adaptive(pacing_max_gap_ns=100.0,
                      pacing_occupancy_watermark=0.5)
    site = policy.register_mca_site(0, 0, MCAConfig())
    policy.on_calibration(site, 0.0)          # compute-bound: unlimited
    now = 0.0
    for _ in range(100):                      # saturate the occupancy EWMA
        now += 1.0
        policy.comm_admission(site, arbiter_state(48, now, capacity=48))
    gap = policy.dma_pacing_gap(0, command=None)
    assert 0.0 < gap <= 100.0
    # A GPU the policy has no occupancy evidence for is never paced.
    assert policy.dma_pacing_gap(1, command=None) == 0.0


def test_pacing_and_eagerness_disabled_by_default():
    policy = adaptive()
    assert policy.dma_pacing_gap(0, command=None) == 0.0
    assert policy.trigger_fire_delay(0, block=None) == 0.0


def test_trigger_delay_follows_tracker_pressure():
    policy = adaptive(eagerness_max_delay_ns=50.0)
    for _ in range(50):
        policy.observe_tracker_pressure(0, live_regions=8, capacity=8)
    delay = policy.trigger_fire_delay(0, block=None)
    assert 0.0 < delay <= 50.0
    assert policy.trigger_fire_delay(1, block=None) == 0.0
    policy.observe_tracker_pressure(2, live_regions=1, capacity=0)  # no-op


# -- record / replay ------------------------------------------------------


def test_recorded_policy_replays_the_threshold_trajectory():
    config = OverlapPolicyConfig(kind="adaptive", record_decisions=True,
                                 retune_interval_ns=10.0)
    occupancies = [20, 35, 3, 40, 0, 40, 40, 12] * 40

    def drive(policy):
        env = FakeEnv()
        policy.bind(env)
        site = policy.register_mca_site(0, 0, MCAConfig())
        env._now = 0.0
        policy.on_calibration(site, 1.0)
        admissions, thresholds = [], []
        now = 0.0
        for occupancy in occupancies:
            now += 1.0
            env._now = now
            admissions.append(policy.comm_admission(
                site, arbiter_state(occupancy, now)))
            thresholds.append(site.threshold)
        return admissions, thresholds

    original = AdaptiveMcaPolicy(config)
    admissions, thresholds = drive(original)
    log = original.decision_log()
    assert log is not None and len(log) > 1
    assert log.policy == "adaptive-mca"

    replay = RecordedPolicy(log)
    replayed_admissions, replayed_thresholds = drive(replay)
    assert replayed_admissions == admissions
    assert replayed_thresholds == thresholds
    assert replay.pending == 0
    assert replay.replayed == len(log)


def test_recorded_policy_round_trips_through_disk(tmp_path):
    log = DecisionLog(policy="adaptive-mca")
    log.append(Decision(seq=1, t_ns=0.0, kind="threshold", gpu=0,
                        channel=0, value=30, reason="calibration"))
    path = log.save(tmp_path / "log.json")
    policy = make_overlap_policy(OverlapPolicyConfig(
        kind="recorded", decision_log_path=str(path)))
    assert isinstance(policy, RecordedPolicy)
    site = policy.register_mca_site(0, 0, MCAConfig())
    # The unbound replay treats registration as t=inf: the t=0 decision
    # is due immediately.
    assert site.threshold == 30


# -- construction and resolution ------------------------------------------


def test_make_overlap_policy_dispatch():
    assert isinstance(make_overlap_policy(OverlapPolicyConfig(
        kind="static")), StaticPaperPolicy)
    built = make_overlap_policy(OverlapPolicyConfig(kind="adaptive"))
    assert isinstance(built, AdaptiveMcaPolicy)
    assert built.log is None
    recording = make_overlap_policy(OverlapPolicyConfig(
        kind="adaptive", record_decisions=True))
    assert recording.decision_log() is not None


def test_resolve_overlap_policy_attaches_once_and_respects_preattached():
    system = table1_system(n_gpus=4)
    env = FakeEnv()
    policy = resolve_overlap_policy(env, system)
    assert env.overlap is policy
    assert policy.env is env
    assert isinstance(policy, StaticPaperPolicy)
    assert resolve_overlap_policy(env, system) is policy

    pre = AdaptiveMcaPolicy(OverlapPolicyConfig(kind="adaptive"))
    env2 = FakeEnv()
    env2.overlap = pre
    assert resolve_overlap_policy(env2, system) is pre
    assert pre.env is env2


def test_mca_policy_under_adaptive_overlap_exposes_live_threshold():
    """The arbiter's ``threshold`` property follows the site, so the
    gate-tagged counters stay correct across retunes."""
    overlap = adaptive(retune_interval_ns=10.0)
    policy = MCAPolicy(MCAConfig(), overlap=overlap, gpu_id=3,
                       channel_id=1)
    policy.calibrate(1.0)
    assert policy.threshold == 5
    now = 0.0
    for _ in range(400):
        now += 1.0
        policy.choose(arbiter_state(40, now))
    assert policy.threshold != 5
    site = overlap.sites[0]
    assert (site.gpu_id, site.channel_id) == (3, 1)


# -- the policy-decisions trace pass --------------------------------------


def instant(t_ns, gpu, value, reason, kind="threshold"):
    shown = "inf" if value is None else f"{value:g}"
    return TraceSpan(
        name=f"{kind}={shown}", category="policy", start_ns=t_ns,
        end_ns=t_ns, track=f"gpu{gpu}.policy", group="policy",
        args={"kind": kind, "gpu": gpu, "channel": 0,
              "value": "inf" if value is None else value,
              "reason": reason, "policy": "adaptive-mca"})


def test_policy_decisions_pass_joins_gate_counters():
    spans = [
        instant(0.0, 0, 5, "calibration"),
        instant(100.0, 0, 10, "relax"),
        instant(250.0, 0, None, "relax"),
        instant(0.0, 1, 5, "calibration"),
        instant(300.0, 1, 4.0, "occupancy", kind="pacing"),
    ]
    snapshot = {"scopes": [
        {"component": "arbiter", "gpu": 0, "counters": {
            "comm_grants.t5": 10.0, "comm_deferrals.t5": 30.0,
            "comm_grants.t10": 12.0, "comm_deferrals.t10": 4.0,
            "comm_grants.tinf": 7.0}},
        {"component": "dma", "gpu": 0, "counters": {"slices": 9.0}},
    ]}
    result = pass_policy_decisions(
        TraceQuery(spans, registry_snapshot=snapshot))
    data = result.data
    assert data["decisions"] == 5
    assert data["by_kind"] == {"threshold": 4, "pacing": 1}
    assert data["by_reason"] == {"calibration": 2, "relax": 2,
                                 "occupancy": 1}
    assert data["per_gpu"]["gpu0"]["thresholds_visited"] == [5, 10, "inf"]
    assert data["per_gpu"]["gpu0"]["last_threshold"] == "inf"
    assert data["per_gpu"]["gpu1"]["decisions"] == 1
    assert data["gate_by_threshold"]["5"] == {"grants": 10.0,
                                              "deferrals": 30.0}
    assert data["gate_by_threshold"]["inf"] == {"grants": 7.0,
                                                "deferrals": 0.0}
    assert "75.0% held" in result.text
    assert "ladder 5 -> 10 -> inf" in result.text


def test_policy_decisions_pass_without_policy_instants():
    result = pass_policy_decisions(TraceQuery([]))
    assert result.data["decisions"] == 0
    assert "no policy instants" in result.text


def test_policy_decisions_pass_without_registry_snapshot():
    result = pass_policy_decisions(
        TraceQuery([instant(0.0, 0, 5, "calibration")]))
    assert result.data["gate_by_threshold"] == {}
    assert "gate join skipped" in result.text


# -- runner surface -------------------------------------------------------


def test_runner_registers_the_adaptive_experiment():
    from repro.experiments.runner import EXPERIMENTS, _trace_capable
    assert "adaptive" in EXPERIMENTS
    assert _trace_capable("adaptive")


def test_runner_rejects_unknown_policy_flag():
    from repro.experiments.runner import main
    with pytest.raises(SystemExit):
        main(["table1", "--policy", "oracle"])


# -- where the decisions live, and adaptivity under faults ----------------


def test_decision_logic_lives_in_the_policy_layer():
    """The consuming modules hold the seams, not the policy math:
    ``memory/arbiter.py`` does not reimplement the intensity->threshold
    mapping or the occupancy comparison, and the trigger, DMA and
    tracker seams consult the policy."""
    import repro

    src = pathlib.Path(repro.__file__).resolve().parent
    arbiter = (src / "memory" / "arbiter.py").read_text()
    for marker in ("dram_occupancy <", "intensity_breakpoints"):
        assert marker not in arbiter, marker
    for path, seam in (("t3/trigger.py", "trigger_fire_delay"),
                       ("gpu/dma.py", "dma_pacing_gap"),
                       ("t3/tracker.py", "observe_tracker_pressure")):
        assert seam in (src / path).read_text(), (path, seam)


def test_adaptive_policy_survives_a_chaos_slice():
    """One seed of the chaos campaign under the adaptive default: every
    scenario survives, with no invariant violation or watchdog hang."""
    from repro.experiments import chaos

    previous = set_default_overlap_policy("adaptive")
    try:
        result = chaos.run(seeds=1)
    finally:
        set_default_overlap_policy(previous)
    assert result.n_scenarios == 60
    assert result.survival_rate == 1.0
    assert result.invariant_violations == 0
    assert result.watchdog_hangs == 0
