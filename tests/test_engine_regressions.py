"""Regression tests for the event-loop bugs fixed in the hot-path
overhaul, property-based equivalence of the engine's three event loops,
and recorded fingerprints that pin the engine's firing order.

Each regression test failed against the engine it fixed:

* ``interrupt()`` on a never-resumed process double-stepped it — the
  boot event resumed the generator normally *and* the interrupt threw
  into it;
* a second ``interrupt()`` at the same timestamp left the process
  subscribed to the wait the first delivery entered, so it resumed
  twice per wake from then on;
* a waiter interrupted during ``Resource.acquire()`` leaked its unit
  (queued grants stayed in the wait queue; granted-but-uncollected
  grants swallowed the unit), permanently shrinking the resource;
* ``AnyOf`` losers and ``AllOf`` pending children kept the composite's
  dead callbacks subscribed after the composite triggered.

The fingerprints (suite payload, ``events_fired``, final time and
telemetry snapshot digests) were recorded where the engine's former
reference loop, the optimized loop and the pre-refactor inline MCA
arbiter all agreed, under two ``PYTHONHASHSEED`` values.  The
transparency table re-runs that case with each optional attachment
(telemetry, trace, an empty fault plan with the invariant checker, the
resilience runtime, an explicit static policy, and all of them) and
requires the same fingerprints: attaching any of them changes nothing.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    Resource,
    Store,
)


# ------------------------------------------------------- Process.interrupt

def test_interrupt_never_resumed_process_single_step():
    """Interrupting a process before its boot event fires must not run
    its body: the interrupt replaces the first resume, not joins it."""
    env = Environment()
    log = []

    def victim():
        log.append("ran")
        yield env.timeout(10)
        log.append("done")

    def driver():
        process = env.process(victim())
        process.interrupt("early")
        try:
            yield process
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))

    env.process(driver())
    env.run()
    assert log == [("interrupted", "early")]


def test_interrupt_after_resume_still_works():
    env = Environment()
    log = []

    def victim():
        log.append("ran")
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def killer(process):
        yield env.timeout(5)
        process.interrupt("late")

    process = env.process(victim())
    env.process(killer(process))
    env.run()
    assert log == ["ran", ("interrupted", "late", 5)]


def test_second_interrupt_at_one_timestamp_resumes_once_per_wake():
    """Two interrupts at t=3: the first delivery lets the loop wait on a
    new timeout, and the second must detach from that wait before it is
    thrown in — otherwise the process stays subscribed to both timeouts
    and logs every later wake twice."""
    env = Environment()
    log = []

    def victim():
        while True:
            try:
                yield env.timeout(10)
                log.append(("resumed", env.now))
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, env.now))

    def killer(process):
        yield env.timeout(3)
        process.interrupt("a")
        process.interrupt("b")

    env.process(killer(env.process(victim())))
    env.run(until=30)
    assert log == [("interrupted", "a", 3), ("interrupted", "b", 3),
                   ("resumed", 13), ("resumed", 23)]


# ------------------------------------------------------- Resource.acquire

def test_interrupted_queued_acquire_does_not_leak_unit():
    """A waiter interrupted while queued must cancel its request: the
    unit freed later goes back to the pool, not to the dead waiter."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        yield from resource.acquire(10)
        log.append(("holder released", env.now))

    def waiter():
        try:
            yield from resource.acquire(5)
        except Interrupt:
            log.append(("waiter interrupted", env.now))

    def killer(process):
        yield env.timeout(3)
        process.interrupt()

    env.process(holder())
    env.process(killer(env.process(waiter())))
    env.run()
    assert log == [("waiter interrupted", 3), ("holder released", 10)]
    assert resource.in_use == 0
    assert resource.available == 1
    assert resource.queue_length == 0


def test_straggler_plus_interrupt_does_not_leak_unit():
    """Fault-injection variant: the holder is a straggler (its hold is
    stretched by the injected compute factor, as the GEMM seam does) and
    the waiter times out and interrupts itself out of the queue.  The
    resource must come back whole once the straggler finishes."""
    from repro.faults import FaultInjector, FaultPlan

    env = Environment()
    env.faults = FaultInjector(
        FaultPlan.straggler(gpu_id=0, factor=4.0, seed=3))
    resource = Resource(env, capacity=1)
    log = []

    def straggler_holder():
        hold = 5 * env.faults.compute_factor(0, env.now)
        yield from resource.acquire(hold)
        log.append(("holder released", env.now))

    def impatient_waiter():
        try:
            yield from resource.acquire(1)
            log.append(("waiter held", env.now))
        except Interrupt:
            log.append(("waiter gave up", env.now))

    def watchdog(process):
        # Fires before the slowed holder releases (t=20), after the
        # un-faulted release time (t=5) — only the straggler makes the
        # waiter give up.
        yield env.timeout(10)
        if process.is_alive:
            process.interrupt("too slow")

    env.process(straggler_holder())
    waiter = env.process(impatient_waiter())
    env.process(watchdog(waiter))
    env.run()
    assert log == [("waiter gave up", 10), ("holder released", 20)]
    assert resource.available == 1
    assert resource.queue_length == 0


def test_abandoned_granted_request_returns_unit():
    env = Environment()
    resource = Resource(env, capacity=1)
    grant = resource.request()  # granted immediately
    assert resource.in_use == 1
    grant._abandon()  # waiter died before collecting the unit
    assert resource.in_use == 0


def test_unit_reaches_next_waiter_after_interrupt():
    """With two queued waiters, interrupting the first must route the
    freed unit to the second (not lose it behind the dead grant)."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        yield from resource.acquire(10)

    def waiter(name):
        try:
            yield from resource.acquire(1)
            log.append((name, "held", env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))

    def killer(process):
        yield env.timeout(2)
        process.interrupt()

    env.process(holder())
    env.process(killer(env.process(waiter("first"))))
    env.process(waiter("second"))
    env.run()
    assert log == [("first", "interrupted", 2), ("second", "held", 11)]
    assert resource.available == 1


# ------------------------------------------------------- composite detach

def test_any_of_detaches_loser_callbacks():
    env = Environment()
    slow = env.timeout(100)
    fast = env.timeout(1)

    def proc():
        yield env.any_of([slow, fast])

    env.process(proc())
    env.run(until=10)
    # The loser has not fired; the composite's callback must be gone.
    assert slow._callbacks == []


def test_all_of_failure_detaches_pending_children():
    env = Environment()
    pending = env.timeout(100)
    failing = Event(env)
    log = []

    def proc():
        try:
            yield env.all_of([pending, failing])
        except RuntimeError:
            log.append(env.now)

    def failer():
        yield env.timeout(1)
        failing.fail(RuntimeError("child failed"))

    env.process(proc())
    env.process(failer())
    env.run(until=10)
    assert log == [1]
    assert pending._callbacks == []


# ------------------------------------------ event-loop equivalence (PBT)

#: the three loops that fire events: run()'s unbounded loop, its
#: watchdog-bounded loop, and a peek()+step() loop.
_LOOPS = ("run", "bounded", "step")


def _drain(env, loop):
    if loop == "bounded":
        env.configure_watchdog(max_events=10**9)
    if loop == "step":
        while env.peek() != float("inf"):
            env.step()
    else:
        env.run()


_STEP = st.one_of(
    st.tuples(st.just("timeout"), st.integers(0, 7)),
    st.tuples(st.just("acquire"), st.integers(1, 5)),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get"), st.just(0)),
)

_PROGRAM = st.lists(st.lists(_STEP, max_size=5), min_size=1, max_size=4)


def _execute(loop, program):
    env = Environment()
    resource = Resource(env, capacity=2)
    store = Store(env)
    log = []

    def runner(pid, steps):
        for index, step in enumerate(steps):
            op, arg = step
            if op == "timeout":
                yield env.timeout(arg)
            elif op == "acquire":
                yield from resource.acquire(arg)
            elif op == "put":
                store.put(arg)
            else:  # "get" — may block forever; the run just ends then
                item = yield store.get()
                log.append((pid, index, "got", item, env.now))
            log.append((pid, index, env.now))

    for pid, steps in enumerate(program):
        env.process(runner(pid, steps))
    _drain(env, loop)
    return env.now, env.events_fired, log


@settings(deadline=None, max_examples=40)
@given(program=_PROGRAM)
def test_optimized_scheduler_matches_legacy(program):
    """All three event loops run any program to the same end time, event
    count, and execution trace — the bit-identity contract at the
    engine level."""
    reference = _execute("run", program)
    for loop in _LOOPS[1:]:
        assert _execute(loop, program) == reference, loop


# --------------------------------- schedule() ordering edge cases


def test_schedule_same_time_events_fire_fifo():
    """Events landing on the *current* timestamp (zero delay, or a delay
    small enough that ``now + delay == now`` in float) must fire in
    scheduling order.  This is the tuple-ordering edge case the old
    duplicated ``heappush`` sites each handled with their own seq
    counter; ``Environment.schedule`` is now the single seam."""
    for loop in _LOOPS:
        env = Environment()
        log = []
        events = [Event(env) for _ in range(8)]
        for index, event in enumerate(events):
            event.add_callback(
                lambda ev, index=index: log.append((index, env.now)))

        def proc():
            yield env.timeout(5)
            for index, event in enumerate(events):
                # Alternate exact-zero and denormal-small delays: both
                # round to the current timestamp and must stay FIFO.
                env.schedule(event, 0.0 if index % 2 == 0 else 1e-300)

        env.process(proc())
        _drain(env, loop)
        assert log == [(i, 5) for i in range(8)], loop


def test_schedule_rejects_negative_delay():
    from repro.sim.engine import SimulationError

    env = Environment()
    try:
        env.schedule(Event(env), -1.0)
    except SimulationError:
        pass
    else:  # pragma: no cover - failure path
        raise AssertionError("negative delay must raise")


def test_schedule_interleaves_future_and_now_events():
    """A future event scheduled *before* same-time events must still
    fire after them once the clock reaches its timestamp, and same-time
    events enqueued by a firing event run before the clock advances."""
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3)
        log.append(("first", env.now))
        follow = Event(env)
        follow.add_callback(lambda ev: log.append(("follow", env.now)))
        env.schedule(follow)  # same timestamp: runs before t=7 below
        yield env.timeout(4)
        log.append(("second", env.now))

    env.process(proc())
    env.run()
    assert log == [("first", 3), ("follow", 3), ("second", 7)]


# ----------------------------------------- recorded engine fingerprints

#: T-NLG OP at TP=4, fast scale: sha256 of the Sequential + T3-MCA suite
#: payload, and a fused T3-MCA GEMM-RS run of the same shape (engine
#: events, final time == duration, telemetry snapshot sha256).
T_NLG_OP_TP4_SUITE_SHA = (
    "594de80ea16444d05876a1911fa5c4ca62f82425cd308b643a10ad4f869f2e13")
T_NLG_OP_TP4_EVENTS = 14_717
T_NLG_OP_TP4_END_NS = 137910.02618401212
T_NLG_OP_TP4_SNAPSHOT_SHA = (
    "c0f0eadb02a6cad5b6b886edf8966aa1cb44350b57d574ad4515195e0471a2db")


def _sha(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _t_nlg_op_tp4_suite(system, **kwargs):
    from repro.experiments import sublayer_sweep
    from repro.models import zoo

    return sublayer_sweep.simulate_case(
        zoo.t_nlg().sublayer("OP", 4), sublayer_sweep.FAST_SCALE, system,
        ["Sequential", "T3-MCA"], **kwargs)


def _t_nlg_op_tp4_fused(system, **attachments):
    """One fused T3-MCA GEMM-RS on the case's sweep shape; returns the
    environment and the result."""
    from repro.experiments import sublayer_sweep
    from repro.experiments.common import _fresh_topology
    from repro.models import zoo
    from repro.t3.fusion import FusedGEMMRS

    shape = sublayer_sweep.case_shape(zoo.t_nlg().sublayer("OP", 4),
                                      sublayer_sweep.FAST_SCALE, system)
    topo = _fresh_topology(system, "mca", **attachments)
    return topo.env, FusedGEMMRS(topo, shape, calibrate_mca=True).run()


def test_t_nlg_op_tp4_matches_recorded_fingerprints():
    """T-NLG OP at TP=4, fast scale: the sweep payload (plain, and with
    a seeded straggler under the invariant checker) and a fused GEMM-RS
    run with telemetry attached reproduce their recorded fingerprints."""
    from repro.config import table1_system
    from repro.faults import FaultPlan
    from repro.obs import MetricsRegistry

    system = table1_system(n_gpus=4)
    assert _sha(_t_nlg_op_tp4_suite(system).to_dict()) == \
        T_NLG_OP_TP4_SUITE_SHA
    assert _sha(_t_nlg_op_tp4_suite(
        system, faults=FaultPlan.straggler(gpu_id=0, factor=1.5, seed=7),
        check_invariants=True).to_dict()) == (
        "f396fd94f98198cb60b6c5730a620c562252a410af65fdbe5ecc260bacdfe5a8")

    registry = MetricsRegistry()
    env, result = _t_nlg_op_tp4_fused(system, obs=registry)
    assert env.events_fired == T_NLG_OP_TP4_EVENTS
    assert env.now == result.duration == T_NLG_OP_TP4_END_NS
    assert _sha(registry.snapshot()) == T_NLG_OP_TP4_SNAPSHOT_SHA


#: plain ``run_sublayer_suite`` payload sha256s on 4-CU systems, recorded
#: with every rank simulated: name -> (ranks, (m, n, k), rotation
#: period, sha).  Half-row chunks repeat every 2 ranks of 4, quarter-row
#: chunks every 4 of 8, and unequal chunks keep the full ring.
_PERIODIC_SUITE_SHAS = {
    "half-row": (4, (768, 768, 2048), 2,
                 "dedd2bd83a2e4130321273d1efeff5144d0f2ff229d21f8fcd1591584f348f99"),
    "quarter-row": (8, (768, 512, 2048), 4,
                    "fc297364cc4694c29501529402dffa9b991a02d9da29c543d95f658fc9944bb3"),
    "uneven": (4, (768, 640, 2048), 4,
               "1c560486defc8fee1aced21fe4533f453b0cbdaa7d19cbac5e880df0e36be2a5"),
}


@pytest.mark.parametrize("name", sorted(_PERIODIC_SUITE_SHAS))
def test_one_rotation_period_reproduces_the_full_ring(name):
    """A plain suite simulates one rotation period of its ring, and its
    payload stays the one recorded with every rank simulated."""
    from repro.config import table1_system
    from repro.experiments.common import _ring_period, run_sublayer_suite
    from repro.gpu.wavefront import GEMMShape

    n_gpus, (m, n, k), period, digest = _PERIODIC_SUITE_SHAS[name]
    system = table1_system(n_gpus=n_gpus)
    system = system.replace(
        compute=dataclasses.replace(system.compute, n_cus=4))
    shape = GEMMShape(m=m, n=n, k=k, name=name)
    ring = _ring_period(system, shape)
    assert (ring[0] if ring else n_gpus) == period
    assert _sha(run_sublayer_suite(system, shape).to_dict()) == digest


#: (duration ns, events fired) per ring size on ``table1_system`` rings:
#: a 4 MiB NMC reduce-scatter at a 32 KiB quantum, and the fused
#: all-gather -> consumer GEMM (2048x1024x1024, 8 CUs) at 16 KiB.
#: Recorded while each T3 driver still had its own set-up and run loop.
_NMC_RS_RECORDED = {4: (47072.726153846204, 5_225),
                    8: (60902.81435897448, 12_777)}
_CONSUMER_RECORDED = {4: (443478.58285714465, 22_549),
                      8: (443384.7481835829, 49_553)}
#: ``run_consumer_fusion(fast=True)``: case -> (sequential, fused) us.
_CONSUMER_FUSION_RECORDED = {
    "Mega-GPT-2/FC-1-consumer/TP8": (364.5801718939882, 272.8972220666726),
    "T-NLG/FC-1-consumer/TP8": (315.5707761947851, 265.5408592089141),
}


def _ring(n_gpus, quantum):
    from repro.config import table1_system
    from repro.interconnect.topology import RingTopology

    env = Environment()
    system = table1_system(n_gpus=n_gpus).with_fidelity(
        quantum_bytes=quantum)
    return env, RingTopology(env, system)


@pytest.mark.parametrize("n_gpus", (4, 8))
def test_nmc_rs_and_consumer_fusion_match_recorded_constants(n_gpus):
    """The two smaller T3 drivers reproduce their recorded durations and
    engine event counts exactly."""
    from repro import units
    from repro.gpu.wavefront import GEMMShape
    from repro.t3.consumer import FusedAGConsumerGEMM
    from repro.t3.standalone import NMCReduceScatter

    env, topo = _ring(n_gpus, 32 * 1024)
    result = NMCReduceScatter(topo, nbytes_total=4 * units.MiB).run()
    assert (result.duration, env.events_fired) == _NMC_RS_RECORDED[n_gpus]

    env, topo = _ring(n_gpus, 16 * 1024)
    result = FusedAGConsumerGEMM(
        topo, GEMMShape(2048, 1024, 1024), n_cus=8).run()
    assert (result.duration, env.events_fired) == \
        _CONSUMER_RECORDED[n_gpus]


def test_consumer_fusion_study_matches_recorded_constants():
    from repro.experiments.extensions import run_consumer_fusion

    study = run_consumer_fusion(fast=True)
    assert {row.case: (row.sequential_us, row.fused_us)
            for row in study.rows} == _CONSUMER_FUSION_RECORDED


#: what each row of the transparency table attaches; ``all`` attaches
#: every one of them at once.
_ATTACHMENTS = ("obs", "trace", "empty-faults+invariants", "resilience",
                "static-policy")


@pytest.mark.parametrize("row", ("none",) + _ATTACHMENTS + ("all",))
def test_attachments_leave_t_nlg_op_tp4_fingerprints_unchanged(row):
    """Transparency table: telemetry, tracing, an empty fault plan with
    the invariant checker, the dormant resilience runtime and an
    explicit static policy each leave the recorded fingerprints exactly
    as they are, alone and all together."""
    from repro.analysis.trace import TraceRecorder
    from repro.config import table1_system
    from repro.faults import FaultPlan
    from repro.obs import MetricsRegistry

    on = set(_ATTACHMENTS) if row == "all" else {row} & set(_ATTACHMENTS)
    system = table1_system(n_gpus=4)
    if "static-policy" in on:
        system = system.with_policy("static")
    sweep, fused = {}, {}
    if "obs" in on:
        sweep["obs_sink"], fused["obs"] = {}, MetricsRegistry()
    if "trace" in on:
        sweep["trace_sink"] = {}
        fused["trace"] = TraceRecorder(record_dram=True)
    if "empty-faults+invariants" in on:
        for kwargs in (sweep, fused):
            kwargs.update(faults=FaultPlan(), check_invariants=True)
    if "resilience" in on:
        sweep["resilience"] = fused["resilience"] = True

    suite = _t_nlg_op_tp4_suite(system, **sweep)
    assert _sha(suite.to_dict()) == T_NLG_OP_TP4_SUITE_SHA
    env, result = _t_nlg_op_tp4_fused(system, **fused)
    assert env.events_fired == T_NLG_OP_TP4_EVENTS
    assert env.now == result.duration == T_NLG_OP_TP4_END_NS

    for sink in ("obs_sink", "trace_sink"):
        if sink in sweep:
            assert sorted(sweep[sink]) == ["Sequential", "T3-MCA"]
            assert all(len(recorded) for recorded in sweep[sink].values())
    if "obs" in on:
        assert _sha(fused["obs"].snapshot()) == T_NLG_OP_TP4_SNAPSHOT_SHA
    if "trace" in on:
        assert len(fused["trace"])
    if "empty-faults+invariants" in on:
        env.invariants.check_all()
    if "resilience" in on:
        assert not env.resilience.armed
        assert not env.resilience.recoveries


# ----------------------- converted state machines (model-layer PBT)

#: first 16 hex digits of ``_sha([suite.to_dict(), snapshots])`` per
#: (hidden, seq_len, tp, sub-layer).
_SUBLAYER_DIGESTS = {
    (512, 256, 2, "OP"): "8f421fcf9daef4a9",
    (512, 256, 2, "FC-2"): "d5dcdfdf19e89a78",
    (512, 256, 2, "IP"): "4c6eb3495f63aedf",
    (512, 256, 4, "OP"): "ba421995093c0e4a",
    (512, 256, 4, "FC-2"): "20d1e22d6e7b1c16",
    (512, 256, 4, "IP"): "81584ce959deb417",
    (512, 512, 2, "OP"): "b9de950fcefef8b6",
    (512, 512, 2, "FC-2"): "dad304c29276fcd7",
    (512, 512, 2, "IP"): "e845eb294d99bd7b",
    (512, 512, 4, "OP"): "21645ca64f4049d9",
    (512, 512, 4, "FC-2"): "feea93342d167d50",
    (512, 512, 4, "IP"): "1d595833ad1dd601",
    (1024, 256, 2, "OP"): "e8d3c9dbee9ed0a9",
    (1024, 256, 2, "FC-2"): "00bee00e5cec2ac5",
    (1024, 256, 2, "IP"): "a8a7ceb37f0abdaa",
    (1024, 256, 4, "OP"): "77365ee3fe1e7cb3",
    (1024, 256, 4, "FC-2"): "52acb4a2862f0339",
    (1024, 256, 4, "IP"): "a6dbe0228087598f",
    (1024, 512, 2, "OP"): "b80528ba938ba642",
    (1024, 512, 2, "FC-2"): "357274e150ea5a8c",
    (1024, 512, 2, "IP"): "a4ec2d8b40117d08",
    (1024, 512, 4, "OP"): "a5ddb605a7ac42f3",
    (1024, 512, 4, "FC-2"): "4bb757834afa5183",
    (1024, 512, 4, "IP"): "267ab601d0c4fb4e",
}

_TINY_HIDDEN = st.sampled_from([512, 1024])
_TINY_SEQ = st.sampled_from([256, 512])
_TINY_TP = st.sampled_from([2, 4])
_TINY_SUBLAYER = st.sampled_from(["OP", "FC-2", "IP"])


@settings(deadline=None, max_examples=24)
@given(hidden=_TINY_HIDDEN, seq_len=_TINY_SEQ, tp=_TINY_TP,
       sublayer=_TINY_SUBLAYER)
def test_converted_machines_match_legacy_on_sublayer_cases(
        hidden, seq_len, tp, sublayer):
    """End-to-end fingerprint of the converted GEMM/DMA/link state
    machines: a random sub-layer case must reproduce its recorded suite
    payload (all config times, traffic) and telemetry snapshots (which
    embed event ordering via time-stamped series and end_time)."""
    from repro.config import table1_system
    from repro.experiments.common import run_sublayer_suite
    from repro.models.transformer import TransformerConfig

    model = TransformerConfig(name="pbt", hidden=hidden, n_layers=1,
                              seq_len=seq_len, batch=1)
    sub = model.sublayer(sublayer, tp)
    registries = {}
    suite = run_sublayer_suite(
        table1_system(n_gpus=tp), sub.gemm, label=sub.label,
        configs=["Sequential", "T3", "T3-MCA"], obs_sink=registries)
    snapshots = {name: registry.snapshot()
                 for name, registry in registries.items()}
    digest = _sha([suite.to_dict(), snapshots])[:16]
    assert digest == _SUBLAYER_DIGESTS[(hidden, seq_len, tp, sublayer)]
