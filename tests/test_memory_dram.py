"""Unit tests for the HBM channel model (repro.memory.dram)."""

import gc
import weakref

import pytest

from repro.memory.arbiter import ComputePriorityPolicy, MCAPolicy, RoundRobinPolicy
from repro.memory.dram import HBMChannel
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.config import MCAConfig
from repro.sim import Environment
from repro.sim.machines import CallbackMachine
from repro.sim.primitives import ReusableTimer


def make_channel(env, bw=100.0, depth=4, ccdwl=2.0, policy=None, on_serviced=None):
    return HBMChannel(
        env, channel_id=0, bandwidth_bytes_per_ns=bw, queue_depth=depth,
        ccdwl_factor=ccdwl, policy=policy or ComputePriorityPolicy(),
        on_serviced=on_serviced,
    )


def req(kind=AccessKind.READ, stream=Stream.COMPUTE, nbytes=1000, label="gemm"):
    return MemRequest(kind=kind, stream=stream, nbytes=nbytes, label=label)


def test_single_request_service_time():
    env = Environment()
    channel = make_channel(env, bw=100.0)
    r = req(nbytes=1000)  # 10 ns at 100 B/ns
    channel.submit(r)
    env.run()
    assert r.serviced_at == pytest.approx(10.0)
    assert channel.bytes_serviced == 1000
    assert channel.busy_time == pytest.approx(10.0)


def test_update_pays_ccdwl_penalty():
    env = Environment()
    channel = make_channel(env, bw=100.0, ccdwl=2.0)
    write = req(kind=AccessKind.WRITE, nbytes=1000)
    update = req(kind=AccessKind.UPDATE, nbytes=1000)
    assert channel.service_time(write) == pytest.approx(10.0)
    assert channel.service_time(update) == pytest.approx(20.0)


def test_requests_serviced_fifo_within_stream():
    env = Environment()
    channel = make_channel(env)
    done_order = []
    requests = [req(nbytes=100) for _ in range(5)]
    for i, r in enumerate(requests):
        channel.submit(r)
        r.done.add_callback(lambda ev, i=i: done_order.append(i))
    env.run()
    assert done_order == [0, 1, 2, 3, 4]


def test_compute_priority_starves_comm_under_load():
    env = Environment()
    channel = make_channel(env, policy=ComputePriorityPolicy())
    comm = req(stream=Stream.COMM, nbytes=100, label="rs")
    channel.submit(comm)
    computes = [req(nbytes=100) for _ in range(10)]
    for r in computes:
        channel.submit(r)
    env.run()
    # Comm was submitted first and wins the first issue slot, but any
    # compute requests present thereafter go ahead of nothing -- with
    # compute-priority the comm request issued at t=0 only because compute
    # queue was empty at submission time.
    assert comm.serviced_at is not None
    assert all(r.serviced_at is not None for r in computes)


def test_dram_queue_backpressure_limits_occupancy():
    env = Environment()
    channel = make_channel(env, bw=1.0, depth=2)
    for _ in range(10):
        channel.submit(req(nbytes=100))
    env.run(until=50)
    # At most depth + 1 requests can be issued+in-service at once.
    assert channel.dram_occupancy <= 3
    env.run()
    assert channel.idle


def test_mca_channel_holds_comm_while_compute_flows():
    env = Environment()
    policy = MCAPolicy(MCAConfig(starvation_limit_ns=1e9))
    policy.calibrate(0.9)  # strict threshold 5
    channel = make_channel(env, bw=1.0, depth=16, policy=policy)

    compute_reqs = [req(nbytes=50) for _ in range(8)]
    comm_reqs = [req(stream=Stream.COMM, nbytes=50, label="rs")
                 for _ in range(8)]
    for r in compute_reqs + comm_reqs:
        channel.submit(r)
    env.run()
    last_compute = max(r.serviced_at for r in compute_reqs)
    first_comm = min(r.serviced_at for r in comm_reqs)
    # All compute requests finish before any comm request is serviced:
    # occupancy stays >= threshold while compute floods the queue.
    assert first_comm > last_compute


def test_round_robin_interleaves_streams():
    env = Environment()
    channel = make_channel(env, bw=1.0, depth=2, policy=RoundRobinPolicy())
    compute_reqs = [req(nbytes=10) for _ in range(4)]
    comm_reqs = [req(stream=Stream.COMM, nbytes=10, label="rs")
                 for _ in range(4)]
    for pair in zip(compute_reqs, comm_reqs):
        for r in pair:
            channel.submit(r)
    env.run()
    # Comm is not starved: its last service is interleaved, not after all
    # compute requests.
    assert max(r.serviced_at for r in comm_reqs) <= \
        max(r.serviced_at for r in compute_reqs) + 10


def test_on_serviced_callback_fires_per_request():
    env = Environment()
    seen = []
    channel = make_channel(env, on_serviced=lambda r: seen.append(r.req_id))
    submitted = [req(nbytes=10) for _ in range(3)]
    for r in submitted:
        channel.submit(r)
    env.run()
    assert seen == [r.req_id for r in submitted]


def test_channel_validation():
    env = Environment()
    with pytest.raises(ValueError):
        make_channel(env, bw=0)
    with pytest.raises(ValueError):
        make_channel(env, depth=0)
    with pytest.raises(ValueError):
        make_channel(env, ccdwl=0.5)


def test_request_validation():
    with pytest.raises(ValueError):
        req(nbytes=0)


def test_utilization_accounting():
    env = Environment()
    channel = make_channel(env, bw=10.0)
    channel.submit(req(nbytes=100))  # 10 ns busy
    env.run()
    assert channel.utilization(20.0) == pytest.approx(0.5)
    assert channel.utilization(0) == 0.0


# -- request lifecycle: completions nobody awaits fire in place -------------


def _service_trace(subscribe):
    """Serve a mixed stream batch; optionally subscribe to every completion."""
    env = Environment()
    policy = MCAPolicy(MCAConfig(starvation_limit_ns=50.0))
    policy.calibrate(0.5)
    channel = make_channel(env, bw=10.0, depth=3, policy=policy)
    requests = [req(stream=Stream.COMM if i % 3 else Stream.COMPUTE,
                    kind=AccessKind.UPDATE if i % 3 else AccessKind.WRITE,
                    nbytes=100 + 10 * i) for i in range(12)]
    for r in requests:
        channel.submit(r)
        if subscribe:
            r.done.add_callback(lambda ev: None)
    end = env.run()
    return env.events_fired, end, [r.serviced_at for r in requests]


def test_unawaited_completion_skips_the_schedule():
    awaited_events, awaited_end, awaited_times = _service_trace(True)
    bare_events, bare_end, bare_times = _service_trace(False)
    # Same service order and times; one engine event fewer per request.
    assert bare_times == awaited_times and bare_end == awaited_end
    assert awaited_events - bare_events == 12


def test_unawaited_completion_is_fired_with_the_request_as_value():
    env = Environment()
    channel = make_channel(env)
    r = req(nbytes=100)
    channel.submit(r)
    done = r.done
    env.run()
    assert done.triggered and done.fired and done.ok
    assert done.value is r
    assert r.done is None  # released once serviced: no request/event cycle


def test_late_subscriber_to_fired_completion_runs_immediately():
    env = Environment()
    channel = make_channel(env)
    r = req(nbytes=100)
    channel.submit(r)
    done = r.done
    env.run()
    seen = []
    done.add_callback(lambda ev: seen.append((env.now, ev.value)))
    assert seen == [(env.now, r)]


def test_awaited_completion_fires_from_the_now_queue_in_fifo_order():
    env = Environment()
    order = []

    def on_serviced(r):
        # An event queued at service time lands behind the completion.
        order.append(("serviced", r.req_id))
        marker = env.event()
        marker.add_callback(lambda ev, i=r.req_id: order.append(("after", i)))
        marker.succeed()

    channel = make_channel(env, on_serviced=on_serviced)
    requests = [req(nbytes=100) for _ in range(3)]
    for r in requests:
        channel.submit(r)
        r.done.add_callback(lambda ev: order.append(("done", ev.value.req_id)))
    env.run()
    expected = []
    for r in requests:
        expected += [("serviced", r.req_id), ("done", r.req_id),
                     ("after", r.req_id)]
    assert order == expected


def test_late_all_of_tied_with_in_place_completion_runs_before_later_work():
    """Pins the one order in-place firing changes (module docstring): a
    read nobody awaits finishes service at T, then two heap events at the
    same T fire behind it — the first subscribes ``all_of`` to the read's
    completion, the second queues other work.  The completion was fired in
    place, so the ``AllOf`` is queued at subscription time and its waiter
    runs first.  Before completions with no subscribers were fired in
    place, the order was the reverse: the completion waited in the
    now-queue, so the ``AllOf`` was queued only when it fired, behind the
    other work."""
    env = Environment()
    channel = make_channel(env, bw=100.0)
    read = req(nbytes=1000)  # service ends at T = 10 ns
    channel.submit(read)
    done = read.done
    env.run(until=5.0)  # service is under way: its end is on the heap
    order = []

    def subscribe(_event):
        env.all_of([done]).add_callback(lambda ev: order.append("all_of"))

    def queue_other_work(_event):
        other = env.event()
        other.add_callback(lambda ev: order.append("other"))
        other.succeed()

    env.timeout(5.0).add_callback(subscribe)
    env.timeout(5.0).add_callback(queue_other_work)
    env.run()
    assert read.serviced_at == env.now == 10.0
    assert order == ["all_of", "other"]


class _Countdown(CallbackMachine):
    __slots__ = ("left",)

    def __init__(self, env, left):
        super().__init__(env)
        self.left = left

    def _advance(self, _event=None):
        self.left -= 1
        if self.left:
            self._arm(1.0)


def _count_down(timer):
    if timer.value:
        timer.arm(1.0, timer.value - 1)


class _TimerOwner:
    def __init__(self, env, ticks):
        self.timer = ReusableTimer(env, _count_down)
        self.timer.arm(1.0, ticks)


def test_finished_objects_die_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        channel = make_channel(env)
        r = req(nbytes=100)
        channel.submit(r)
        machine = _Countdown(env, 3)
        machine.start()
        owner = _TimerOwner(env, 3)
        env.run()
        assert machine.left == 0 and r.serviced_at is not None
        assert env.now == 4.0  # the owner's timer fired four times
        refs = [weakref.ref(obj)
                for obj in (r, machine, owner, owner.timer)]
        del r, machine, owner
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_timer_and_machine_rearm_reuse_one_callback_tuple():
    env = Environment()
    fired = []
    timer = ReusableTimer(env, lambda ev: fired.append(env.now))
    machine = _Countdown(env, 3)
    timer.arm(1.0)
    armed = timer._callbacks
    env.run()
    timer.arm(1.0)
    assert timer._callbacks is armed
    machine.start()
    assert machine._callbacks is _Countdown._rearm
    env.run()
    assert fired == [1.0, 2.0] and machine.left == 0
