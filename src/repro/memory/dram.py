"""HBM channel model.

Each channel is a service center with:

* two *stream queues* (compute / communication) feeding it,
* a finite *DRAM queue* of issued-but-unserviced requests — the occupancy
  the MCA policy gates on (Section 4.5),
* FIFO service at the channel's share of HBM bandwidth, with NMC
  op-and-store (``UPDATE``) requests taking ``ccdwl_factor`` times longer
  (CCDWL = 2 x CCDL, Table 1 / Section 5.1.1).

Two event-driven state machines run per channel: an *issue machine* that
moves requests from the stream queues into the DRAM queue under the
arbitration policy, and a *service machine* that drains the DRAM queue in
order.  They are written as plain event callbacks rather than generator
processes: together they handle roughly half of all event firings in a
simulation, and a direct callback skips the generator-resume machinery
while scheduling exactly the same events in exactly the same order (one
wake per sleep, one zero-timeout per issue, one timed event per service).

Request lifecycle.  A request's completion event is created on submit.
Subscribers attach in the callback that submitted the request (an
``AllOf`` over the returned events, a machine's per-event callback),
except the GEMM's one-wave-ahead operand reads, whose ``AllOf`` attaches
at the next wave boundary.  When service ends, a completion with
subscribers fires through the engine's now-queue.  One with none (the
GEMM output writes nobody waits for, prefetched reads that land before
their wave) is marked fired in place and never enters the schedule.  Its
now-queue slot would run no callback, so skipping it reorders nothing
else, and a later subscriber finds it fired and runs at once under the
engine's late-subscription rule, just as it would after that slot.  The
two differ only for a subscriber attaching at the same timestamp between
the service end and the slot; none does in any ``perfbench`` workload
(every late ``AllOf`` attaches after the slot).  ``events_fired``
counts one event fewer per such request; the callback dispatches are
the same.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.memory.arbiter import ArbiterState, ArbitrationPolicy
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.sim.engine import BaseEvent, Environment
from repro.sim.primitives import ReusableTimer


class HBMChannel:
    """One simulated HBM channel (see module docstring).

    Slotted: a simulation builds one per (GPU, channel), and past ~30
    attributes a plain instance stops sharing its dict keys and pays for
    a full dict of its own.
    """

    __slots__ = (
        "env", "channel_id", "gpu_id", "bandwidth", "queue_depth",
        "ccdwl_factor", "policy", "on_serviced",
        "_q_compute", "_q_comm", "_dram_q", "_in_service", "_issue_idle",
        "_service_idle", "_servicing", "_service_duration",
        "_issue_timer", "_service_wake", "_service_timer", "_arbiter_state",
        "busy_time", "bytes_serviced", "bytes_enqueued",
        "_occ_key", "_obs_occ_gauge", "_obs_dram_scope", "_obs_arb_scope",
        "_gate_threshold", "_key_comm_grants", "_key_comm_deferrals",
    )

    def __init__(self, env: Environment, channel_id: int,
                 bandwidth_bytes_per_ns: float, queue_depth: int,
                 ccdwl_factor: float, policy: ArbitrationPolicy,
                 on_serviced: Optional[Callable[[MemRequest], None]] = None,
                 gpu_id: int = 0):
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("channel bandwidth must be positive")
        if queue_depth < 1:
            raise ValueError("DRAM queue depth must be >= 1")
        if ccdwl_factor < 1:
            raise ValueError("CCDWL factor must be >= 1 (it is a penalty)")
        self.env = env
        self.channel_id = channel_id
        self.gpu_id = gpu_id
        self.bandwidth = bandwidth_bytes_per_ns
        self.queue_depth = queue_depth
        self.ccdwl_factor = ccdwl_factor
        self.policy = policy
        self.on_serviced = on_serviced

        # One deque per stream as plain attributes: the issue loop touches
        # them every iteration and a Stream-keyed dict costs an enum hash
        # per access.
        self._q_compute: Deque[MemRequest] = deque()
        self._q_comm: Deque[MemRequest] = deque()
        self._dram_q: Deque[MemRequest] = deque()
        self._in_service = 0
        #: idle means: no tick scheduled, waiting to be woken.  The waker
        #: (submit / the peer machine) flips the flag and schedules a wake
        #: event, so a machine is woken at most once per sleep — the same
        #: protocol the former generator loops ran with wake events.
        self._issue_idle = True
        self._service_idle = True
        self._servicing: Optional[MemRequest] = None
        self._service_duration = 0.0
        # Recycled tick events: each machine sleeps at most once at a
        # time, so one timer object per wake/chain/service seam replaces
        # a fresh event allocation per tick (see ReusableTimer).
        self._issue_timer = ReusableTimer(env, self._issue_tick)
        self._service_wake = ReusableTimer(env, self._service_tick)
        self._service_timer = ReusableTimer(env, self._service_done)
        # One arbiter view, refreshed per decision (no policy keeps it).
        self._arbiter_state = ArbiterState(0, 0, 0, queue_depth, 0.0)
        self.busy_time = 0.0
        self.bytes_serviced = 0.0
        self.bytes_enqueued = 0.0

        # Lazily-resolved obs handles (a channel lives in exactly one env,
        # whose registry is attached before the first event fires): the
        # occupancy gauge is touched once per issue *and* once per service,
        # and rebuilding scope + key strings there dominates obs overhead.
        self._occ_key = f"ch{channel_id}.occupancy"
        self._obs_occ_gauge = None
        self._obs_dram_scope = None
        self._obs_arb_scope = None
        self._gate_threshold: object = self  # sentinel: not yet resolved
        self._key_comm_grants = ""
        self._key_comm_deferrals = ""

    # -- public API ---------------------------------------------------------

    def submit(self, request: MemRequest) -> None:
        env = self.env
        if request.done is None:
            request.done = BaseEvent(env)
        request.issued_at = env._now
        self.bytes_enqueued += request.nbytes
        if request.stream is Stream.COMM:
            self._q_comm.append(request)
        else:
            self._q_compute.append(request)
        if self._issue_idle:
            self._issue_idle = False
            self._issue_timer.arm()

    @property
    def dram_occupancy(self) -> int:
        """Issued requests waiting at or being serviced by the DRAM."""
        return len(self._dram_q) + self._in_service

    def stream_backlog(self, stream: Stream) -> int:
        return len(self._q_comm if stream is Stream.COMM else self._q_compute)

    @property
    def idle(self) -> bool:
        return (
            not self._dram_q
            and self._in_service == 0
            and not self._q_compute
            and not self._q_comm
        )

    def service_time(self, request: MemRequest) -> float:
        base = request.nbytes / self.bandwidth
        if request.kind is AccessKind.UPDATE:
            return base * self.ccdwl_factor
        return base

    def utilization(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)

    # -- event-driven state machines ------------------------------------------

    def _dram_scope(self):
        """The channel's ``dram`` obs scope, resolved once."""
        scope = self._obs_dram_scope = self.env.obs.scope(self.gpu_id, "dram")
        return scope

    def _record_arbitration(self, state: Optional[ArbiterState],
                            choice: Optional[Stream]) -> None:
        """Publish one arbitration decision (obs enabled only).

        ``state is None`` means no policy consultation happened — the DRAM
        queue was full (every backlogged stream was deferred) or nothing
        was waiting at all.
        """
        scope = self._obs_arb_scope
        if scope is None:
            scope = self._obs_arb_scope = self.env.obs.scope(
                self.gpu_id, "arbiter")
        threshold = getattr(self.policy, "threshold", None)
        if threshold is not self._gate_threshold:
            # Threshold changes only on MCA calibration; rebuild the
            # gate-tagged counter keys then instead of per decision.
            self._gate_threshold = threshold
            gate = "inf" if threshold is None else str(threshold)
            self._key_comm_grants = f"comm_grants.t{gate}"
            self._key_comm_deferrals = f"comm_deferrals.t{gate}"
        if state is None:
            if self._q_comm:
                scope.count("comm_deferrals.queue_full")
            if self._q_compute:
                scope.count("compute_deferrals.queue_full")
            return
        if choice is Stream.COMM:
            scope.count(self._key_comm_grants)
            if state.compute_waiting > 0:
                # Comm beat waiting compute: only the starvation guard
                # (or round-robin fairness) does that.
                scope.count("anti_starvation_fires")
        elif state.comm_waiting > 0:
            # A comm request was held back this round.
            if state.compute_waiting > 0:
                scope.count("comm_deferrals.compute_busy")
            else:
                scope.count(self._key_comm_deferrals)
        if choice is Stream.COMPUTE:
            scope.count("compute_grants")

    def _issue_tick(self, _event: Optional[BaseEvent] = None) -> None:
        """One arbitration round: issue at most one request, then either
        chain a zero-timeout tick (so issue/service interleave fairly and
        occupancy is observed one request at a time) or go idle."""
        env = self.env
        q_compute = self._q_compute
        q_comm = self._q_comm
        dram_q = self._dram_q
        depth = self.queue_depth
        choice: Optional[Stream] = None
        state: Optional[ArbiterState] = None
        if (q_compute or q_comm) and len(dram_q) + self._in_service < depth:
            state = self._arbiter_state
            state.compute_waiting = len(q_compute)
            state.comm_waiting = len(q_comm)
            state.dram_occupancy = len(dram_q) + self._in_service
            state.now = env._now
            choice = self.policy.choose(state)
        if env.obs is not None:
            self._record_arbitration(state, choice)
        if choice is None:
            self._issue_idle = True
            return
        if choice is Stream.COMM:
            request = q_comm.popleft()
        else:
            request = q_compute.popleft()
        dram_q.append(request)
        if env.obs is not None:
            gauge = self._obs_occ_gauge
            if gauge is None:
                gauge = self._obs_occ_gauge = self._dram_scope().gauge(
                    self._occ_key)
            gauge.set(env._now, len(dram_q) + self._in_service)
        self.policy.on_issue(choice, env._now)
        if self._service_idle:
            self._service_idle = False
            self._service_wake.arm()
        self._issue_timer.arm()

    def _service_tick(self, _event: Optional[BaseEvent] = None) -> None:
        """Pull the next request into service, or go idle."""
        dram_q = self._dram_q
        if not dram_q:
            self._service_idle = True
            return
        request = dram_q.popleft()
        self._in_service = 1
        duration = request.nbytes / self.bandwidth
        if request.kind is AccessKind.UPDATE:
            duration = duration * self.ccdwl_factor
        self._servicing = request
        self._service_duration = duration
        self._service_timer.arm(duration)

    def _service_done(self, _event: BaseEvent) -> None:
        """Retire the request in service, then chain to the next one."""
        env = self.env
        dram_q = self._dram_q
        request = self._servicing
        duration = self._service_duration
        self._servicing = None
        self._in_service = 0
        self.busy_time += duration
        if env.obs is not None:
            scope = self._obs_dram_scope
            if scope is None:
                scope = self._dram_scope()
            now = env._now
            if request.kind is AccessKind.UPDATE:
                scope.count("nmc_updates")
            elif request.kind is AccessKind.WRITE:
                scope.count("writes")
            else:
                scope.count("reads")
            # Key strings mirror Stream.value ("compute"/"comm") but
            # are spelled out: an enum ``.value`` read plus an f-string
            # per serviced request is measurable at this call rate.
            if request.stream is Stream.COMM:
                scope.count("bytes.comm", request.nbytes)
                scope.observe("service_ns.comm", duration)
                scope.span("comm_service", now - duration, now)
            else:
                scope.count("bytes.compute", request.nbytes)
                scope.observe("service_ns.compute", duration)
            gauge = self._obs_occ_gauge
            if gauge is None:
                gauge = self._obs_occ_gauge = scope.gauge(self._occ_key)
            gauge.set(now, len(dram_q) + self._in_service)
        trace = env.trace
        if trace is not None and trace.record_dram:
            args = {"stream": request.stream.value,
                    "bytes": request.nbytes}
            if request.chunk_id is not None:
                args["chunk"] = request.chunk_id
            trace.span(
                name=request.counter_key, category="dram",
                start_ns=env._now - duration, end_ns=env._now,
                track=f"gpu{self.gpu_id}.hbm.ch{self.channel_id}",
                group="memory", args=args)
        self.bytes_serviced += request.nbytes
        request.serviced_at = env._now
        done = request.done
        request.done = None
        if done._callbacks:
            done.succeed(request)
        else:
            # Nobody is waiting: fire in place (module docstring).
            done._triggered = done._fired = True
            done._value = request
            done._callbacks = None
        if self.on_serviced is not None:
            self.on_serviced(request)
        # Occupancy dropped: the issue machine may proceed — but only
        # wake it when it has backlog to issue.  A wake with both stream
        # queues empty would check, record nothing (even under obs: no
        # stream is waiting, so no deferral is counted) and go straight
        # back to sleep; skipping it removes roughly one dead event per
        # serviced request without changing any decision.
        if self._issue_idle and (self._q_compute or self._q_comm):
            self._issue_idle = False
            self._issue_timer.arm()
        self._service_tick()
