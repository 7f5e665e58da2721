"""Per-GPU memory controller.

Responsibilities (Figure 8):

* split traffic across HBM channels (round-robin interleave per request),
* arbitrate the compute vs. communication streams (delegated to the
  per-channel :mod:`repro.memory.arbiter` policy),
* maintain traffic counters / timelines for the paper's accounting
  (Figures 17 and 18),
* notify the T3 Tracker of serviced writes/updates that carry WF metadata
  (the Tracker is checked "once the accesses are enqueued in the memory
  controller queue", Section 4.2.1 — we notify at service completion,
  which is equivalent for triggering order),
* provide stream-drain events (the communication stream is drained at
  producer-kernel boundaries, Section 4.5) and MCA calibration.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

from repro.config import SystemConfig
from repro.memory.arbiter import make_policy
from repro.policy import resolve_overlap_policy
from repro.memory.dram import HBMChannel
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.sim.engine import BaseEvent, Environment
from repro.sim.stats import Counter, TimeSeries


class MemoryController:
    """Dual-stream memory controller over ``n_channels`` HBM channels."""

    def __init__(self, env: Environment, config: SystemConfig,
                 policy_name: str = "compute-priority", gpu_id: int = 0):
        self.env = env
        self.config = config
        self.gpu_id = gpu_id
        self.policy_name = policy_name
        self.counters = Counter()
        self.record_traffic = config.fidelity.record_traffic
        self.traffic: Dict[str, TimeSeries] = {}
        self._tracker_observers: List[Callable[[MemRequest], None]] = []
        # Outstanding counts and drain waiters live in plain attributes
        # (not Stream-keyed dicts): ``_on_serviced`` runs once per DRAM
        # transaction and enum hashing is measurable there.
        self._out_compute = 0
        self._out_comm = 0
        self._waiters_compute: List[BaseEvent] = []
        self._waiters_comm: List[BaseEvent] = []
        # One overlap policy per environment: building a controller is
        # what pulls the SystemConfig.policy selection into the run (the
        # DMA engines and trigger controllers consult the same instance
        # through env.overlap).
        overlap = resolve_overlap_policy(env, config)
        memory = config.memory
        self.channels = [
            HBMChannel(
                env,
                channel_id=i,
                bandwidth_bytes_per_ns=memory.channel_bandwidth,
                queue_depth=memory.dram_queue_depth,
                ccdwl_factor=memory.nmc_ccdwl_factor,
                policy=make_policy(policy_name, config.mca,
                                   overlap=overlap, gpu_id=gpu_id,
                                   channel_id=i),
                on_serviced=self._on_serviced,
                gpu_id=gpu_id,
            )
            for i in range(memory.n_channels)
        ]
        self._next_channel = 0
        env.add_diagnostic(self._diagnostic)
        if env.invariants is not None:
            env.invariants.register_controller(self)

    # -- submission -----------------------------------------------------------

    def submit_bulk(self, kind: AccessKind, stream: Stream, nbytes: float,
                    label: str, wg_id: Optional[int] = None,
                    wf_id: Optional[int] = None,
                    chunk_id: Optional[int] = None) -> List[BaseEvent]:
        """Split ``nbytes`` (rounded up) into quantum-sized requests — full
        quanta, then the remainder — and submit them round-robin.

        Returns the completion events (one per transaction).  This runs
        once per kernel wave, DMA slice and collective step, so the
        outstanding count and round-robin index are updated once per
        call, and each quantum costs one request, one event and one
        channel hand-off.
        """
        if nbytes <= 0:
            return []
        quantum = self.config.fidelity.quantum_bytes
        total = math.ceil(nbytes)
        count = -(-total // quantum)
        if stream is Stream.COMM:
            self._out_comm += count
        else:
            self._out_compute += count
        env = self.env
        channels = self.channels
        n_channels = len(channels)
        index = self._next_channel
        events = []
        append = events.append
        for offset in range(0, total, quantum):
            remaining = total - offset
            done = BaseEvent(env)
            append(done)
            channels[index].submit(MemRequest(
                kind, stream, quantum if remaining > quantum else remaining,
                label, wg_id, wf_id, chunk_id, done=done))
            index += 1
            if index == n_channels:
                index = 0
        self._next_channel = index
        return events

    # -- tracker & accounting ---------------------------------------------------

    def add_tracker_observer(self, observer: Callable[[MemRequest], None]) -> None:
        """Register a callback fired for serviced writes/updates."""
        self._tracker_observers.append(observer)

    def _on_serviced(self, request: MemRequest) -> None:
        key = request.counter_key
        nbytes = request.nbytes
        self.counters.add(key, nbytes)
        if self.record_traffic:
            series = self.traffic.get(key)
            if series is None:
                series = TimeSeries(key)
                self.traffic[key] = series
            series.record(self.env._now, nbytes)
        if request.kind is not AccessKind.READ:  # WRITE or UPDATE
            for observer in self._tracker_observers:
                observer(request)
        if request.stream is Stream.COMM:
            self._out_comm -= 1
            if self._out_comm == 0 and self._waiters_comm:
                waiters = self._waiters_comm
                self._waiters_comm = []
                for waiter in waiters:
                    waiter.succeed()
        else:
            self._out_compute -= 1
            if self._out_compute == 0 and self._waiters_compute:
                waiters = self._waiters_compute
                self._waiters_compute = []
                for waiter in waiters:
                    waiter.succeed()

    # -- drains ----------------------------------------------------------------

    def outstanding(self, stream: Stream) -> int:
        return self._out_comm if stream is Stream.COMM else self._out_compute

    def drain(self, stream: Stream) -> BaseEvent:
        """Event firing when every submitted request of ``stream`` is done."""
        done = BaseEvent(self.env)
        if self.outstanding(stream) == 0:
            done.succeed()
        else:
            if stream is Stream.COMM:
                self._waiters_comm.append(done)
            else:
                self._waiters_compute.append(done)
            if self.env.obs is not None:
                scope = self.env.obs.scope(self.gpu_id, "mc")
                scope.count(f"drain_waits.{stream.value}")
                t0 = self.env.now
                done.add_callback(
                    lambda _ev, scope=scope, t0=t0, stream=stream:
                    scope.observe(f"drain_stall_ns.{stream.value}",
                                  self.env.now - t0))
        return done

    def drain_all(self) -> BaseEvent:
        from repro.sim.primitives import AllOf

        return AllOf(self.env, [self.drain(s) for s in Stream])

    # -- MCA calibration ---------------------------------------------------------

    def calibrate(self, read_bytes: float, write_bytes: float,
                  duration_ns: float) -> float:
        """Feed the policy the kernel's observed memory intensity.

        The paper's MC "detects the memory intensiveness of a kernel by
        monitoring occupancy during its isolated execution (the first
        stage)"; we equivalently measure demanded bytes/ns against peak.
        Returns the intensity fraction for inspection.
        """
        if duration_ns <= 0:
            raise ValueError("calibration window must have positive duration")
        demand = (read_bytes + write_bytes) / duration_ns
        intensity = demand / self.config.memory.effective_bandwidth
        for channel in self.channels:
            channel.policy.calibrate(intensity)
        return intensity

    # -- introspection -------------------------------------------------------------

    def _diagnostic(self) -> str:
        """One line of queue-depth state for the engine's hang dump."""
        backlog = {
            stream.value: sum(c.stream_backlog(stream) for c in self.channels)
            for stream in Stream
        }
        occupancy = sum(c.dram_occupancy for c in self.channels)
        return (f"gpu{self.gpu_id}.mc: outstanding "
                f"compute={self._out_compute} "
                f"comm={self._out_comm}; stream backlog "
                f"{backlog}; dram occupancy {occupancy}")

    @property
    def idle(self) -> bool:
        return all(channel.idle for channel in self.channels)

    def total_bytes(self, prefix: str = "") -> float:
        return self.counters.total(prefix)

    def utilization(self, elapsed_ns: float) -> float:
        if not self.channels:
            return 0.0
        return sum(c.utilization(elapsed_ns) for c in self.channels) / len(self.channels)

    def merged_traffic(self, keys: Iterable[str]) -> TimeSeries:
        """Merge several recorded series into one time-ordered series."""
        keys = list(keys)  # read twice: the name, then the samples
        merged = TimeSeries("+".join(keys))
        samples: List[tuple[float, float]] = []
        for key in keys:
            series = self.traffic.get(key)
            if series is None:
                continue
            samples.extend(zip(series.times, series.values))
        for time, value in sorted(samples):
            merged.record(time, value)
        return merged
