"""Memory-controller arbitration between compute and communication streams.

Section 4.5 of the paper motivates three policies:

* **round-robin** (the strawman): alternate between streams, falling back
  to the other stream when the preferred one is empty.  Bursty
  communication traffic can fill DRAM queues and stall compute reads.
* **compute-priority** (naive fix): always drain compute first.  Still
  insufficient — communication requests issued while the compute stream
  was momentarily empty already occupy the DRAM queue when the next
  compute burst arrives.
* **MCA** (T3's policy): compute priority *plus* an occupancy gate — the
  communication stream only issues when DRAM-queue occupancy is below a
  threshold chosen from {5, 10, 30, unlimited} by the compute kernel's
  observed memory intensity — *plus* an anti-starvation timer.

Policies are small strategy objects; one instance is created per channel
so per-channel state (round-robin turn, starvation clock) stays local.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MCAConfig
from repro.memory.request import Stream


class ArbiterState:
    """The view of one channel the policy decides on.

    Read once per arbitration decision on the simulator hot path, so it
    is a slotted plain class rather than a dataclass.  Each channel owns
    one and refreshes it in place per decision: a policy must not keep
    a reference to it past ``choose``.
    """

    __slots__ = ("compute_waiting", "comm_waiting", "dram_occupancy",
                 "dram_capacity", "now")

    def __init__(self, compute_waiting: int, comm_waiting: int,
                 dram_occupancy: int, dram_capacity: int, now: float):
        self.compute_waiting = compute_waiting
        self.comm_waiting = comm_waiting
        self.dram_occupancy = dram_occupancy
        self.dram_capacity = dram_capacity
        self.now = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArbiterState(compute_waiting={self.compute_waiting}, "
                f"comm_waiting={self.comm_waiting}, "
                f"dram_occupancy={self.dram_occupancy}, "
                f"dram_capacity={self.dram_capacity}, now={self.now})")


class ArbitrationPolicy:
    """Strategy interface: pick the next stream to issue from."""

    name = "abstract"

    def choose(self, state: ArbiterState) -> Optional[Stream]:
        raise NotImplementedError

    def on_issue(self, stream: Stream, now: float) -> None:
        """Called after a request from ``stream`` is issued."""

    def calibrate(self, memory_intensity: float) -> None:
        """Called at producer-kernel stage boundaries with the kernel's
        observed fraction-of-peak DRAM demand.  Only MCA reacts."""


class RoundRobinPolicy(ArbitrationPolicy):
    """Alternate between streams; fall back when the turn's stream is empty."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last: Optional[Stream] = None

    def choose(self, state: ArbiterState) -> Optional[Stream]:
        preferred = (
            Stream.COMPUTE if self._last is not Stream.COMPUTE else Stream.COMM
        )
        other = Stream.COMM if preferred is Stream.COMPUTE else Stream.COMPUTE
        for stream in (preferred, other):
            waiting = (
                state.compute_waiting if stream is Stream.COMPUTE
                else state.comm_waiting
            )
            if waiting > 0:
                return stream
        return None

    def on_issue(self, stream: Stream, now: float) -> None:
        self._last = stream


class ComputePriorityPolicy(ArbitrationPolicy):
    """Compute always wins; comm issues only when compute is empty."""

    name = "compute-priority"

    def choose(self, state: ArbiterState) -> Optional[Stream]:
        if state.compute_waiting > 0:
            return Stream.COMPUTE
        if state.comm_waiting > 0:
            return Stream.COMM
        return None


class MCAPolicy(ArbitrationPolicy):
    """T3's communication-aware arbitration (Section 4.5).

    Compute priority, an occupancy gate on the communication stream, and a
    starvation timer that force-issues comm if it has waited longer than
    ``starvation_limit_ns``.

    The *tunable* parts — the intensity -> threshold mapping and the
    occupancy-gate admission — are owned by the overlap-policy layer
    (:mod:`repro.policy`): this class keeps the structural arbitration
    (stream priority, starvation guard, issue bookkeeping) and delegates
    every threshold decision to the environment's
    :class:`~repro.policy.OverlapPolicy` through a per-channel
    :class:`~repro.policy.McaSite` handle.
    """

    name = "mca"

    def __init__(self, config: MCAConfig, overlap=None,
                 gpu_id: int = 0, channel_id: int = 0):
        self.config = config
        if overlap is None:
            # Direct construction (tests, standalone channels): the
            # paper's static policy, unattached to any environment.
            from repro.policy import StaticPaperPolicy
            overlap = StaticPaperPolicy()
        self.overlap = overlap
        self._site = overlap.register_mca_site(gpu_id, channel_id, config)
        self._last_comm_issue = 0.0
        self.calibrations: list[float] = []

    @property
    def threshold(self) -> Optional[int]:
        """The live occupancy threshold (may move mid-kernel under an
        adaptive overlap policy)."""
        return self._site.threshold

    def calibrate(self, memory_intensity: float) -> None:
        """Producer-kernel stage boundary: hand the observed memory
        intensity to the overlap policy, which retargets the threshold.

        Memory-hungry kernels get a small threshold (communication must
        leave DRAM queues nearly empty); compute-bound kernels allow more
        communication in flight.
        """
        if memory_intensity < 0:
            raise ValueError("memory intensity cannot be negative")
        self.calibrations.append(memory_intensity)
        self.overlap.on_calibration(self._site, memory_intensity)

    def choose(self, state: ArbiterState) -> Optional[Stream]:
        if state.compute_waiting > 0:
            # Starvation guard: a comm request that has waited too long
            # jumps ahead of compute once.
            if (
                state.comm_waiting > 0
                and state.now - self._last_comm_issue
                > self.config.starvation_limit_ns
            ):
                return Stream.COMM
            return Stream.COMPUTE
        if state.comm_waiting > 0 \
                and self.overlap.comm_admission(self._site, state):
            return Stream.COMM
        return None

    def on_issue(self, stream: Stream, now: float) -> None:
        if stream is Stream.COMM:
            self._last_comm_issue = now


def make_policy(name: str, mca_config: Optional[MCAConfig] = None,
                overlap=None, gpu_id: int = 0,
                channel_id: int = 0) -> ArbitrationPolicy:
    """Factory used by the memory controller ("one policy per channel").

    ``overlap`` / ``gpu_id`` / ``channel_id`` identify the MCA policy's
    decision site in the environment's overlap-policy layer; without
    them an unbound static policy serves the channel.
    """
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "compute-priority":
        return ComputePriorityPolicy()
    if name == "mca":
        if mca_config is None:
            raise ValueError("MCA policy needs an MCAConfig")
        return MCAPolicy(mca_config, overlap=overlap, gpu_id=gpu_id,
                         channel_id=channel_id)
    raise ValueError(f"unknown arbitration policy {name!r}")
