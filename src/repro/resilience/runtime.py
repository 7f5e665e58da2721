"""The resilience runtime: detect, repair, degrade gracefully.

One :class:`ResilienceRuntime` is attached to an
:class:`~repro.sim.engine.Environment` as ``env.resilience`` (``None`` by
default, like ``env.trace`` / ``env.faults``).  Components report into it
at their natural seams and it closes the loop:

* **passive monitoring** — every link transfer feeds the
  :class:`~repro.resilience.detect.LinkHealthMonitor` (observed service
  vs the link's *nominal* pre-degradation model) and every Tracker
  region completion feeds the
  :class:`~repro.resilience.detect.StragglerDetector`.  Monitoring
  schedules no events and never perturbs the simulation.
* **deadline recovery** — each triggered DMA command registers a watch.
  Watches stay dormant until the first fault actually manifests (the
  :class:`~repro.faults.injector.FaultInjector` reports realized events
  via :meth:`on_fault_observed`); only then are deadline timers armed.
  A deadline that finds the transfer *finished* but its completion
  notification undelivered re-issues the notification after the modelled
  ack round-trip, recording time-to-detect / time-to-recover.  A
  transfer still in flight gets its deadline extended with exponential
  backoff, a bounded number of times.
* **eviction recovery** — a Tracker entry force-evicted under table
  pressure is re-programmed with its *remaining* bytes (the hardware
  analogue: the victim's counter is spilled and restored), bounded per
  region, instead of hanging its downstream trigger forever.
* **drain backstop** — when the schedule drains with waiters still
  pending (:meth:`recover_drain`), any undelivered-but-finished
  completions are re-issued so the run can resume instead of dying.

The dormant-until-fault arming is what keeps fault-free runs
**byte-identical** with the runtime attached or absent — the
transparency table in ``tests/test_engine_regressions.py`` pins exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.resilience.detect import (
    Diagnosis,
    LinkHealthMonitor,
    StragglerDetector,
)
from repro.resilience.policy import (
    CollectiveStateMachine,
    ResiliencePolicy,
    RunState,
)

#: the obs scope all resilience telemetry lands in (system-wide, so the
#: gpu slot is the -1 sentinel the registry uses for "not a GPU").
RESILIENCE_SCOPE = (-1, "resilience")


@dataclass
class _DmaWatch:
    """One watched DMA command: dormant until armed, then deadlined."""

    dma: object                  # the owning DMAEngine
    command: object              # the DMACommand
    triggered_at: float
    expected_ns: float
    armed: bool = False
    extensions: int = 0
    settled: bool = False        # recovered / given up / seen complete


@dataclass
class RecoveryRecord:
    """One successful recovery action, for post-run reporting."""

    kind: str                    # "dma-reissue" | "tracker-restore" | "drain-reissue"
    gpu_id: int
    detail: str
    time_to_detect_ns: float
    time_to_recover_ns: float


class ResilienceRuntime:
    """Online fault detection + in-run recovery for one simulation."""

    def __init__(self, policy: Optional[ResiliencePolicy] = None):
        self.policy = policy or ResiliencePolicy()
        self.env = None
        self.link_monitor = LinkHealthMonitor(self.policy)
        self.straggler_detector = StragglerDetector(self.policy)
        self.machine = CollectiveStateMachine()
        self._armed = False
        self._watches: Dict[Tuple[int, str], _DmaWatch] = {}
        #: re-issue budget spent per (gpu, command_id).
        self._reissues: Dict[Tuple[int, str], int] = {}
        #: restore budget spent per (gpu, region key).
        self._restores: Dict[Tuple[int, Tuple], int] = {}
        self.recoveries: List[RecoveryRecord] = []
        self.detections = 0
        self.deadline_checks = 0
        self.deadline_extensions = 0
        self.watches_exhausted = 0
        self.restores_denied = 0

    # -- wiring ----------------------------------------------------------------

    def attach(self, env) -> "ResilienceRuntime":
        """Bind to ``env`` (sets ``env.resilience``) and subscribe to the
        fault injector's realized-event feed when one is attached."""
        self.env = env
        env.resilience = self
        self.machine = CollectiveStateMachine(
            obs=env.obs, now=lambda: env.now)
        if env.faults is not None:
            env.faults.bind_resilience(self)
        return self

    @property
    def armed(self) -> bool:
        """True once a fault has manifested and deadline timers run."""
        return self._armed

    def _scope(self):
        if self.env is None or self.env.obs is None:
            return None
        return self.env.obs.scope(*RESILIENCE_SCOPE)

    def _mark(self, name: str, gpu_id: int,
              args: Optional[dict] = None) -> None:
        """Drop an instant marker on ``env.trace`` (category
        ``"resilience"``) so detections and repairs land on the same
        timeline as the faults that caused them — the join the trace
        layer's incident overlay performs.  Passive: no trace, no-op."""
        env = self.env
        if env is None or env.trace is None:
            return
        track = f"gpu{gpu_id}" if gpu_id >= 0 else "system"
        env.trace.instant(name=name, category="resilience",
                          at_ns=env.now, track=track,
                          group="incidents", args=args)

    # -- fault-observed feed (from the injector) --------------------------------

    def on_fault_observed(self, kind: str, gpu_id: int) -> None:
        """A fault actually manifested; arm the recovery machinery.

        Called by the :class:`~repro.faults.injector.FaultInjector` every
        time it realizes a fault event.  The first call flips the runtime
        from passive monitoring to active deadline enforcement.
        """
        self.detections += 1
        self._mark(f"detected.{kind}", gpu_id)
        scope = self._scope()
        if scope is not None:
            scope.count("detections")
            scope.count(f"detected_{kind}")
        if self.machine.state in (RunState.HEALTHY, RunState.RECOVERED):
            self.machine.to(RunState.DEGRADED)
        if not self._armed:
            self._armed = True
            if scope is not None:
                scope.count("armed")
            for watch in list(self._watches.values()):
                if not watch.armed and not watch.settled:
                    self._arm(watch)

    # -- DMA deadline watches ----------------------------------------------------

    def expected_dma_ns(self, dma, command) -> float:
        """Model-derived service estimate for one DMA command, from the
        link's *nominal* (pre-degradation) parameters."""
        pipe = dma.gpu.link_to(command.dst_gpu_id)
        return (pipe.nominal_latency_ns
                + command.nbytes / pipe.nominal_bandwidth)

    def watch_dma(self, dma, command) -> None:
        """Register a deadline watch for a just-triggered command.

        Registration is passive; the deadline timer is only scheduled
        once the runtime is armed (a fault has manifested)."""
        key = (dma.gpu.gpu_id, command.command_id)
        watch = _DmaWatch(
            dma=dma, command=command, triggered_at=self.env.now,
            expected_ns=self.expected_dma_ns(dma, command))
        self._watches[key] = watch
        if self._armed:
            self._arm(watch)

    def _deadline_ns(self, watch: _DmaWatch) -> float:
        base = max(self.policy.deadline_floor_ns,
                   self.policy.deadline_slack * watch.expected_ns)
        return base * (self.policy.backoff ** watch.extensions)

    def _arm(self, watch: _DmaWatch) -> None:
        watch.armed = True
        self.env.call_later(self._deadline_ns(watch),
                            lambda _ev, w=watch: self._on_deadline(w))

    def _on_deadline(self, watch: _DmaWatch) -> None:
        if watch.settled:
            return
        self.deadline_checks += 1
        dma, command = watch.dma, watch.command
        event = dma.completion(command.command_id)
        if event.triggered:
            watch.settled = True           # completed on its own
            return
        if dma.transfer_finished(command.command_id):
            # The transfer landed but its notification never arrived:
            # a lost completion.  Re-issue it (bounded per command).
            watch.settled = True
            self._reissue(dma, command, kind="dma-reissue")
            return
        # Still in flight: extend the deadline with backoff, boundedly.
        if watch.extensions < self.policy.max_deadline_extensions:
            watch.extensions += 1
            self.deadline_extensions += 1
            scope = self._scope()
            if scope is not None:
                scope.count("deadline_extensions")
            self._arm(watch)
        else:
            watch.settled = True
            self.watches_exhausted += 1
            scope = self._scope()
            if scope is not None:
                scope.count("watches_exhausted")

    def _reissue_budget_left(self, gpu_id: int, command_id: str) -> bool:
        spent = self._reissues.get((gpu_id, command_id), 0)
        return spent < self.policy.max_reissues_per_command

    def _reissue(self, dma, command, kind: str) -> bool:
        """Re-deliver a finished command's lost completion notification."""
        gpu_id = dma.gpu.gpu_id
        key = (gpu_id, command.command_id)
        if not self._reissue_budget_left(gpu_id, command.command_id):
            scope = self._scope()
            if scope is not None:
                scope.count("reissues_denied")
            return False
        finished_at = dma.transfer_finished_at(command.command_id)
        now = self.env.now
        detect_ns = max(0.0, now - (finished_at if finished_at is not None
                                    else now))
        recover_ns = detect_ns + self.policy.reissue_latency_ns
        if not dma.redeliver(command.command_id,
                             delay=self.policy.reissue_latency_ns):
            return False
        self._reissues[key] = self._reissues.get(key, 0) + 1
        self.recoveries.append(RecoveryRecord(
            kind=kind, gpu_id=gpu_id,
            detail=f"re-issued completion for {command.command_id}",
            time_to_detect_ns=detect_ns, time_to_recover_ns=recover_ns))
        self._mark(kind, gpu_id,
                   args={"command": command.command_id,
                         "time_to_recover_ns": recover_ns})
        scope = self._scope()
        if scope is not None:
            scope.count("repairs")
            scope.count(kind.replace("-", "_") + "s")
            scope.observe("time_to_detect_ns", detect_ns)
            scope.observe("time_to_recover_ns", recover_ns)
            scope.span("recovery", now - detect_ns,
                       now + self.policy.reissue_latency_ns)
        if self.machine.state is RunState.DEGRADED:
            self.machine.to(RunState.RECOVERED)
        return True

    # -- passive telemetry feeds -------------------------------------------------

    def observe_link_service(self, src: int, dst: int, observed_ns: float,
                             expected_ns: float) -> None:
        """Feed one link transfer's service time (stall + serialization +
        latency, queueing excluded) into the link-health monitor.  Called
        by :class:`~repro.sim.primitives.Pipe` per transfer."""
        self.link_monitor.observe(src, dst, observed_ns=observed_ns,
                                  expected_ns=expected_ns)

    def observe_trigger_latency(self, gpu_id: int, latency_ns: float) -> None:
        """Feed one Tracker region-completion latency into the straggler
        detector."""
        self.straggler_detector.observe(gpu_id, latency_ns)

    def diagnosis(self) -> Diagnosis:
        """Snapshot of what the monitors currently believe is wrong."""
        return Diagnosis(
            degraded_links=self.link_monitor.findings(),
            stragglers=self.straggler_detector.findings())

    # -- Tracker eviction recovery ----------------------------------------------

    def on_tracker_eviction(self, tracker, entry) -> bool:
        """Recover a force-evicted region by restoring it with its
        remaining bytes.  Returns True when the restore happened."""
        key = (tracker.gpu_id, entry.key)
        spent = self._restores.get(key, 0)
        if spent >= self.policy.max_restores_per_region:
            self.restores_denied += 1
            scope = self._scope()
            if scope is not None:
                scope.count("restores_denied")
            return False
        remaining = entry.expected_bytes - entry.received_bytes
        if remaining <= 0:
            return False
        tracker.restore_region(entry.key, remaining)
        self._restores[key] = spent + 1
        now = self.env.now if self.env is not None else 0.0
        self._mark("tracker-restore", tracker.gpu_id,
                   args={"remaining_bytes": remaining})
        self.recoveries.append(RecoveryRecord(
            kind="tracker-restore", gpu_id=tracker.gpu_id,
            detail=(f"restored region {entry.key} with {remaining} "
                    f"remaining bytes"),
            time_to_detect_ns=0.0, time_to_recover_ns=0.0))
        scope = self._scope()
        if scope is not None:
            scope.count("repairs")
            scope.count("tracker_restores")
            scope.observe("time_to_detect_ns", 0.0)
            scope.observe("time_to_recover_ns", 0.0)
            scope.span("recovery", now, now)
        if self.machine.state is RunState.DEGRADED:
            self.machine.to(RunState.RECOVERED)
        return True

    # -- drain backstop -----------------------------------------------------------

    def recover_drain(self, fusion) -> bool:
        """The schedule drained with waiters pending: re-issue every
        undelivered-but-finished completion (bounded), so the caller can
        resume the event loop.  Returns True when anything was re-issued.
        """
        if not self._armed:
            return False
        acted = False
        for gpu in fusion.topo.gpus:
            dma = gpu.dma
            for command_id in list(dma.dropped_completions):
                if dma.completion(command_id).triggered:
                    continue
                command = dma._commands[command_id]
                if self._reissue(dma, command, kind="drain-reissue"):
                    acted = True
        if acted:
            scope = self._scope()
            if scope is not None:
                scope.count("drain_recoveries")
        return acted

    def mark_failed(self) -> None:
        """Recovery is out of road for this run; record the terminal
        state (the caller is about to abandon the collective)."""
        if self.machine.state is RunState.DEGRADED:
            self.machine.to(RunState.FAILED)
        self._mark("run-failed", -1)
        scope = self._scope()
        if scope is not None:
            scope.count("run_failures")

    # -- reporting ----------------------------------------------------------------

    @property
    def dma_reissues(self) -> int:
        return sum(1 for r in self.recoveries
                   if r.kind in ("dma-reissue", "drain-reissue"))

    @property
    def tracker_restores(self) -> int:
        return sum(1 for r in self.recoveries if r.kind == "tracker-restore")

    def mean_time_to_recover_ns(self) -> Optional[float]:
        if not self.recoveries:
            return None
        return (sum(r.time_to_recover_ns for r in self.recoveries)
                / len(self.recoveries))

    def summary(self) -> str:
        parts = [f"state={self.machine.state.value}",
                 f"detections={self.detections}",
                 f"reissues={self.dma_reissues}",
                 f"restores={self.tracker_restores}"]
        mttr = self.mean_time_to_recover_ns()
        if mttr is not None:
            parts.append(f"mttr={mttr:.0f}ns")
        return " ".join(parts)
