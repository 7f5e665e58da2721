"""DMA engine with pre-programmed command table (Section 4.2.2).

The GPU driver programs :class:`DMACommand` entries ahead of time (during
the address-space configuration of Figure 12); at runtime the T3 Tracker
marks an entry *ready* and the engine executes it without any CU
involvement:

1. read the source region from local DRAM on the **communication** stream
   (skipped for pure forwarding collectives such as all-gather reusing a
   just-received buffer),
2. serialize it onto the inter-GPU link,
3. issue the arriving bytes at the destination GPU as writes or NMC
   updates, tagged with the (wg, wf) metadata the destination's Tracker
   needs.

Transfers are pipelined at workgroup-tile granularity so link serialization
overlaps the local reads and remote writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent, SimulationError
from repro.sim.machines import CallbackMachine, CompletionGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.gpu import GPU


@dataclass
class DMACommand:
    """One pre-programmed transfer: a chunk (or chunk slice) to a peer."""

    command_id: str
    dst_gpu_id: int
    chunk_id: int
    #: (wg_id, nbytes) slices; wg ids let the destination Tracker attribute
    #: the arriving updates (Section 4.2.2).
    wg_slices: Tuple[Tuple[int, int], ...]
    #: how arriving bytes apply at the destination: WRITE (store) or
    #: UPDATE (NMC op-and-store) — the "DMA functionality" of dma_map.
    op: AccessKind = AccessKind.UPDATE
    label: str = "rs"
    #: whether the engine must read the source data from local DRAM first.
    read_source: bool = True
    #: plan stage this transfer belongs to ("intra"/"inter"/"ring"); when
    #: set, the engine records a ``stage.<name>`` span for the profiler's
    #: per-plan-stage attribution.
    stage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in (AccessKind.WRITE, AccessKind.UPDATE):
            raise ValueError("DMA op must be WRITE or UPDATE")
        if not self.wg_slices:
            raise ValueError("DMA command must move at least one slice")
        if any(nbytes <= 0 for _wg, nbytes in self.wg_slices):
            raise ValueError("DMA slices must have positive size")

    @property
    def nbytes(self) -> int:
        return sum(nbytes for _wg, nbytes in self.wg_slices)


class _SliceMachine(CallbackMachine):
    """One wg-slice transfer: local reads → link → remote writes/updates.

    Stage map (each boundary armed where the generator's event sat):
    0 = boot, 1 = reads landed (skipped straight through for pure
    forwarding), 2 = remote writes landed, 3 = completion (reports to
    the command's group).
    """

    __slots__ = ("engine", "command", "wg_id", "nbytes", "group",
                 "_stage", "_pending")

    def __init__(self, engine: "DMAEngine", command: DMACommand,
                 wg_id: int, nbytes: int, group: CompletionGroup):
        super().__init__(engine.env)
        self.engine = engine
        self.command = command
        self.wg_id = wg_id
        self.nbytes = nbytes
        self.group = group
        self._stage = 0
        self._pending = 0

    def _advance(self, _event: Optional[BaseEvent] = None) -> None:
        stage = self._stage
        engine = self.engine
        if stage == 0:
            self._stage = 1
            command = self.command
            if command.read_source:
                reads = engine.gpu.mc.submit_bulk(
                    AccessKind.READ, Stream.COMM, self.nbytes,
                    command.label, chunk_id=command.chunk_id)
                self._pending = len(reads)
                cb = self._read_done
                for ev in reads:
                    ev.add_callback(cb)
                return
            # Pure forwarding (e.g. all-gather reusing a just-received
            # buffer): straight onto the wire in the boot slot, exactly
            # as the generator did.
            stage = 1
        if stage == 1:
            engine.gpu.link_to(self.command.dst_gpu_id).transfer(
                self.nbytes).add_callback(self._arrived)
            return
        if stage == 2:
            engine.bytes_moved += self.nbytes
            self._stage = 3
            self._arm()
            return
        self.group.done_one()

    def _read_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._arm()

    def _arrived(self, _event: BaseEvent) -> None:
        command = self.command
        remote = self.engine.gpu.peer(command.dst_gpu_id)
        writes = remote.mc.submit_bulk(
            command.op, Stream.COMM, self.nbytes, command.label,
            wg_id=self.wg_id, chunk_id=command.chunk_id)
        self._pending = len(writes)
        cb = self._write_done
        for ev in writes:
            ev.add_callback(cb)

    def _write_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._stage = 2
            self._arm()


class _CommandMachine(CallbackMachine):
    """One triggered DMA command: launch slices (optionally paced), wait
    for all of them, then run the completion/notification block.

    Stage map: 0 = boot, 1 = launch the next slice after a pacing gap,
    2 = all slices finished, 3 = final no-op slot (the former command
    process's completion event, kept for event-count parity).
    """

    __slots__ = ("engine", "command", "start_ns", "_stage", "_index",
                 "_gap", "_group")

    def __init__(self, engine: "DMAEngine", command: DMACommand):
        super().__init__(engine.env)
        self.engine = engine
        self.command = command
        self.start_ns = 0.0
        self._stage = 0
        self._index = 0
        self._gap = 0.0
        self._group: Optional[CompletionGroup] = None

    def _advance(self, _event: Optional[BaseEvent] = None) -> None:
        stage = self._stage
        engine = self.engine
        env = self.env
        command = self.command
        if stage == 0:
            self.start_ns = env._now
            # Command pacing is an overlap-policy decision: a positive
            # gap staggers slice launches to soften the DRAM/link burst;
            # gap 0 (the paper's behavior, and every run without a
            # policy) takes the launch-all-at-once path unchanged.
            gap = 0.0
            overlap = env.overlap
            if overlap is not None:
                gap = overlap.dma_pacing_gap(engine.gpu.gpu_id, command)
            slices = command.wg_slices
            group = self._group = CompletionGroup(env, len(slices))
            if gap > 0.0:
                self._gap = gap
                _SliceMachine(engine, command, *slices[0], group).start()
                self._index = 1
                if len(slices) > 1:
                    self._stage = 1
                    self._arm(gap)
                    return
            else:
                for wg_id, nbytes in slices:
                    _SliceMachine(engine, command, wg_id, nbytes,
                                  group).start()
            self._stage = 2
            group.add_callback(self._advance)
            return
        if stage == 1:
            slices = command.wg_slices
            _SliceMachine(engine, command, *slices[self._index],
                          self._group).start()
            self._index += 1
            if self._index < len(slices):
                self._arm(self._gap)
                return
            self._stage = 2
            self._group.add_callback(self._advance)
            return
        if stage == 2:
            now = env._now
            start = self.start_ns
            engine._finished_at[command.command_id] = now
            engine.inflight_commands -= 1
            engine.inflight_bytes -= command.nbytes
            if env.obs is not None:
                scope = env.obs.scope(engine.gpu.gpu_id, "dma")
                scope.count("completions")
                scope.observe("transfer_ns", now - start)
                scope.span("transfer", start, now)
                if command.stage is not None:
                    scope.span(f"stage.{command.stage}", start, now)
                scope.gauge("inflight_commands").set(
                    now, engine.inflight_commands)
                scope.gauge("inflight_bytes").set(
                    now, engine.inflight_bytes)
            if env.trace is not None:
                args = {"bytes": command.nbytes, "chunk": command.chunk_id,
                        "dst": command.dst_gpu_id}
                if command.stage is not None:
                    args["stage"] = command.stage
                env.trace.span(
                    name=f"{command.command_id}->gpu{command.dst_gpu_id}",
                    category="dma", start_ns=start, end_ns=now,
                    track=f"GPU{engine.gpu.gpu_id}.dma", group="compute",
                    args=args)
            engine._deliver_completion(command)
            self._stage = 3
            self._arm()
            return
        # Final slot: the former command process's own completion event.


class DMAEngine:
    """Executes pre-programmed DMA commands for one GPU."""

    def __init__(self, gpu: "GPU"):
        self.gpu = gpu
        self.env = gpu.env
        self._commands: Dict[str, DMACommand] = {}
        self._completions: Dict[str, BaseEvent] = {}
        self._triggered: set[str] = set()
        self.bytes_moved = 0.0
        #: completion notifications suppressed by an injected drop fault.
        self.dropped_completions: List[str] = []
        #: completion notifications re-issued by the resilience runtime.
        self.reissued_completions: List[str] = []
        #: duplicated completion notifications delivered and absorbed.
        self.duplicates_absorbed = 0
        #: sim time each command's remote writes finished (set whether or
        #: not the completion notification was delivered) — the signal
        #: that separates a *lost notification* from an in-flight
        #: transfer at a resilience deadline check.
        self._finished_at: Dict[str, float] = {}
        #: live transfers (triggered, remote writes not yet all serviced).
        self.inflight_commands = 0
        self.inflight_bytes = 0

    # -- programming (done at configuration time, Figure 12) -------------------

    def program(self, command: DMACommand) -> None:
        if command.command_id in self._commands:
            raise SimulationError(
                f"DMA command {command.command_id!r} already programmed")
        if command.dst_gpu_id == self.gpu.gpu_id:
            raise SimulationError("DMA destination cannot be the local GPU")
        self._commands[command.command_id] = command
        self._completions[command.command_id] = BaseEvent(self.env)

    def is_programmed(self, command_id: str) -> bool:
        return command_id in self._commands

    def completion(self, command_id: str) -> BaseEvent:
        """Event firing when the command's remote writes are all serviced."""
        if command_id not in self._completions:
            raise SimulationError(f"unknown DMA command {command_id!r}")
        return self._completions[command_id]

    # -- triggering (done by the Tracker at runtime) ---------------------------

    def trigger(self, command_id: str) -> BaseEvent:
        """Mark a command ready and start the transfer."""
        if command_id not in self._commands:
            raise SimulationError(
                f"DMA trigger for unprogrammed command {command_id!r}")
        if command_id in self._triggered:
            raise SimulationError(
                f"DMA command {command_id!r} triggered twice — the Tracker "
                "must fire exactly once per region"
            )
        self._triggered.add(command_id)
        if self.env.invariants is not None:
            self.env.invariants.on_trigger_fired(
                f"DMA command {command_id} on GPU {self.gpu.gpu_id}")
        command = self._commands[command_id]
        self.inflight_commands += 1
        self.inflight_bytes += command.nbytes
        if self.env.obs is not None:
            scope = self.env.obs.scope(self.gpu.gpu_id, "dma")
            scope.count("triggers")
            scope.count("bytes_triggered", command.nbytes)
            scope.gauge("inflight_commands").set(
                self.env.now, self.inflight_commands)
            scope.gauge("inflight_bytes").set(
                self.env.now, self.inflight_bytes)
        _CommandMachine(self, command).start()
        if self.env.resilience is not None:
            self.env.resilience.watch_dma(self, command)
        return self._completions[command_id]

    # -- execution ----------------------------------------------------------------
    #
    # One _CommandMachine per trigger and one _SliceMachine per wg slice:
    # the callback replacements for the former _run / _slice_proc
    # generator processes, armed at the same slots those processes'
    # events occupied (see repro.sim.machines for the parity contract).

    def _deliver_completion(self, command: DMACommand) -> None:
        """Notify completion waiters — the injection seam for misdelivered
        DMA-completion notifications (drop / delay / duplicate)."""
        event = self._completions[command.command_id]
        faults = self.env.faults
        fault = None
        if faults is not None and faults.has_dma_faults:
            fault = faults.dma_completion_fault(
                self.gpu.gpu_id, command.command_id)
        if fault is None:
            event.succeed()
            return
        if fault.action == "drop":
            # Never delivered: waiters hang, the schedule eventually drains
            # and the watchdog / quiescence checks convert the hang into a
            # diagnosable SimulationError.
            self.dropped_completions.append(command.command_id)
            return
        if fault.action == "delay":
            event.succeed(delay=fault.delay_ns)
            return
        # "duplicate": the first notification fires the event; the second
        # must be absorbed — re-firing would be a single-fire violation
        # (BaseEvent.succeed would raise on the double trigger).
        event.succeed()
        self.duplicates_absorbed += 1
        if self.env.invariants is not None:
            self.env.invariants.on_duplicate_absorbed(
                self.gpu.gpu_id, command.command_id)

    # -- recovery (driven by the resilience runtime) ----------------------------

    def transfer_finished(self, command_id: str) -> bool:
        """True once the command's remote writes have all been serviced,
        whether or not the completion notification was delivered."""
        return command_id in self._finished_at

    def transfer_finished_at(self, command_id: str) -> Optional[float]:
        """Sim time the command's transfer finished, or None if in flight."""
        return self._finished_at.get(command_id)

    def redeliver(self, command_id: str, delay: float = 0.0) -> bool:
        """Re-issue a lost completion notification for a finished command.

        The resilience runtime calls this when a deadline (or drain
        backstop) finds a finished transfer whose completion never fired.
        Returns False when there is nothing to re-deliver: the event has
        already fired, or the transfer has not actually finished.
        """
        if command_id not in self._completions:
            raise SimulationError(f"unknown DMA command {command_id!r}")
        event = self._completions[command_id]
        if event.triggered or command_id not in self._finished_at:
            return False
        event.succeed(delay=delay)
        self.reissued_completions.append(command_id)
        if self.env.obs is not None:
            self.env.obs.scope(self.gpu.gpu_id, "dma").count("reissues")
        return True

    # -- introspection -------------------------------------------------------------

    @property
    def programmed_commands(self) -> List[str]:
        return sorted(self._commands)

    @property
    def triggered_commands(self) -> List[str]:
        return sorted(self._triggered)
