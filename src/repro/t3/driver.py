"""The T3 driver step (Section 4.4, Figure 12) and the run loop every T3
collective shares.

A driver describes each chunk of a rank as a :class:`ChunkProgram`: the
Tracker regions that must fill, with their expected bytes, and the DMA
command their completion fires, or none (a *terminal* block: the rank's
own reduced chunk, or a consumer's scheduling gate).
:meth:`T3Driver._program` builds the rank's
:class:`~repro.t3.tracker.Tracker`, :class:`~repro.t3.trigger.TriggerController`
and reduction ledger from that alone.  :meth:`T3Driver.run` runs the
schedule until it drains and decides "done" the same way for every
driver: every launched process, terminal event and DMA completion has
fired, or the run raises a diagnosable :class:`SimulationError`.

The drivers differ only in what produces the data:

* :class:`~repro.t3.fusion.FusedGEMMRS` — GEMM stores (Figure 7);
* :class:`~repro.t3.standalone.NMCReduceScatter` — an already-resident
  array, moved by DMA alone (Section 7.2);
* :class:`~repro.t3.consumer.FusedAGConsumerGEMM` — all-gather arrivals
  that open the consumer GEMM's stages (Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.gpu.dma import DMACommand, DMAEngine
from repro.gpu.gemm import GEMMKernel, GEMMResult
from repro.interconnect.topology import Topology
from repro.memory.nmc import ReductionBuffer, ReductionError
from repro.memory.request import AccessKind, MemRequest
from repro.sim.engine import BaseEvent, SimulationError
from repro.t3.tracker import Tracker
from repro.t3.trigger import DMABlock, TriggerController


class ChunkProgram(NamedTuple):
    """What one chunk of one rank is programmed with."""

    chunk_id: int
    #: Tracker region ids (keys ``(region, -1)``): the chunk's WG ids, or
    #: the chunk id for one whole-chunk region.  Empty: the chunk is not
    #: tracked and its DMA fires at launch.
    regions: Sequence[int]
    #: bytes one whole-chunk contribution writes into each region.
    region_bytes: int
    #: whole-chunk contributions the chunk must receive.
    contributions: int = 1
    #: the DMA fired once every region is complete; None = terminal block.
    dma: Optional[DMACommand] = None


@dataclass
class T3Result:
    """Outcome of one T3 collective across all ranks."""

    start: float = 0.0
    end: float = 0.0
    gemm_results: List[GEMMResult] = field(default_factory=list)
    #: per rank: when its terminal block (its own result chunk) fired.
    per_rank_terminal: Dict[int, float] = field(default_factory=dict)
    #: consumer fusion, per rank: when each foreign chunk's gate fired.
    gate_times: Dict[int, Dict[int, float]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Launch to the last awaited event: for a fused GEMM-RS, the
        GEMM+RS critical path."""
        return self.end - self.start

    @property
    def gemm_duration(self) -> float:
        return max(r.duration for r in self.gemm_results)


class T3Driver:
    """Programming pass and run loop shared by the T3 drivers."""

    #: first words of the deadlock error.
    name = "T3 collective"
    #: traffic labels whose writes the reduction ledger counts; writes
    #: under any other label (an independent GEMM, the consumer's own
    #: output) may carry the same chunk ids and are not contributions.
    ledger_labels: Tuple[str, ...] = ()

    def __init__(self, topology: Topology):
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.trackers: List[Tracker] = []
        self.controllers: List[TriggerController] = []
        self.ledgers: List[ReductionBuffer] = []
        self.terminal_events: List[BaseEvent] = []
        self.dma_completions: List[BaseEvent] = []
        #: the kernels ``_launch`` starts, one per rank (if any).
        self.kernels: List[GEMMKernel] = []
        #: DMAs of untracked chunks, fired at launch.
        self._launch_dmas: List[Tuple[DMAEngine, str]] = []
        self.result = T3Result()

    # -- the driver step (Figure 12) ----------------------------------------

    def _program(self, rank: int,
                 chunks: Sequence[ChunkProgram]) -> Dict[int, BaseEvent]:
        """Program one rank's Tracker regions, DMA commands and trigger
        blocks, in chunk order; returns each terminal chunk's event."""
        gpu = self.topo.gpus[rank]
        tracker = Tracker(self.system.tracker, env=self.env, gpu_id=rank)
        gpu.mc.add_tracker_observer(tracker.observe)
        controller = TriggerController(self.env, tracker, gpu.dma)
        tracked = [chunk for chunk in chunks if chunk.regions]
        ledger = ReductionBuffer(
            {c.chunk_id: len(c.regions) * c.region_bytes for c in tracked},
            expected_contributions={c.chunk_id: c.contributions
                                    for c in tracked},
        )
        gpu.mc.add_tracker_observer(self._ledger_observer(
            ledger, {chunk.chunk_id for chunk in tracked}))

        terminals: Dict[int, BaseEvent] = {}
        for chunk in chunks:
            expected = chunk.contributions * chunk.region_bytes
            for region in chunk.regions:
                tracker.program_region(region, -1, expected_bytes=expected)
            command_id = None
            if chunk.dma is not None:
                command_id = chunk.dma.command_id
                gpu.dma.program(chunk.dma)
                self.dma_completions.append(gpu.dma.completion(command_id))
            if not chunk.regions:
                if command_id is not None:
                    self._launch_dmas.append((gpu.dma, command_id))
                continue
            terminal = controller.program_block(DMABlock(
                block_id=f"r{rank}.chunk{chunk.chunk_id}",
                regions={(region, -1) for region in chunk.regions},
                dma_command_id=command_id,
            ))
            if terminal is not None:
                self.terminal_events.append(terminal)
                self._on_terminal(rank, chunk.chunk_id, terminal)
                terminals[chunk.chunk_id] = terminal
        self.trackers.append(tracker)
        self.controllers.append(controller)
        self.ledgers.append(ledger)
        return terminals

    def _on_terminal(self, rank: int, chunk_id: int,
                     event: BaseEvent) -> None:
        """Record when a terminal block fires (per rank by default)."""
        event.add_callback(
            lambda ev, r=rank: self.result.per_rank_terminal.__setitem__(
                r, ev.value))

    def _ledger_observer(self, ledger: ReductionBuffer, tracked: set):
        valid_labels = self.ledger_labels

        def observe(request: MemRequest) -> None:
            if request.kind is AccessKind.READ:
                return
            if request.label not in valid_labels:
                return
            if request.chunk_id in tracked:
                ledger.contribute(request.chunk_id, request.nbytes,
                                  source=request.label)

        return observe

    # -- the run loop ---------------------------------------------------------

    def _launch(self) -> List[BaseEvent]:
        """Start what produces the data; returns the processes to await."""
        return [gpu.launch(kernel)
                for gpu, kernel in zip(self.topo.gpus, self.kernels)]

    def run(self) -> T3Result:
        """Launch, fire the untracked chunks' DMAs and run until every
        launched process, terminal event and DMA completion has fired;
        then check invariants and the reduction ledgers."""
        env = self.env
        self.result.start = env.now
        procs = self._launch()
        for dma, command_id in self._launch_dmas:
            dma.trigger(command_id)
        everything = env.all_of(
            procs + self.terminal_events + self.dma_completions)
        # Armed resilience deadline timers may outlive the collective and
        # advance env.now past its real finish; capture the end at the
        # composite's fire instant so recovered runs report honest times.
        finished_at: List[float] = []
        everything.add_callback(lambda _ev: finished_at.append(env.now))
        env.run()
        runtime = env.resilience
        while not everything.fired and runtime is not None \
                and runtime.recover_drain(self):
            # The drain backstop re-issued lost completions; resume the
            # event loop and let the collective finish.
            env.run()
        if not everything.fired:
            if runtime is not None:
                runtime.mark_failed()
            # The schedule drained with waiters outstanding (e.g. a dropped
            # DMA completion, or tracker entries evicted under pressure):
            # a hang, surfaced as a diagnosable error instead of silence.
            pending = [
                (rank, tracker.pending_regions()[:3], tracker.live_regions)
                for rank, tracker in enumerate(self.trackers)
                if tracker.live_regions
            ]
            evicted = [
                (rank, tracker.evicted[:3], len(tracker.evicted))
                for rank, tracker in enumerate(self.trackers)
                if tracker.evicted
            ]
            dropped = [
                (gpu.gpu_id, list(gpu.dma.dropped_completions))
                for gpu in self.topo.gpus
                if gpu.dma.dropped_completions
            ]
            raise SimulationError(
                f"{self.name} deadlocked; pending tracker regions: "
                f"{pending}; dropped DMA completions: {dropped}\n"
                f"evicted tracker regions: {evicted}\n"
                + env.diagnostic_dump())
        self.result.end = (
            finished_at[0]
            if runtime is not None and runtime.armed and finished_at
            else env.now)
        self.result.gemm_results = [k.result for k in self.kernels]
        if env.invariants is not None:
            env.invariants.check_all()
        for rank, ledger in enumerate(self.ledgers):
            for chunk_id, count, _sealed in ledger.summary():
                expected = ledger.expected[chunk_id]
                if count < expected:
                    raise ReductionError(
                        f"rank {rank} chunk {chunk_id} finished with only "
                        f"{count}/{expected} contributions — reduction "
                        "incomplete")
        return self.result
