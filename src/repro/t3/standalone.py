"""Standalone NMC reduce-scatter: T3's substrate without a fused producer.

Section 7.2 notes that in data-parallel / pipeline-parallel setups the
collective can already be overlapped with *independent* kernels — there
T3's overlapping adds nothing, but its NMC reductions and MCA arbitration
still cut the interference between the collective and the concurrent
compute (the problem ACE attacks with a dedicated accelerator).

:class:`NMCReduceScatter` runs a ring-RS entirely on DMA engines and
near-memory op-and-store — zero CU involvement:

* every rank's array is already resident (e.g. gradients after backprop);
* the first chunk's DMA fires immediately;
* each subsequent chunk's DMA is Tracker-triggered by the arrival of the
  incoming partial (one whole-chunk NMC contribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.collectives.plan import RouteKind, ring_reduce_scatter_plan
from repro.gpu.dma import DMACommand
from repro.interconnect.topology import RingTopology
from repro.memory.request import AccessKind
from repro.sim.engine import BaseEvent
from repro.t3.tracker import Tracker
from repro.t3.trigger import DMABlock, TriggerController


@dataclass
class NMCRSResult:
    start: float = 0.0
    end: float = 0.0
    per_rank_terminal: Dict[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NMCReduceScatter:
    """DMA + NMC ring reduce-scatter (no compute units)."""

    def __init__(self, topology: RingTopology, nbytes_total: int,
                 label: str = "rs"):
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.nbytes_total = nbytes_total
        self.label = label
        n = self.system.n_gpus
        self.plan = ring_reduce_scatter_plan(n)
        self.chunks = self.plan.chunk_sizes(nbytes_total)
        self._quantum = self.system.fidelity.quantum_bytes
        self.trackers: List[Tracker] = []
        self.controllers: List[TriggerController] = []
        self.terminal_events: List[BaseEvent] = []
        self._first_commands: List[str] = []
        self.result = NMCRSResult()
        for rank in range(n):
            self._setup_rank(rank)

    def _slices(self, chunk_id: int):
        """Quantum-sized DMA slices, all attributed to the chunk region."""
        size = self.chunks[chunk_id]
        full, rem = divmod(size, self._quantum)
        slices = [(chunk_id, self._quantum)] * full
        if rem:
            slices.append((chunk_id, rem))
        return tuple(slices)

    def _setup_rank(self, rank: int) -> None:
        gpu = self.topo.gpus[rank]
        tracker = Tracker(self.system.tracker, granularity="wg",
                          env=self.env, gpu_id=rank)
        gpu.mc.add_tracker_observer(tracker.observe)
        controller = TriggerController(self.env, tracker, gpu.dma)

        # Forwarded chunks in plan production order; own chunk terminates.
        routes = self.plan.routes(rank)
        for position, chunk_id in enumerate(self.plan.production_order(rank)):
            route = routes[chunk_id]
            if route.kind is RouteKind.LOCAL_TERMINAL:
                continue
            command_id = f"nmc-rs.chunk{chunk_id}"
            gpu.dma.program(DMACommand(
                command_id=command_id,
                dst_gpu_id=self.topo.gpus[route.dst_gpu].gpu_id,
                chunk_id=chunk_id,
                wg_slices=self._slices(chunk_id),
                op=AccessKind.UPDATE,
                label=self.label,
                read_source=True,
                stage=route.stage,
            ))
            if position == 0:
                # Fresh local data: fires at start, no tracking needed.
                self._first_commands.append(command_id)
                continue
            # Later chunks wait for one incoming whole-chunk contribution.
            tracker.program_region(chunk_id, -1,
                                   expected_bytes=self.chunks[chunk_id])
            controller.program_block(DMABlock(
                block_id=f"r{rank}.chunk{chunk_id}",
                regions={(chunk_id, -1)},
                dma_command_id=command_id,
            ))

        # The own chunk completes on its incoming contribution.
        tracker.program_region(rank, -1, expected_bytes=self.chunks[rank])
        terminal = controller.program_block(DMABlock(
            block_id=f"r{rank}.own", regions={(rank, -1)}))
        terminal.add_callback(
            lambda ev, r=rank: self.result.per_rank_terminal.__setitem__(
                r, ev.value))
        self.terminal_events.append(terminal)
        self.trackers.append(tracker)
        self.controllers.append(controller)

    def launch(self) -> List[BaseEvent]:
        """Fire the first-chunk DMAs; returns the terminal events."""
        self.result.start = self.env.now
        for rank, command_id in enumerate(self._first_commands):
            self.topo.gpus[rank].dma.trigger(command_id)
        return self.terminal_events

    def run(self) -> NMCRSResult:
        terminals = self.launch()
        done = self.env.all_of(terminals)
        self.env.run()
        if not done.fired:
            raise RuntimeError("NMC reduce-scatter deadlocked")
        self.result.end = self.env.now
        return self.result
