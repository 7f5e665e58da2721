"""Standalone NMC reduce-scatter: T3's substrate without a fused producer.

Section 7.2 notes that in data-parallel / pipeline-parallel setups the
collective can already be overlapped with *independent* kernels — there
T3's overlapping adds nothing, but its NMC reductions and MCA arbitration
still cut the interference between the collective and the concurrent
compute (the problem ACE attacks with a dedicated accelerator).

:class:`NMCReduceScatter` runs a ring-RS entirely on DMA engines and
near-memory op-and-store — zero CU involvement:

* every rank's array is already resident (e.g. gradients after backprop);
* the first chunk is untracked and its DMA fires at launch;
* each subsequent chunk's DMA is Tracker-triggered by the arrival of the
  incoming partial (one whole-chunk NMC contribution);
* the own chunk completes on its incoming partial.

Programming, the run loop and the reduction ledger are the shared driver
step of :mod:`repro.t3.driver`.
"""

from __future__ import annotations

from repro.collectives.plan import (ChunkRoute, RouteKind,
                                   ring_reduce_scatter_plan)
from repro.gpu.dma import DMACommand
from repro.interconnect.topology import RingTopology
from repro.memory.request import AccessKind
from repro.t3.driver import ChunkProgram, T3Driver


class NMCReduceScatter(T3Driver):
    """DMA + NMC ring reduce-scatter (no compute units)."""

    name = "NMC reduce-scatter"

    def __init__(self, topology: RingTopology, nbytes_total: int,
                 label: str = "rs"):
        super().__init__(topology)
        self.nbytes_total = nbytes_total
        self.label = label
        self.ledger_labels = (label,)
        n = self.system.n_gpus
        self.plan = ring_reduce_scatter_plan(n)
        self.chunks = self.plan.chunk_sizes(nbytes_total)
        self._quantum = self.system.fidelity.quantum_bytes
        for rank in range(n):
            routes = self.plan.routes(rank)
            self._program(rank, [
                self._chunk(cid, routes[cid])
                for cid in self.plan.production_order(rank)
            ])

    def _chunk(self, chunk_id: int, route: ChunkRoute) -> ChunkProgram:
        """A whole-chunk region expecting the incoming partial; the DMA
        forwards the reduced chunk downstream in quantum-sized slices.
        The first chunk holds fresh local data: untracked, it fires at
        launch."""
        dma = None
        if route.kind is not RouteKind.LOCAL_TERMINAL:
            dma = DMACommand(
                command_id=f"nmc-rs.chunk{chunk_id}",
                dst_gpu_id=self.topo.gpus[route.dst_gpu].gpu_id,
                chunk_id=chunk_id,
                wg_slices=self._slices(chunk_id),
                op=AccessKind.UPDATE,
                label=self.label,
                read_source=True,
                stage=route.stage,
            )
        regions = () if route.kind is RouteKind.REMOTE_UPDATE else (chunk_id,)
        return ChunkProgram(chunk_id, regions, self.chunks[chunk_id],
                            dma=dma)

    def _slices(self, chunk_id: int):
        """Quantum-sized DMA slices, all attributed to the chunk region."""
        size = self.chunks[chunk_id]
        full, rem = divmod(size, self._quantum)
        slices = [(chunk_id, self._quantum)] * full
        if rem:
            slices.append((chunk_id, rem))
        return tuple(slices)
