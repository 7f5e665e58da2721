"""Consumer-side fusion: overlap an all-gather with the GEMM that
consumes it (Section 7.2, "TP with All-gather").

Some tensor-parallel layouts (e.g. sequence parallelism) shard the
*input* activations: an all-gather must materialize the full ``[T, H]``
input before a long-running consumer GEMM.  T3 inverts its mechanism:

* the Tracker counts the **arriving** AG writes per input chunk,
* on completion it fires a **WG-scheduling event** instead of a DMA
  (the paper cites Lustig & Martonosi-style fine-grained scheduling),
* the consumer GEMM's stages are gated on the chunks their workgroups
  read; the stage covering the locally-resident chunk starts immediately.

The consumer grid enumerates chunks in ring-arrival order (own chunk
first, then upstream chunks as they arrive), so in steady state the GEMM
is never starved — the all-gather hides behind the compute.  The gates
are terminal blocks of the shared driver step (:mod:`repro.t3.driver`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.collectives.baseline import RingAllGather
from repro.collectives.plan import ring_all_gather_plan
from repro.gpu.gemm import GEMMKernel, run_plain_gemms
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import Topology
from repro.memory.cache import estimate_gemm_traffic
from repro.sim.engine import BaseEvent
from repro.t3.driver import ChunkProgram, T3Driver


class FusedAGConsumerGEMM(T3Driver):
    """Ring all-gather overlapped with its consumer GEMM on every rank."""

    name = "fused AG->GEMM"
    ledger_labels = ("ag",)

    def __init__(self, topology: Topology, shape: GEMMShape,
                 n_cus: Optional[int] = None):
        super().__init__(topology)
        self.shape = shape
        self.n_cus = n_cus or self.system.compute.n_cus
        n = self.system.n_gpus

        # Consumer grids: chunk production order == the all-gather plan's
        # arrival order (own chunk, then upstream chunks as they land).
        ag_plan = ring_all_gather_plan(n)
        self.grids: List[TileGrid] = [
            TileGrid(shape, self.system.gemm, n_cus=self.n_cus,
                     n_chunks=n, chunk_offset=(rank - 1) % n, stagger=True,
                     production_order=ag_plan.arrival_order(rank))
            for rank in range(n)
        ]
        self.ag = RingAllGather(topology, nbytes_total=shape.a_bytes)
        for rank, grid in enumerate(self.grids):
            # One whole-chunk region per *foreign input chunk*: the AG tags
            # each arriving write with its chunk id, and the region
            # completes when the whole chunk has landed.
            self.result.gate_times[rank] = {}
            gates = self._program(rank, [
                ChunkProgram(cid, (cid,), self.ag.chunks[cid])
                for cid in range(n) if cid != rank
            ])
            # Gate each GEMM stage on the foreign chunks its WGs read.
            stage_gates: List[Optional[BaseEvent]] = []
            for stage in grid.stages:
                needed = [
                    gates[cid] for cid in stage.chunk_bytes if cid in gates
                ]
                if not needed:
                    stage_gates.append(None)
                elif len(needed) == 1:
                    stage_gates.append(needed[0])
                else:
                    stage_gates.append(self.env.all_of(needed))
            traffic = estimate_gemm_traffic(grid, self.system.memory,
                                            bypass_writes=False)
            self.kernels.append(GEMMKernel(
                grid, traffic, n_cus=self.n_cus, stage_gates=stage_gates))

    def _on_terminal(self, rank: int, chunk_id: int,
                     event: BaseEvent) -> None:
        event.add_callback(
            lambda ev, r=rank, c=chunk_id:
            self.result.gate_times[r].__setitem__(c, ev.value))

    def _launch(self) -> List[BaseEvent]:
        return self.ag.launch() + super()._launch()


def sequential_ag_then_gemm(topology: Topology, shape: GEMMShape,
                            n_cus: Optional[int] = None) -> float:
    """Baseline for comparison: AG completes, then the GEMM runs."""
    ag = RingAllGather(topology, nbytes_total=shape.a_bytes)
    return ag.run().duration + run_plain_gemms(topology, shape, n_cus)
