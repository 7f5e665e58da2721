"""Fused GEMM + ring reduce-scatter orchestration (Figure 7).

This assembles every T3 piece on every GPU of a ring:

1. build a ring-staggered :class:`~repro.gpu.wavefront.TileGrid` per rank
   (device ``d`` produces chunk ``d+1`` first, its own chunk last);
2. configure the output address space
   (:class:`~repro.t3.address_map.AddressSpaceConfig`) and hand each
   tracked chunk's WG regions and DMA command to the shared driver step
   (:mod:`repro.t3.driver`), which programs the Tracker, the DMA command
   table and the trigger blocks;
3. run the (unmodified) GEMM kernels with a :class:`T3StoreSink` that
   routes stores per the address map: the first chunk's stores stream
   over the link as fine-grained remote NMC updates, the rest NMC-update
   local DRAM;
4. the Tracker counts local + incoming updates per WG region and fires
   each chunk's DMA the instant it is fully reduced locally; the device's
   own chunk's completion is the reduce-scatter result.

The GEMM kernels know nothing about any of this — transparency is the
point (Section 4.4).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.collectives.plan import CollectivePlan, plan_for
from repro.gpu.dma import DMACommand
from repro.gpu.gemm import GEMMKernel, StoreSink
from repro.gpu.wavefront import GEMMShape, StageInfo, TileGrid
from repro.interconnect.topology import Topology
from repro.interconnect.transfer import Hop, Transfer
from repro.memory.cache import estimate_gemm_traffic
from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent
from repro.t3.address_map import AddressSpaceConfig, ChunkRoute
from repro.t3.driver import ChunkProgram, T3Driver


class T3StoreSink(StoreSink):
    """Routes one rank's GEMM stores per its address-space config."""

    def __init__(self, fusion: "FusedGEMMRS", rank: int):
        self.fusion = fusion
        self.grid = fusion.grids[rank]
        config = fusion.address_configs[rank]
        #: per chunk, how its stores apply: NMC update or plain store.
        self.kinds: Dict[int, AccessKind] = {
            chunk_id: (AccessKind.UPDATE if route.op == "update"
                       else AccessKind.WRITE)
            for chunk_id, route in config.routes.items()}
        #: per remote-mapped chunk, the hop of its fine-grained
        #: peer-to-peer stores: the link, then the remote update or store.
        self.hops: Dict[int, Hop] = {}
        gpu = fusion.topo.gpus[rank]
        for chunk_id in config.remote_chunks():
            dst = config.route(chunk_id).dst_gpu
            self.hops[chunk_id] = Hop(gpu.link_to(dst), gpu.peer(dst).mc,
                                      self.kinds[chunk_id],
                                      fusion.comm_label)

    def store_stage(self, gpu, kernel: GEMMKernel,
                    stage: StageInfo) -> List[BaseEvent]:
        local_events: List[BaseEvent] = []
        split_k = self.fusion.split_k
        nbytes = self.grid.wg_tile_bytes
        for wg_id in stage.wg_ids:
            chunk_id = self.grid.chunk_of_wg(wg_id)
            hop = self.hops.get(chunk_id)
            # A split-K kernel's co-operating WGs each update the full
            # tile area with partial sums (Section 7.7).
            if hop is None:
                kind = self.kinds[chunk_id]
                for _split in range(split_k):
                    local_events.extend(gpu.mc.submit_bulk(
                        kind, Stream.COMPUTE, nbytes, "gemm",
                        wg_id=wg_id, chunk_id=chunk_id,
                    ))
                continue
            # Reducing stores carry (wg, chunk) metadata so the destination
            # Tracker can count them; all-to-all stores land in a
            # *separate* per-source buffer at the destination and are not
            # tracked there.
            tags = ((wg_id, chunk_id) if hop.op is AccessKind.UPDATE
                    else (None, None))
            for _split in range(split_k):
                Transfer(hop, nbytes, *tags, None).start()
        return local_events


class FusedGEMMRS(T3Driver):
    """A fused GEMM + reduce-scatter across every GPU of a topology.

    The driver programs itself entirely from a
    :class:`~repro.collectives.plan.CollectivePlan`: chunk routes become
    Tracker regions, DMA commands and trigger blocks; the plan's staggered
    production order shapes each rank's :class:`TileGrid`.  On a
    :class:`~repro.interconnect.topology.HierarchicalRingTopology` the
    plan is the two-phase intra-node/inter-node ring, so the same fusion
    runs multi-node.  On a
    :class:`~repro.interconnect.topology.PeriodicRingTopology` it
    programs and launches only the simulated ranks.
    """

    name = "fused GEMM-RS"

    def __init__(self, topology: Topology, shape: GEMMShape,
                 n_cus: Optional[int] = None, stagger: bool = True,
                 calibrate_mca: bool = False, collective: str = "ring-rs",
                 split_k: int = 1, plan: Optional[CollectivePlan] = None):
        """``collective`` selects the address-space pattern: ``"ring-rs"``
        (the paper's main mechanism, Figure 7; on a hierarchical topology
        this becomes the two-phase multi-node plan), ``"direct-rs"``
        (Section 7.1 — fully-connected topology, every foreign chunk
        remote-mapped straight to its owner; no DMA, no local traffic for
        foreign chunks) or ``"all-to-all"`` (Section 7.2 — expert-parallel
        data exchange; remote stores, no reduction).

        ``split_k`` models split-K GEMM kernels (Section 7.7): ``split_k``
        co-operating WGs each issue partial updates per tile, and the
        Tracker triggers only after all of them (plus the incoming
        contribution) have landed.

        ``plan`` overrides the topology-derived collective plan (tests /
        custom schedules); it must match the topology's rank count."""
        if collective not in ("ring-rs", "direct-rs", "all-to-all"):
            raise ValueError(f"unsupported fused collective {collective!r}")
        if split_k < 1:
            raise ValueError("split_k must be >= 1")
        if split_k > 1 and collective != "ring-rs":
            raise ValueError("split-K tracking is modelled for ring-RS")
        super().__init__(topology)
        self.shape = shape
        self.n_cus = n_cus or self.system.compute.n_cus
        self.stagger = stagger and collective == "ring-rs"
        self.calibrate_mca = calibrate_mca
        self.collective = collective
        self.split_k = split_k
        #: traffic label for the communication half of the fusion.
        self.comm_label = "rs" if collective != "all-to-all" else "a2a"
        self.ledger_labels = ("gemm", self.comm_label)

        n = self.system.n_gpus
        if plan is None:
            # Graceful small-shape chunking: a tiny output that cannot be
            # cut N ways gets a plan over fewer chunks instead of raising.
            tiles = (math.ceil(shape.m / self.system.gemm.macro_tile_m)
                     * math.ceil(shape.n / self.system.gemm.macro_tile_n))
            max_chunks = tiles if collective == "ring-rs" else None
            plan = plan_for(topology, collective, max_chunks=max_chunks,
                            split_k=split_k, stagger=self.stagger)
        if plan.n_ranks != n:
            raise ValueError(
                f"plan covers {plan.n_ranks} ranks but the topology has {n}")
        self.plan = plan
        ranks = range(topology.n_simulated)
        self.grids: List[TileGrid] = [
            TileGrid(shape, self.system.gemm, n_cus=self.n_cus,
                     n_chunks=plan.n_chunks, chunk_offset=rank,
                     stagger=self.stagger,
                     production_order=plan.production_order(rank))
            for rank in ranks
        ]
        self.address_configs = [
            AddressSpaceConfig.from_plan(plan, rank) for rank in ranks
        ]
        for rank in ranks:
            grid = self.grids[rank]
            config = self.address_configs[rank]
            self._program(rank, [
                self._chunk(grid, cid, config.route(cid))
                for cid in config.tracked_chunks()
            ])
            traffic = estimate_gemm_traffic(grid, self.system.memory,
                                            bypass_writes=True)
            self.kernels.append(GEMMKernel(
                grid, traffic, sink=T3StoreSink(self, rank), label="gemm",
                n_cus=self.n_cus, calibrate_mca=self.calibrate_mca,
            ))

    @staticmethod
    def _chunk(grid: TileGrid, chunk_id: int,
               route: ChunkRoute) -> ChunkProgram:
        """One WG region per tile, each expecting ``expected_updates``
        tile-sized updates; the DMA moves the chunk tile by tile."""
        wgs = grid.chunk_wgs(chunk_id)
        command_id = route.dma_command_id
        dma = None
        if command_id is not None:
            dma = DMACommand(
                command_id=command_id,
                dst_gpu_id=route.dst_gpu,
                chunk_id=chunk_id,
                wg_slices=tuple((wg_id, grid.wg_tile_bytes) for wg_id in wgs),
                op=AccessKind.UPDATE,
                label="rs",
                read_source=True,
                stage=route.stage,
            )
        return ChunkProgram(chunk_id, wgs, grid.wg_tile_bytes,
                            route.expected_updates, dma)
