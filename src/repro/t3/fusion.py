"""Fused GEMM + ring reduce-scatter orchestration (Figure 7).

This assembles every T3 piece on every GPU of a ring:

1. build a ring-staggered :class:`~repro.gpu.wavefront.TileGrid` per rank
   (device ``d`` produces chunk ``d+1`` first, its own chunk last);
2. configure the output address space
   (:class:`~repro.t3.address_map.AddressSpaceConfig`), program the
   :class:`~repro.t3.tracker.Tracker` regions, the DMA command table and
   the :class:`~repro.t3.trigger.TriggerController` blocks;
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.collectives.plan import CollectivePlan, plan_for
from repro.gpu.dma import DMACommand
from repro.gpu.gemm import GEMMKernel, GEMMResult, StoreSink
from repro.gpu.wavefront import GEMMShape, StageInfo, TileGrid
from repro.interconnect.topology import Topology
from repro.memory.cache import estimate_gemm_traffic
from repro.memory.nmc import ReductionBuffer
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.sim.engine import BaseEvent, SimulationError
from repro.t3.address_map import AddressSpaceConfig, RouteKind
from repro.t3.tracker import Tracker
from repro.t3.trigger import DMABlock, TriggerController


@dataclass
class FusedResult:
    """Outcome of one fused GEMM-RS run across all ranks."""

    start: float = 0.0
    rs_done: float = 0.0
    gemm_results: List[GEMMResult] = field(default_factory=list)
    per_rank_terminal: Dict[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """GEMM launch to last fully-reduced chunk, i.e. the fused
        GEMM+RS critical path."""
        return self.rs_done - self.start

    @property
    def gemm_duration(self) -> float:
        return max(r.duration for r in self.gemm_results)


class T3StoreSink(StoreSink):
    """Routes one rank's GEMM stores per its address-space config."""

    def __init__(self, fusion: "FusedGEMMRS", rank: int):
        self.fusion = fusion
        self.rank = rank
        self.config = fusion.address_configs[rank]
        self.grid = fusion.grids[rank]

    def store_stage(self, gpu, kernel: GEMMKernel,
                    stage: StageInfo) -> List[BaseEvent]:
        local_events: List[BaseEvent] = []
        split_k = self.fusion.split_k
        for wg_id in stage.wg_ids:
            chunk_id = self.grid.chunk_of_wg(wg_id)
            route = self.config.route(chunk_id)
            nbytes = self.grid.wg_tile_bytes
            kind = (AccessKind.UPDATE if route.op == "update"
                    else AccessKind.WRITE)
            # A split-K kernel's co-operating WGs each update the full
            # tile area with partial sums (Section 7.7).
            for _split in range(split_k):
                if route.kind is RouteKind.REMOTE_UPDATE:
                    gpu.env.process(
                        self._remote_store(gpu, route.dst_gpu, wg_id,
                                           chunk_id, nbytes, kind),
                        name=f"t3.remote.r{self.rank}.wg{wg_id}",
                    )
                else:
                    local_events.extend(gpu.mc.submit_bulk(
                        kind, Stream.COMPUTE, nbytes, "gemm",
                        wg_id=wg_id, chunk_id=chunk_id,
                    ))
        return local_events

    def _remote_store(self, gpu, dst_gpu_id: int, wg_id: int, chunk_id: int,
                      nbytes: int, kind: AccessKind):
        """Fine-grained peer-to-peer store: link, then remote NMC update
        (or plain store for non-reducing collectives).

        Reducing stores carry (wg, chunk) metadata so the destination
        Tracker can count them; all-to-all stores land in a *separate*
        per-source buffer at the destination and are not tracked there.
        """
        yield gpu.link_to(dst_gpu_id).transfer(nbytes)
        remote = gpu.peer(dst_gpu_id)
        reducing = kind is AccessKind.UPDATE
        writes = remote.mc.submit_bulk(
            kind, Stream.COMM, nbytes, self.fusion.comm_label,
            wg_id=wg_id if reducing else None,
            chunk_id=chunk_id if reducing else None,
        )
        if writes:
            yield gpu.env.all_of(writes)


class FusedGEMMRS:
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

    def __init__(self, topology: Topology, shape: GEMMShape,
                 n_cus: Optional[int] = None, stagger: bool = True,
                 calibrate_mca: bool = False, check_invariants: bool = True,
                 tracker_granularity: str = "wg",
                 collective: str = "ring-rs", split_k: int = 1,
                 plan: Optional[CollectivePlan] = None):
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
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.shape = shape
        self.n_cus = n_cus or self.system.compute.n_cus
        self.stagger = stagger and collective == "ring-rs"
        self.calibrate_mca = calibrate_mca
        self.check_invariants = check_invariants
        self.collective = collective
        self.split_k = split_k
        #: traffic label for the communication half of the fusion.
        self.comm_label = "rs" if collective != "all-to-all" else "a2a"

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
        self.trackers: List[Tracker] = []
        self.controllers: List[TriggerController] = []
        self.terminal_events: List[BaseEvent] = []
        self.dma_completions: List[BaseEvent] = []
        self.kernels: List[GEMMKernel] = []
        self.ledgers: List[Optional[ReductionBuffer]] = []
        self.result = FusedResult()
        for rank in ranks:
            self._setup_rank(rank)

    # -- per-rank configuration ("driver" work, Figure 12) -----------------------

    def _chunk_wgs(self, grid: TileGrid, chunk_id: int) -> List[int]:
        return grid.chunk_wgs(chunk_id)

    def _setup_rank(self, rank: int) -> None:
        gpu = self.topo.gpus[rank]
        grid = self.grids[rank]
        config = self.address_configs[rank]

        tracker = Tracker(self.system.tracker, granularity="wg",
                          env=self.env, gpu_id=rank)
        gpu.tracker = tracker
        gpu.mc.add_tracker_observer(tracker.observe)
        controller = TriggerController(self.env, tracker, gpu.dma)

        ledger: Optional[ReductionBuffer] = None
        if self.check_invariants:
            ledger = ReductionBuffer(
                {cid: grid.chunk_bytes_total(cid)
                 for cid in config.tracked_chunks()},
                expected_contributions={
                    cid: config.route(cid).expected_updates
                    for cid in config.tracked_chunks()
                },
            )
            gpu.mc.add_tracker_observer(
                self._make_ledger_observer(ledger, set(config.tracked_chunks())))

        # Program DMA commands, Tracker regions and trigger blocks.
        for chunk_id in config.tracked_chunks():
            route = config.route(chunk_id)
            wgs = self._chunk_wgs(grid, chunk_id)
            expected = route.expected_updates * grid.wg_tile_bytes
            for wg_id in wgs:
                tracker.program_region(wg_id, wf_id=-1,
                                       expected_bytes=expected)
            command_id = route.dma_command_id
            if command_id is not None:
                gpu.dma.program(DMACommand(
                    command_id=command_id,
                    dst_gpu_id=route.dst_gpu,
                    chunk_id=chunk_id,
                    wg_slices=tuple(
                        (wg_id, grid.wg_tile_bytes) for wg_id in wgs),
                    op=AccessKind.UPDATE,
                    label="rs",
                    read_source=True,
                    stage=route.stage,
                ))
                self.dma_completions.append(gpu.dma.completion(command_id))
            block = DMABlock(
                block_id=f"r{rank}.chunk{chunk_id}",
                regions={(wg_id, -1) for wg_id in wgs},
                dma_command_id=command_id,
            )
            terminal = controller.program_block(block)
            if terminal is not None:
                self.terminal_events.append(terminal)
                terminal.add_callback(
                    lambda ev, r=rank: self.result.per_rank_terminal.__setitem__(
                        r, ev.value))

        traffic = estimate_gemm_traffic(grid, self.system.memory,
                                        bypass_writes=True)
        kernel = GEMMKernel(
            grid, traffic, sink=T3StoreSink(self, rank), label="gemm",
            n_cus=self.n_cus, calibrate_mca=self.calibrate_mca,
        )
        self.trackers.append(tracker)
        self.controllers.append(controller)
        self.kernels.append(kernel)
        self.ledgers.append(ledger)

    def _make_ledger_observer(self, ledger: ReductionBuffer,
                              tracked: set):
        valid_labels = ("gemm", self.comm_label)

        def observe(request: MemRequest) -> None:
            if request.kind is AccessKind.READ:
                return
            if request.label not in valid_labels:
                return  # e.g. the all-gather that follows the fused RS
            if request.chunk_id in tracked:
                ledger.contribute(request.chunk_id, request.nbytes,
                                  source=request.label)

        return observe

    # -- execution --------------------------------------------------------------------

    def run(self) -> FusedResult:
        self.result.start = self.env.now
        procs = [
            gpu.launch(kernel)
            for gpu, kernel in zip(self.topo.gpus, self.kernels)
        ]
        everything = self.env.all_of(
            procs + self.terminal_events + self.dma_completions)
        # Armed resilience deadline timers may outlive the collective and
        # advance env.now past its real finish; capture rs_done at the
        # composite's fire instant so recovered runs report honest times.
        finished_at: List[float] = []
        everything.add_callback(lambda _ev: finished_at.append(self.env.now))
        self.env.run()
        runtime = self.env.resilience
        while not everything.fired and runtime is not None \
                and runtime.recover_drain(self):
            # The drain backstop re-issued lost completions; resume the
            # event loop and let the collective finish.
            self.env.run()
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
            dropped = [
                (gpu.gpu_id, list(gpu.dma.dropped_completions))
                for gpu in self.topo.gpus
                if gpu.dma.dropped_completions
            ]
            raise SimulationError(
                f"fused GEMM-RS deadlocked; pending tracker regions: "
                f"{pending}; dropped DMA completions: {dropped}\n"
                + self.env.diagnostic_dump())
        self.result.rs_done = (
            finished_at[0]
            if runtime is not None and runtime.armed and finished_at
            else self.env.now)
        self.result.gemm_results = [k.result for k in self.kernels]
        if self.env.invariants is not None:
            self.env.invariants.check_all()
        if self.check_invariants:
            self._check_ledgers()
        return self.result

    def _check_ledgers(self) -> None:
        for rank, ledger in enumerate(self.ledgers):
            if ledger is None:
                continue
            for chunk_id, count, _sealed in ledger.summary():
                expected = ledger.expected[chunk_id]
                if count < expected:
                    raise AssertionError(
                        f"rank {rank} chunk {chunk_id} finished with only "
                        f"{count}/{expected} contributions — reduction "
                        "incomplete")
