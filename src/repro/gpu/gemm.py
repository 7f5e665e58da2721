"""Tiled GEMM kernel execution model.

A GEMM runs as a sequence of *stages* (Section 2.5): each stage's
workgroups read their A/B operand tiles, compute, then emit a bursty write
phase.  Operand reads for stage ``s+1`` are prefetched while stage ``s``
computes (double buffering), so a stage's duration is
``max(compute_time, read_time)`` and the paper's Figure 17 read-phase /
write-burst shape emerges naturally from the memory system.

Where the output goes is delegated to a :class:`StoreSink`:

* :class:`LocalWriteSink` — the baseline: plain local DRAM writes on the
  compute stream.
* T3's fused sink (:mod:`repro.t3.fusion`) — routes each chunk to local
  NMC updates or remote/DMA destinations per the address-space map.

:func:`run_plain_gemms` is the unfused baseline GEMM on every GPU that
the Sequential configurations and reference runs share.

The kernel itself never knows whether it is fused — that is the paper's
transparency claim (Section 4.4): only the output address mapping and a
store flag change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.gpu.wavefront import GEMMShape, StageInfo, TileGrid
from repro.memory.cache import GEMMTraffic, estimate_gemm_traffic
from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.gpu import GPU
    from repro.interconnect.topology import Topology


@dataclass
class GEMMResult:
    """Timing record of one GEMM execution."""

    start: float = 0.0
    end: float = 0.0
    stage_ends: List[float] = field(default_factory=list)
    read_bytes: float = 0.0
    write_bytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class StoreSink:
    """Where a GEMM stage's output goes (strategy interface)."""

    #: extra expected updates per element beyond the local store; used by
    #: reporting only.
    def store_stage(self, gpu: "GPU", kernel: "GEMMKernel",
                    stage: StageInfo) -> List[BaseEvent]:
        raise NotImplementedError

    def on_kernel_complete(self, gpu: "GPU", kernel: "GEMMKernel") -> None:
        """Hook fired after the kernel's compute stream drains."""


class LocalWriteSink(StoreSink):
    """Baseline behaviour: write the whole stage output to local DRAM."""

    def __init__(self, label: str = "gemm",
                 kind: AccessKind = AccessKind.WRITE):
        self.label = label
        self.kind = kind

    def store_stage(self, gpu: "GPU", kernel: "GEMMKernel",
                    stage: StageInfo) -> List[BaseEvent]:
        events: List[BaseEvent] = []
        for chunk_id, nbytes in stage.chunk_bytes.items():
            events.extend(gpu.mc.submit_bulk(
                self.kind, Stream.COMPUTE, nbytes, self.label,
                chunk_id=chunk_id,
            ))
        return events


class GEMMKernel:
    """One tiled GEMM launch on one GPU."""

    def __init__(self, grid: TileGrid, traffic: GEMMTraffic,
                 sink: Optional[StoreSink] = None, label: str = "gemm",
                 n_cus: Optional[int] = None, calibrate_mca: bool = False,
                 launch_overhead_ns: float = 2000.0,
                 stage_gates: Optional[List[Optional[BaseEvent]]] = None):
        if len(traffic.stage_read_bytes) != len(grid.stages):
            raise ValueError(
                "traffic model and tile grid disagree on stage count "
                f"({traffic.n_stages} vs {len(grid.stages)})"
            )
        if stage_gates is not None and len(stage_gates) != len(grid.stages):
            raise ValueError("need one gate slot per stage (None = open)")
        self.grid = grid
        self.traffic = traffic
        self.sink = sink or LocalWriteSink(label=label)
        self.label = label
        self.n_cus_override = n_cus
        self.calibrate_mca = calibrate_mca
        self.launch_overhead_ns = launch_overhead_ns
        #: per-stage scheduling gates: a stage's WGs are not scheduled
        #: until its gate fires (T3's consumer-side triggering, Sec. 7.2).
        self.stage_gates = stage_gates
        self.result = GEMMResult()

    # -- timing model --------------------------------------------------------

    def sustained_flops(self, gpu: "GPU") -> float:
        compute = gpu.system.compute
        n_cus = self.n_cus_override or compute.n_cus
        return (
            n_cus * compute.flops_per_cu_per_cycle * compute.clock_ghz
            * compute.gemm_efficiency
        )

    def stage_flops(self, stage: StageInfo) -> float:
        kernel = self.grid.kernel
        shape = self.grid.shape
        per_wg = 2.0 * shape.k * kernel.macro_tile_m * kernel.macro_tile_n
        return per_wg * stage.n_wgs

    def stage_compute_time(self, gpu: "GPU", stage: StageInfo) -> float:
        return self.stage_flops(stage) / self.sustained_flops(gpu)

    def total_flops(self) -> float:
        return sum(self.stage_flops(s) for s in self.grid.stages)

    # -- execution -------------------------------------------------------------

    def _stage_blocked(self, next_stage: int, current_stage: int) -> bool:
        """True when ``next_stage`` is gated and its gate has not fired."""
        if self.stage_gates is None or next_stage == current_stage:
            return False
        gate = self.stage_gates[next_stage]
        return gate is not None and not gate.fired

    def _issue_wave(self, gpu: "GPU", stage_index: int,
                    wave: int, n_waves: int) -> List[BaseEvent]:
        total = self.traffic.stage_read_bytes[stage_index]
        nbytes = total / n_waves
        self.result.read_bytes += nbytes
        return gpu.mc.submit_bulk(
            AccessKind.READ, Stream.COMPUTE, nbytes, self.label)

    def execute(self, gpu: "GPU"):
        """Simulation coroutine for the whole kernel.

        Each stage runs as ``n_waves`` fetch/compute slices: a slice's
        operand reads are issued one wave ahead (K-slab double buffering),
        so compute stalls whenever DRAM cannot keep up — the contention
        mechanism of Figure 17.
        """
        env = gpu.env
        self.result.start = env.now
        if self.launch_overhead_ns:
            yield env.timeout(self.launch_overhead_ns)

        stages = self.grid.stages
        n_waves = gpu.system.fidelity.gemm_waves_per_stage
        # Fault seam resolved once per kernel: env.faults never changes
        # mid-run, and an injector whose plan has no compute faults always
        # answers 1.0 — skip the per-wave query in both cases.
        faults = env.faults
        straggled = faults is not None and faults.has_compute_faults
        pending_reads = (
            self._issue_wave(gpu, 0, 0, n_waves) if stages else []
        )
        first_stage_start = env.now

        for stage in stages:
            if self.stage_gates is not None:
                gate = self.stage_gates[stage.index]
                if gate is not None and not gate.fired:
                    yield gate
            if pending_reads is None:
                # Prefetch was blocked by this stage's gate; fetch now.
                pending_reads = self._issue_wave(gpu, stage.index, 0, n_waves)
            slice_time = self.stage_compute_time(gpu, stage) / n_waves
            for wave in range(n_waves):
                if pending_reads:
                    yield env.all_of(pending_reads)
                # Prefetch the next wave's operands (possibly the first
                # wave of the next stage) while this slice computes.
                next_wave = wave + 1
                next_stage = stage.index
                if next_wave == n_waves:
                    next_wave = 0
                    next_stage += 1
                if next_stage >= len(stages):
                    pending_reads = []
                elif self._stage_blocked(next_stage, stage.index):
                    # Never read operands that have not arrived yet.
                    pending_reads = None
                else:
                    pending_reads = self._issue_wave(
                        gpu, next_stage, next_wave, n_waves)
                # (pending_reads can be None only on a stage's last wave,
                # when the next stage's gate is still closed.)
                if straggled:
                    # Straggler seam: the factor is queried per wave so a
                    # windowed slowdown paces exactly the waves inside it.
                    yield env.timeout(slice_time * faults.compute_factor(
                        gpu.gpu_id, env.now))
                else:
                    yield env.timeout(slice_time)

            write_events = self.sink.store_stage(gpu, self, stage)
            self.result.write_bytes += self.traffic.stage_write_bytes[stage.index]
            self.result.stage_ends.append(env.now)
            if env.obs is not None:
                scope = env.obs.scope(gpu.gpu_id, "gemm")
                wfs = stage.n_wgs * self.grid.kernel.wfs_per_wg
                scope.count("wgs_retired", stage.n_wgs)
                scope.count("wfs_retired", wfs)
                scope.series("wf_retired").record(env.now, wfs)
                scope.series("stage_end").record(env.now, stage.index)

            if stage.index == 0 and self.calibrate_mca:
                duration = env.now - first_stage_start
                gpu.mc.calibrate(
                    read_bytes=self.traffic.stage_read_bytes[0],
                    write_bytes=self.traffic.stage_write_bytes[0],
                    duration_ns=max(duration, 1.0),
                )
            # write_events drain in the background; the burst contends with
            # the next stage's reads exactly as in Figure 17.
            del write_events

        # The kernel retires when its stores are globally visible.
        yield gpu.mc.drain(Stream.COMPUTE)
        self.result.end = env.now
        self.sink.on_kernel_complete(gpu, self)
        return self.result


def run_plain_gemms(topology: "Topology", shape: GEMMShape,
                    n_cus: Optional[int] = None,
                    alongside: Optional[Callable[[], object]] = None) -> float:
    """Run one plain (unfused, local-write) GEMM per simulated GPU.

    Kernels launch in rank order; ``alongside``, when given, is called
    right after the launches to start independent work on the same GPUs
    (it may run the schedule itself).  The schedule then runs until it
    drains.  Returns the slowest kernel's duration; a kernel that never
    finished raises :class:`~repro.sim.engine.SimulationError` with the
    engine's diagnostic dump.
    """
    system = topology.system
    env = topology.env
    n_cus = n_cus or system.compute.n_cus
    kernels = []
    for _gpu in topology.gpus:
        grid = TileGrid(shape, system.gemm, n_cus=n_cus)
        traffic = estimate_gemm_traffic(grid, system.memory,
                                        bypass_writes=False)
        kernels.append(GEMMKernel(grid, traffic, n_cus=n_cus))
    procs = [gpu.launch(k) for gpu, k in zip(topology.gpus, kernels)]
    if alongside is not None:
        alongside()
    env.run()
    if any(not p.fired for p in procs):
        raise SimulationError("plain GEMM never finished\n"
                              + env.diagnostic_dump())
    return max(k.result.duration for k in kernels)
