"""Section 7.2 study: coarse-grained (data-parallel) overlap.

In DP, the gradient reduce-scatter overlaps with *independent* backward
GEMMs — no fusion needed.  The question is interference: today the
collective takes CUs from the GEMM (Figure 6) and its traffic contends in
DRAM.  T3's substrate removes the CU cost entirely (DMA + NMC) and MCA
tames the memory contention — the claim this experiment prices:

* ``CU-split``  — GEMM on 72 CUs concurrent with a CU-driven RS on 8;
* ``NMC-RS/RR`` — GEMM on all 80 CUs concurrent with the zero-CU
  NMC reduce-scatter, round-robin memory arbitration;
* ``NMC-RS/MCA``— same with communication-aware arbitration.

Reported per strategy: makespan (both must finish) and the GEMM's
slowdown versus isolated execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.collectives.baseline import RingReduceScatter
from repro.config import SystemConfig, table1_system
from repro.experiments.common import scaled_shape
from repro.gpu.gemm import run_plain_gemms
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.models import zoo
from repro.sim import Environment
from repro.t3.standalone import NMCReduceScatter


@dataclass(frozen=True)
class DPOverlapRow:
    strategy: str
    makespan_us: float
    gemm_slowdown: float
    rs_us: float


@dataclass
class DPOverlapResult:
    rows: List[DPOverlapRow]
    gemm_isolated_us: float

    def render(self) -> str:
        lines = [
            "Section 7.2 — DP-style overlap: independent GEMM vs gradient RS",
            f"(isolated GEMM: {self.gemm_isolated_us:.0f}us)",
            f"{'strategy':14} {'makespan':>9} {'GEMM x':>7} {'RS':>9}",
        ]
        for r in self.rows:
            lines.append(f"{r.strategy:14} {r.makespan_us:>7.0f}us "
                         f"{r.gemm_slowdown:>7.2f} {r.rs_us:>7.0f}us")
        return "\n".join(lines)

    def row(self, strategy: str) -> DPOverlapRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise KeyError(strategy)


def _run_concurrent(system: SystemConfig, shape: GEMMShape, rs_bytes: int,
                    policy: str, gemm_cus: int, rs_mode: str):
    """GEMM on ``gemm_cus`` CUs of every GPU, with the gradient RS run
    alongside; returns (makespan, GEMM time, RS finish)."""
    env = Environment()
    topo = RingTopology(env, system, policy_name=policy)
    if rs_mode == "cu":
        rs = RingReduceScatter(topo, nbytes_total=rs_bytes,
                               n_cus=system.compute.n_cus - gemm_cus)
    else:
        rs = NMCReduceScatter(topo, nbytes_total=rs_bytes)
    gemm_time = run_plain_gemms(topo, shape, gemm_cus, alongside=rs.run)
    rank_ends = (rs.result.per_rank_end if rs_mode == "cu"
                 else rs.result.per_rank_terminal)
    return env.now, gemm_time, max(rank_ends.values())


def run(fast: bool = True) -> DPOverlapResult:
    scale = 8 if fast else 2
    shape = scaled_shape(zoo.t_nlg().sublayer("FC-2", 8).gemm, scale)
    system = table1_system(n_gpus=8)
    rs_bytes = shape.output_bytes  # gradient-sized payload

    # Isolated GEMM reference (all 80 CUs, no collective).
    gemm_isolated = run_plain_gemms(RingTopology(Environment(), system),
                                    shape)

    rows: List[DPOverlapRow] = []
    for strategy, policy, gemm_cus, rs_mode in (
        ("CU-split", "round-robin", 72, "cu"),
        ("NMC-RS/RR", "round-robin", 80, "nmc"),
        ("NMC-RS/MCA", "mca", 80, "nmc"),
    ):
        makespan, gemm_time, rs_end = _run_concurrent(
            system, shape, rs_bytes, policy, gemm_cus, rs_mode)
        rows.append(DPOverlapRow(
            strategy=strategy,
            makespan_us=makespan / 1e3,
            gemm_slowdown=gemm_time / gemm_isolated,
            rs_us=rs_end / 1e3,
        ))
    return DPOverlapResult(rows, gemm_isolated_us=gemm_isolated / 1e3)
