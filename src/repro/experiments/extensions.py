"""Section 7 extension studies: generation phase, lower precision, NMC
for following operators, and consumer-side AG fusion.

These go beyond the paper's figures — they quantify the discussion
sections with the same machinery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.config import table1_system
from repro.experiments.common import scaled_shape, run_sublayer_suite
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.models import zoo
from repro.models.endtoend import (
    Phase,
    iteration_breakdown,
    nmc_following_ops_speedup,
)
from repro.sim import Environment
from repro.t3.consumer import FusedAGConsumerGEMM, sequential_ag_then_gemm


# ------------------------------------------------ generation phase (7.3)

@dataclass
class GenerationRow:
    model: str
    tp: int
    comm_fraction: float
    per_token_us: float
    hidden_speedup: float   # end-to-end if the ARs are fully hidden


@dataclass
class GenerationResult:
    rows: List[GenerationRow]

    def render(self) -> str:
        lines = [
            "Section 7.3 — generation (decode) phase",
            f"{'model':12} {'tp':>3} {'us/token':>9} {'comm%':>7} "
            f"{'AR-hidden speedup':>18}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.model:12} {r.tp:>3} {r.per_token_us:>9.1f} "
                f"{100 * r.comm_fraction:>6.1f}% {r.hidden_speedup:>18.3f}")
        return "\n".join(lines)


def run_generation(fast: bool = True) -> GenerationResult:
    del fast
    rows = []
    for model in zoo.small_models() + zoo.large_models():
        for tp in zoo.TP_SETUPS[model.name]:
            system = table1_system(n_gpus=tp)
            breakdown = iteration_breakdown(model, tp, system,
                                            Phase.GENERATION)
            total = breakdown.total_time()
            comm = breakdown.comm_time()
            rows.append(GenerationRow(
                model=model.name, tp=tp,
                comm_fraction=comm / total,
                per_token_us=total / 1e3,
                hidden_speedup=total / (total - comm),
            ))
    return GenerationResult(rows)


# ------------------------------------------------- lower precision (7.5)

@dataclass
class PrecisionRow:
    precision: str
    gemm_us: float
    rs_us: float
    t3_speedup: float
    ideal_speedup: float


@dataclass
class PrecisionResult:
    rows: List[PrecisionRow]

    def render(self) -> str:
        lines = [
            "Section 7.5 — lower precision (T-NLG FC-2, TP=8)",
            f"{'precision':>10} {'GEMM':>9} {'RS':>9} {'T3-MCA':>8} "
            f"{'ideal':>8}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.precision:>10} {r.gemm_us:>7.0f}us {r.rs_us:>7.0f}us "
                f"{r.t3_speedup:>8.3f} {r.ideal_speedup:>8.3f}")
        return "\n".join(lines)

    def row(self, precision: str) -> PrecisionRow:
        for r in self.rows:
            if r.precision == precision:
                return r
        raise KeyError(precision)


def run_precision(fast: bool = True) -> PrecisionResult:
    """FP16 vs FP8: compute drops ~quadratically with precision (doubled
    rate on half-width operands) while communication shrinks only
    linearly — so overlap matters *more* at lower precision."""
    scale = 8 if fast else 1
    sub = zoo.t_nlg().sublayer("FC-2", 8)
    rows: List[PrecisionRow] = []
    for name, flops_factor, element_bytes in (
        ("fp16", 1.0, 2),
        ("fp8", 4.0, 1),
    ):
        base = table1_system(n_gpus=8)
        system = base.replace(compute=dataclasses.replace(
            base.compute,
            flops_per_cu_per_cycle=(base.compute.flops_per_cu_per_cycle
                                    * flops_factor)))
        shape = scaled_shape(
            dataclasses.replace(sub.gemm, element_bytes=element_bytes),
            scale)
        suite = run_sublayer_suite(
            system, shape, label=f"FC-2/{name}",
            configs=["Sequential", "T3-MCA", "Ideal-GEMM-RS-Overlap"])
        rows.append(PrecisionRow(
            precision=name,
            gemm_us=suite.gemm_time / 1e3,
            rs_us=suite.rs_time / 1e3,
            t3_speedup=suite.speedup("T3-MCA"),
            ideal_speedup=suite.speedup("Ideal-GEMM-RS-Overlap"),
        ))
    return PrecisionResult(rows)


# ------------------------------------- NMC for following operators (7.6)

@dataclass
class FollowingOpsRow:
    model: str
    tp: int
    phase: str
    speedup: float


@dataclass
class FollowingOpsResult:
    rows: List[FollowingOpsRow]

    def render(self) -> str:
        lines = [
            "Section 7.6 — NMC execution of post-AR operators",
            f"{'model':12} {'tp':>3} {'phase':>9} {'extra speedup':>14}",
        ]
        for r in self.rows:
            lines.append(f"{r.model:12} {r.tp:>3} {r.phase:>9} "
                         f"{r.speedup:>14.3f}")
        return "\n".join(lines)


def run_following_ops(fast: bool = True) -> FollowingOpsResult:
    del fast
    rows = []
    for model in zoo.small_models():
        for tp in zoo.TP_SETUPS[model.name]:
            system = table1_system(n_gpus=tp)
            for phase in (Phase.TRAINING, Phase.PROMPT):
                breakdown = iteration_breakdown(model, tp, system, phase)
                rows.append(FollowingOpsRow(
                    model=model.name, tp=tp, phase=phase.value,
                    speedup=nmc_following_ops_speedup(breakdown)))
    return FollowingOpsResult(rows)


# ------------------------------------------ consumer-side fusion (7.2)

@dataclass
class ConsumerFusionRow:
    case: str
    sequential_us: float
    fused_us: float

    @property
    def speedup(self) -> float:
        return self.sequential_us / self.fused_us


@dataclass
class ConsumerFusionStudy:
    rows: List[ConsumerFusionRow]

    def render(self) -> str:
        lines = [
            "Section 7.2 — all-gather overlapped with its consumer GEMM",
            f"{'case':24} {'sequential':>11} {'fused':>9} {'speedup':>8}",
        ]
        for r in self.rows:
            lines.append(f"{r.case:24} {r.sequential_us:>9.0f}us "
                         f"{r.fused_us:>7.0f}us {r.speedup:>8.3f}")
        return "\n".join(lines)


def run_consumer_fusion(fast: bool = True) -> ConsumerFusionStudy:
    scale = 8 if fast else 2
    rows: List[ConsumerFusionRow] = []
    for model in zoo.small_models():
        # An FC-1-like consumer: the all-gathered [T, H] activations feed
        # a long column-parallel GEMM.
        tp = 8
        shape = scaled_shape(
            GEMMShape(model.tokens, 4 * model.hidden // tp, model.hidden,
                      name=f"{model.name}.fc1-consumer"),
            scale)
        system = table1_system(n_gpus=tp).with_fidelity(
            quantum_bytes=32 * 1024)

        env_f = Environment()
        fused = FusedAGConsumerGEMM(
            RingTopology(env_f, system), shape).run()
        env_s = Environment()
        sequential = sequential_ag_then_gemm(
            RingTopology(env_s, system), shape)
        rows.append(ConsumerFusionRow(
            case=f"{model.name}/FC-1-consumer/TP{tp}",
            sequential_us=sequential / 1e3,
            fused_us=fused.duration / 1e3,
        ))
    return ConsumerFusionStudy(rows)
