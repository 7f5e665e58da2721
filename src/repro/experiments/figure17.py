"""Figure 17: DRAM traffic over time — baseline GEMM vs T3 overlap.

The paper plots, for T-NLG FC-2 (TP=8, SLB=4K), per-interval DRAM traffic:

(a) the isolated GEMM alternates read phases with bursty write phases;
(b) under T3 the same GEMM shares DRAM with RS reads (DMA source reads
    fired as chunks complete) and RS updates (incoming NMC traffic),
    which stall GEMM reads and stretch the kernel.

This runner records per-request traffic timelines and bins them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import table1_system
from repro.experiments.common import (
    _fresh_topology,
    _run_fused,
    _run_sequential,
)
from repro.models import zoo
from repro.t3.configs import config_by_name

#: time bin width for the published series.
BIN_NS = 20_000.0


@dataclass
class TrafficSeries:
    label: str
    bin_starts: List[float]
    bytes_per_bin: List[float]

    @property
    def total(self) -> float:
        return sum(self.bytes_per_bin)

    @property
    def peak(self) -> float:
        return max(self.bytes_per_bin, default=0.0)

    def sparkline(self, width: int = 60) -> str:
        """Terminal-friendly rendering of the series shape."""
        if not self.bytes_per_bin:
            return ""
        blocks = " .:-=+*#%@"
        step = max(1, len(self.bytes_per_bin) // width)
        peak = self.peak or 1.0
        chars = []
        for i in range(0, len(self.bytes_per_bin), step):
            window = self.bytes_per_bin[i:i + step]
            level = (sum(window) / len(window)) / peak
            chars.append(blocks[min(len(blocks) - 1,
                                    int(level * (len(blocks) - 1)))])
        return "".join(chars)


@dataclass
class Figure17Result:
    case: str
    gemm_duration_baseline_us: float
    gemm_duration_t3_us: float
    baseline_series: Dict[str, TrafficSeries] = field(default_factory=dict)
    t3_series: Dict[str, TrafficSeries] = field(default_factory=dict)

    @property
    def gemm_slowdown(self) -> float:
        return self.gemm_duration_t3_us / self.gemm_duration_baseline_us

    def render(self) -> str:
        lines = [f"Figure 17 — DRAM traffic timelines ({self.case})",
                 f"baseline GEMM: {self.gemm_duration_baseline_us:.0f}us; "
                 f"with T3 overlap: {self.gemm_duration_t3_us:.0f}us "
                 f"(slowdown {self.gemm_slowdown:.2f}x)"]
        lines.append("-- (a) baseline (isolated GEMM) --")
        for label, series in self.baseline_series.items():
            lines.append(f"{label:>12} |{series.sparkline()}| "
                         f"{series.total / 1e6:.0f}MB")
        lines.append("-- (b) T3 (GEMM overlapped with RS) --")
        for label, series in self.t3_series.items():
            lines.append(f"{label:>12} |{series.sparkline()}| "
                         f"{series.total / 1e6:.0f}MB")
        return "\n".join(lines)


def _binned(mc, keys: List[str], start: float, end: float,
            label: str) -> TrafficSeries:
    merged = mc.merged_traffic(keys)
    starts, sums = merged.binned(BIN_NS, start=start, end=end)
    return TrafficSeries(label=label, bin_starts=starts, bytes_per_bin=sums)


def run(fast: bool = True) -> Figure17Result:
    # The paper's Figure 17 workload: T-NLG FC-2, TP=8, SLB=4K tokens.
    sub = zoo.t_nlg().sublayer("FC-2", tp=8)
    shape = dataclasses.replace(sub.gemm, m=2048 if fast else 4096)
    system = table1_system(n_gpus=8)

    topo_base = _fresh_topology(system, "compute-priority",
                                record_traffic=True)
    gemm_t, _rs_t, _ag_t = _run_sequential(topo_base, shape)
    mc_base = topo_base.gpus[0].mc
    baseline = {
        "GEMM reads": _binned(mc_base, ["gemm.read"], 0, gemm_t, "GEMM reads"),
        "GEMM writes": _binned(mc_base, ["gemm.write"], 0, gemm_t,
                               "GEMM writes"),
    }

    topo_t3 = _fresh_topology(system, config_by_name("T3").mc_policy,
                              record_traffic=True)
    fused, _total = _run_fused(topo_t3, shape, calibrate_mca=False)
    mc_t3 = topo_t3.gpus[0].mc
    t3_gemm_t = max(r.duration for r in fused.result.gemm_results)
    window = fused.result.end
    t3 = {
        "GEMM reads": _binned(mc_t3, ["gemm.read"], 0, window, "GEMM reads"),
        "GEMM updates": _binned(mc_t3, ["gemm.update"], 0, window,
                                "GEMM updates"),
        "RS reads": _binned(mc_t3, ["rs.read"], 0, window, "RS reads"),
        "RS updates": _binned(mc_t3, ["rs.update"], 0, window, "RS updates"),
    }
    return Figure17Result(
        case=f"{sub.label} (M={shape.m})",
        gemm_duration_baseline_us=gemm_t / 1e3,
        gemm_duration_t3_us=t3_gemm_t / 1e3,
        baseline_series=baseline,
        t3_series=t3,
    )
