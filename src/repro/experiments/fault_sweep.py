"""Fault sweep: how much fault pressure can T3's overlap absorb?

The paper's speedups (Figure 16) assume a healthy machine.  This
experiment degrades it on purpose, two ways:

* **straggler** — one GPU's compute slowed by a factor (kernel-launch
  jitter, thermal throttling, a noisy neighbour);
* **link degradation** — GPU 0's ring send link cut to a fraction of its
  bandwidth (a flaky retimer, a downtrained PCIe/xGMI lane).

For each severity we re-run Sequential and T3-MCA on a pair of
Figure-16 sub-layers and report T3-MCA's speedup.  Because a fused
GEMM-RS serializes each ring step behind *both* the producer GEMM slice
and the forwarded partials, a straggler or slow link hurts T3 more than
it hurts the already-serialized baseline — the interesting number is the
severity where the speedup crosses 1.0 and overlap stops paying.

Every faulty run is keyed by its :class:`~repro.faults.FaultPlan` in the
persistent sweep cache, so repeated invocations are cheap and, because
fault injection is seeded and hash-drawn, bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import table1_system
from repro.experiments.sublayer_sweep import (
    FAST_SCALE,
    run_sweep,
    save_case_trace,
)
from repro.faults import ANY, FaultPlan
from repro.models import zoo
from repro.models.transformer import SubLayer

#: compute-slowdown factors applied to GPU 0 (1.0 = healthy).
STRAGGLER_FACTORS: Tuple[float, ...] = (1.0, 1.1, 1.25, 1.5, 2.0)

#: bandwidth fractions applied to GPU 0's send link (1.0 = healthy).
LINK_FACTORS: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)

#: the two configurations every severity is measured with.
CONFIGS: Tuple[str, ...] = ("Sequential", "T3-MCA")

#: deterministic seed for every injected plan (severity is the sweep
#: variable; the seed only feeds probabilistic knobs like stalls).
SWEEP_SEED = 1729


@dataclass
class FaultPoint:
    """One (fault kind, severity, sub-layer) measurement."""

    kind: str                 # "straggler" | "link"
    severity: float           # slowdown factor or bandwidth fraction
    label: str                # sub-layer label
    sequential_time: float
    t3_time: float

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.t3_time

    @property
    def overlap_pays(self) -> bool:
        return self.speedup > 1.0


@dataclass
class FaultSweepResult:
    """All measurements, grouped for rendering."""

    points: List[FaultPoint] = field(default_factory=list)

    def by_kind(self, kind: str) -> List[FaultPoint]:
        return [p for p in self.points if p.kind == kind]

    def breakeven(self, kind: str, label: str) -> Optional[float]:
        """First severity (in sweep order) where overlap stops paying."""
        for point in self.by_kind(kind):
            if point.label == label and not point.overlap_pays:
                return point.severity
        return None

    def render(self) -> str:
        lines = ["Fault sweep — T3-MCA speedup under injected faults",
                 "(speedup over Sequential; * marks overlap no longer "
                 "paying)"]
        for kind, header, fmt in (
                ("straggler", "GPU-0 compute slowdown factor", "x{:.2f}"),
                ("link", "GPU-0 send-link bandwidth fraction", "{:.0%}")):
            points = self.by_kind(kind)
            if not points:
                continue
            lines.append("")
            lines.append(header)
            labels = sorted({p.label for p in points})
            severities = sorted({p.severity for p in points},
                                reverse=(kind == "link"))
            width = max(len(label) for label in labels) + 2
            head = " " * 12 + "".join(f"{label:>{width}}"
                                      for label in labels)
            lines.append(head)
            table: Dict[Tuple[float, str], FaultPoint] = {
                (p.severity, p.label): p for p in points}
            for severity in severities:
                row = f"  {fmt.format(severity):>8}  "
                for label in labels:
                    point = table[(severity, label)]
                    cell = f"{point.speedup:.3f}" + \
                        ("" if point.overlap_pays else "*")
                    row += f"{cell:>{width}}"
                lines.append(row)
        lines.append("")
        for label in sorted({p.label for p in self.points}):
            frontier = []
            for kind, describe in (("straggler", "slowdown x{:.2f}"),
                                   ("link", "bandwidth {:.0%}")):
                severity = self.breakeven(kind, label)
                if severity is not None:
                    frontier.append(describe.format(severity))
            verdict = ("overlap stops paying at " + ", ".join(frontier)
                       if frontier else "overlap pays at every severity "
                       "swept")
            lines.append(f"  {label}: {verdict}")
        return "\n".join(lines)


def default_cases() -> List[SubLayer]:
    """Two representative Figure-16 sub-layers (Mega-GPT-2, TP=8): the
    attention output projection and the MLP's second GEMM."""
    subs = zoo.megatron_gpt2().ar_sublayers(8)
    return [s for s in subs if s.name in ("OP", "FC-2")]


def _plan_for(kind: str, severity: float) -> Optional[FaultPlan]:
    if severity == 1.0:
        return None  # healthy baseline: identical to the normal sweep
    if kind == "straggler":
        return FaultPlan.straggler(gpu_id=0, factor=severity,
                                   seed=SWEEP_SEED)
    # Every egress link of GPU 0 — in a ring that is exactly its one
    # send link (rank sends downstream to rank-1), whatever the TP degree.
    return FaultPlan.degraded_link(src=0, dst=ANY,
                                   bandwidth_factor=severity,
                                   seed=SWEEP_SEED)


def run(fast: bool = True, jobs: Optional[int] = None,
        cases: Optional[Sequence[SubLayer]] = None,
        straggler_factors: Sequence[float] = STRAGGLER_FACTORS,
        link_factors: Sequence[float] = LINK_FACTORS,
        trace_out: Optional[str] = None) -> FaultSweepResult:
    """Sweep fault severities; ``trace_out`` additionally saves a trace
    of the first case's T3-MCA run at the *worst* straggler severity (a
    fresh, uncached simulation — the sweep's cached results are payload
    only and carry no spans)."""
    selected = list(cases) if cases is not None else default_cases()
    result = FaultSweepResult()
    for kind, severities in (("straggler", straggler_factors),
                             ("link", link_factors)):
        for severity in severities:
            suites = run_sweep(fast=fast, cases=selected,
                               configs=list(CONFIGS), jobs=jobs,
                               faults=_plan_for(kind, severity),
                               check_invariants=True)
            for suite in suites:
                result.points.append(FaultPoint(
                    kind=kind, severity=severity, label=suite.label,
                    sequential_time=suite.times["Sequential"],
                    t3_time=suite.times["T3-MCA"]))
    if trace_out is not None and selected:
        sub = selected[0]
        save_case_trace(sub, FAST_SCALE if fast else 1,
                        table1_system(n_gpus=sub.tp),
                        _plan_for("straggler", list(straggler_factors)[-1]),
                        trace_out)
    return result
