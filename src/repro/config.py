"""System configuration — the Python rendering of the paper's Table 1.

All defaults reproduce the simulated system of the paper:

* 8/16 GPUs on a ring, 150 GB/s per-direction link bandwidth, 500 ns link
  latency;
* 80 CUs @ 1.4 GHz per GPU, 16 MiB LLC;
* HBM2 @ 1 TB/s with near-memory-compute (NMC) op-and-store whose
  column-to-column delay is doubled (CCDWL = 2 x CCDL).

Everything an experiment can vary is a field on one of these frozen
dataclasses; experiments construct variants with ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import units


class _SerializableConfig:
    """Mixin: stable dict round-tripping for the frozen config dataclasses.

    ``to_dict`` recurses via ``dataclasses.asdict`` and yields only
    JSON-serializable values; classes with tuple-valued or nested fields
    override ``from_dict`` to restore the exact constructor types.
    """

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        return cls(**data)

    def content_hash(self) -> str:
        """Stable hex digest of the full configuration *content*.

        Two configs constructed independently but holding equal values
        hash identically, which makes the digest safe to use as a cache
        key (unlike ``hash()``, which is also process-seeded for strings).
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: (rule, test) for the count, positive, non-negative and fraction field
#: groups.  Every test is false for NaN.
_FIELD_RULES = ((">= 1", lambda v: v >= 1),
                ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
                ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
                ("in [0, 1]", lambda v: 0 <= v <= 1))


def _check_fields(config, counts: Tuple[str, ...] = (),
                  positive: Tuple[str, ...] = (),
                  non_negative: Tuple[str, ...] = (),
                  fractions: Tuple[str, ...] = ()) -> None:
    """Reject values a run would only trip over later: counts below 1,
    rates, bandwidths, factors (> 0), latencies and limits (>= 0) that
    are not finite, and fractions outside [0, 1].  Raises ``ValueError``
    naming the field."""
    for attrs, (rule, holds) in zip((counts, positive, non_negative,
                                     fractions), _FIELD_RULES):
        for attr in attrs:
            value = getattr(config, attr)
            if not holds(value):
                raise ValueError(f"{type(config).__name__}.{attr} must be "
                                 f"{rule}; got {value!r}")


@dataclass(frozen=True)
class ComputeConfig(_SerializableConfig):
    """Per-GPU compute resources (Table 1, "Per-GPU Config")."""

    n_cus: int = 80
    clock_ghz: float = 1.4
    threads_per_cu: int = 2048
    #: peak matrix FLOPs (FP16 FMA counted as 2 FLOPs) per CU per cycle.
    flops_per_cu_per_cycle: float = 1024.0
    #: fraction of peak a well-tuned BLAS GEMM sustains.
    gemm_efficiency: float = 0.85
    #: element-wise reduction throughput a single CU sustains (bytes moved
    #: per cycle, reads + writes).  Calibrated so a ring-RS restricted to
    #: 8 CUs slows ~1.4x versus all 80 CUs (the paper's Figure 6 study).
    reduce_bytes_per_cu_per_cycle: float = 14.0

    def __post_init__(self) -> None:
        _check_fields(self, counts=("n_cus", "threads_per_cu"),
                      positive=("clock_ghz", "flops_per_cu_per_cycle",
                                "gemm_efficiency",
                                "reduce_bytes_per_cu_per_cycle"))

    @property
    def peak_flops_per_ns(self) -> float:
        """Peak FP16 throughput in FLOP/ns (== TFLOP/s / 1000 * 1000)."""
        return self.n_cus * self.flops_per_cu_per_cycle * self.clock_ghz

    @property
    def sustained_gemm_flops_per_ns(self) -> float:
        return self.peak_flops_per_ns * self.gemm_efficiency

    def reduce_bandwidth(self, n_cus: Optional[int] = None) -> float:
        """Sustained element-wise reduce bandwidth (bytes/ns) on ``n_cus``."""
        cus = self.n_cus if n_cus is None else n_cus
        return cus * self.reduce_bytes_per_cu_per_cycle * self.clock_ghz


@dataclass(frozen=True)
class MemoryConfig(_SerializableConfig):
    """LLC + HBM parameters (Table 1)."""

    llc_bytes: int = 16 * units.MiB
    llc_banks: int = 64
    hbm_bandwidth: float = units.tbps(1.0)  # bytes/ns
    #: number of *simulated* memory channels.  The paper's HBM2 has more
    #: physical channels; we aggregate them (DESIGN.md section 2) — what
    #: matters for T3 is per-queue arbitration dynamics, not channel count.
    n_channels: int = 8
    dram_queue_depth: int = 32
    #: fraction of peak pin bandwidth HBM sustains under real access mixes
    #: (refresh, bank conflicts, read/write turnaround).
    dram_efficiency: float = 0.65
    #: CCDWL / CCDL ratio: NMC op-and-store costs twice the column delay.
    nmc_ccdwl_factor: float = 2.0
    #: fraction of LLC effectively available to GEMM *inputs* when output
    #: writes are cached (baseline) vs bypassed to DRAM (T3, Section 6.2).
    llc_input_fraction_cached_writes: float = 0.5
    llc_input_fraction_bypassed_writes: float = 1.0
    #: LLC reuse model (see repro.memory.cache): hit probability for a
    #: buffer revisited across GEMM stages is (budget / working_set) **
    #: ``llc_hit_exponent``, and re-reads happen for at most
    #: ``llc_reuse_window_stages`` subsequent stages (beyond that, kernel
    #: K-blocking captures the reuse).
    llc_hit_exponent: float = 1.0
    llc_reuse_window_stages: int = 8

    def __post_init__(self) -> None:
        # A reuse window of 0 stages means no re-reads at all.
        _check_fields(self, counts=("llc_banks", "n_channels",
                                    "dram_queue_depth"),
                      positive=("hbm_bandwidth", "dram_efficiency",
                                "nmc_ccdwl_factor", "llc_hit_exponent"),
                      non_negative=("llc_bytes", "llc_reuse_window_stages"),
                      fractions=("llc_input_fraction_cached_writes",
                                 "llc_input_fraction_bypassed_writes"))

    @property
    def effective_bandwidth(self) -> float:
        """Sustained HBM bandwidth (bytes/ns) under real access mixes."""
        return self.hbm_bandwidth * self.dram_efficiency

    @property
    def channel_bandwidth(self) -> float:
        return self.effective_bandwidth / self.n_channels


@dataclass(frozen=True)
class LinkConfig(_SerializableConfig):
    """Inter-GPU ring interconnect (Table 1).

    The paper's node supports a "150 GB/s bi-directional" ring; each
    direction therefore sustains 75 GB/s, which is what a ring collective
    step is limited by.
    """

    #: per-direction link bandwidth in bytes/ns.
    bandwidth: float = units.gbps(75.0)
    latency_ns: float = 500.0

    def __post_init__(self) -> None:
        _check_fields(self, positive=("bandwidth",),
                      non_negative=("latency_ns",))

    @property
    def bidirectional_bandwidth(self) -> float:
        return 2.0 * self.bandwidth


@dataclass(frozen=True)
class GEMMKernelConfig(_SerializableConfig):
    """Parametric tiled-GEMM kernel shape (Section 2.5 / Figure 5).

    Each workgroup (WG) produces one complete ``macro_tile_m x macro_tile_n``
    output tile; the WG's ``wfs_per_wg`` wavefronts each produce a
    contiguous ``wf_tile`` slice of it, matching the tiled BLAS kernels the
    paper evaluates (and assumes for Tracker bookkeeping).
    """

    macro_tile_m: int = 128
    macro_tile_n: int = 128
    wfs_per_wg: int = 4
    wgs_per_cu: int = 1
    element_bytes: int = units.FP16_BYTES

    def __post_init__(self) -> None:
        _check_fields(self, counts=("macro_tile_m", "macro_tile_n",
                                    "wfs_per_wg", "wgs_per_cu",
                                    "element_bytes"))

    @property
    def wf_tile_elems(self) -> int:
        return (self.macro_tile_m * self.macro_tile_n) // self.wfs_per_wg

    def wgs_per_stage(self, n_cus: int) -> int:
        return n_cus * self.wgs_per_cu


@dataclass(frozen=True)
class TrackerConfig(_SerializableConfig):
    """T3's track & trigger hardware structure (Section 4.2.1)."""

    n_entries: int = 256
    ways: int = 8
    wf_id_bits: int = 3  # max 8 WFs per WG
    #: Tracker storage reported by the paper.
    size_bytes: int = 19 * units.KiB

    def __post_init__(self) -> None:
        _check_fields(self, counts=("n_entries", "ways"))


@dataclass(frozen=True)
class MCAConfig(_SerializableConfig):
    """Communication-aware memory-controller arbitration (Section 4.5)."""

    #: candidate DRAM-queue occupancy thresholds; MCA picks one per kernel
    #: based on the kernel's observed memory intensity.
    occupancy_thresholds: Tuple[Optional[int], ...] = (5, 10, 30, None)
    #: memory-intensity breakpoints (fraction of peak DRAM bandwidth the
    #: compute kernel demands) mapping to the thresholds above.
    intensity_breakpoints: Tuple[float, ...] = (0.75, 0.5, 0.25)
    #: cycles-since-last-communication-issue after which the communication
    #: stream is force-prioritized to avoid starvation.
    starvation_limit_ns: float = 2000.0

    def __post_init__(self) -> None:
        # The intensity->threshold mapping walks breakpoints and thresholds
        # pairwise and falls through to the *last* threshold, so exactly
        # one more threshold than breakpoints must exist.  A silent length
        # mismatch either dropped candidate thresholds or made some
        # breakpoints unreachable.
        if len(self.occupancy_thresholds) != \
                len(self.intensity_breakpoints) + 1:
            raise ValueError(
                f"MCAConfig needs exactly one more occupancy threshold "
                f"than intensity breakpoint (the last threshold is the "
                f"below-all-breakpoints fallback); got "
                f"{len(self.occupancy_thresholds)} thresholds for "
                f"{len(self.intensity_breakpoints)} breakpoints")
        if any(b2 >= b1 for b1, b2 in zip(self.intensity_breakpoints,
                                          self.intensity_breakpoints[1:])):
            raise ValueError(
                "MCAConfig intensity_breakpoints must be strictly "
                f"decreasing (first match wins); got "
                f"{self.intensity_breakpoints}")
        _check_fields(self, non_negative=("starvation_limit_ns",))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MCAConfig":
        data = dict(data)
        data["occupancy_thresholds"] = tuple(data["occupancy_thresholds"])
        data["intensity_breakpoints"] = tuple(data["intensity_breakpoints"])
        return cls(**data)


#: overlap-policy kinds selectable through configuration.  "recorded"
#: additionally needs a decision-log path (``decision_log_path``).
OVERLAP_POLICY_KINDS = ("static", "adaptive", "recorded")

_DEFAULT_POLICY_KIND = "static"


def set_default_overlap_policy(kind: str) -> str:
    """Set the process-wide default overlap-policy kind.

    Newly constructed :class:`OverlapPolicyConfig` (and therefore
    :class:`SystemConfig`) instances pick this up via the ``kind``
    default factory — the hook the runner's ``--policy`` flag uses so
    every experiment module sees the selection without flag plumbing.
    Returns the previous default so callers can restore it.
    """
    if kind not in OVERLAP_POLICY_KINDS:
        raise ValueError(f"unknown overlap policy kind {kind!r}; pick "
                         f"from {OVERLAP_POLICY_KINDS}")
    global _DEFAULT_POLICY_KIND
    previous = _DEFAULT_POLICY_KIND
    _DEFAULT_POLICY_KIND = kind
    return previous


def default_overlap_policy_kind() -> str:
    return _DEFAULT_POLICY_KIND


@dataclass(frozen=True)
class OverlapPolicyConfig(_SerializableConfig):
    """Selection + tuning of the overlap-policy layer (``repro.policy``).

    Every field is a scalar so the config stays hashable and lands in
    the sweep-cache key via ``SystemConfig.to_dict`` — two runs that
    differ only in policy never collide in the cache.  The controller
    knobs only matter for ``kind="adaptive"``; see ``docs/adaptive.md``
    for the controller design they parameterize.
    """

    kind: str = field(default_factory=default_overlap_policy_kind)
    #: EWMA smoothing factor for the deferral / occupancy signals.
    ewma_alpha: float = 0.1
    #: minimum time between threshold retunes at one arbiter site.
    retune_interval_ns: float = 1000.0
    #: gate-deferral EWMA above which the occupancy threshold is relaxed
    #: one step (comm is being held back while compute is absent).
    relax_watermark: float = 0.15
    #: gate-deferral EWMA below which a relaxed threshold decays one step
    #: back toward the static per-kernel pick.
    tighten_watermark: float = 0.02
    #: max inter-slice gap the DMA pacer may insert (0 disables pacing).
    pacing_max_gap_ns: float = 0.0
    #: per-GPU occupancy-fraction EWMA above which pacing kicks in.
    pacing_occupancy_watermark: float = 0.85
    #: max trigger-fire delay under tracker pressure (0 = fire eagerly).
    eagerness_max_delay_ns: float = 0.0
    #: capture a replayable DecisionLog of every tunable decision.
    record_decisions: bool = False
    #: decision log to replay (required for ``kind="recorded"``).
    decision_log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in OVERLAP_POLICY_KINDS:
            raise ValueError(f"unknown overlap policy kind {self.kind!r}; "
                             f"pick from {OVERLAP_POLICY_KINDS}")
        if self.kind == "recorded" and not self.decision_log_path:
            raise ValueError("kind='recorded' needs a decision_log_path "
                             "to replay")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not self.retune_interval_ns > 0:
            raise ValueError("retune_interval_ns must be positive")
        if not 0.0 <= self.tighten_watermark < self.relax_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 <= tighten < relax <= 1; got "
                f"tighten={self.tighten_watermark}, "
                f"relax={self.relax_watermark}")
        if not (math.isfinite(self.pacing_max_gap_ns)
                and self.pacing_max_gap_ns >= 0):
            raise ValueError("pacing_max_gap_ns must be finite and >= 0")
        if not 0.0 <= self.pacing_occupancy_watermark < 1.0:
            raise ValueError("pacing_occupancy_watermark must be in [0, 1)")
        if not (math.isfinite(self.eagerness_max_delay_ns)
                and self.eagerness_max_delay_ns >= 0):
            raise ValueError("eagerness_max_delay_ns must be finite and >= 0")


@dataclass(frozen=True)
class FidelityConfig(_SerializableConfig):
    """Event-granularity knobs for the discrete-event simulator.

    ``quantum_bytes`` is the size of one simulated memory transaction
    (Accel-Sim models 32B sectors; we batch to keep Python fast — see
    DESIGN.md section 2).
    """

    quantum_bytes: int = 64 * units.KiB
    #: operand-fetch waves per GEMM stage: real kernels double-buffer at
    #: K-slab granularity, so reads are due shortly before the compute
    #: that consumes them.  More waves = tighter coupling = more exposure
    #: to memory contention (the Figure 17 stall mechanism).
    gemm_waves_per_stage: int = 16
    #: record (time, bytes) samples for traffic timelines (Figure 17).
    record_traffic: bool = False

    def __post_init__(self) -> None:
        _check_fields(self, counts=("quantum_bytes",
                                    "gemm_waves_per_stage"))


@dataclass(frozen=True)
class SystemConfig(_SerializableConfig):
    """A complete simulated multi-GPU node."""

    n_gpus: int = 8
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    gemm: GEMMKernelConfig = field(default_factory=GEMMKernelConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    mca: MCAConfig = field(default_factory=MCAConfig)
    fidelity: FidelityConfig = field(default_factory=FidelityConfig)
    policy: OverlapPolicyConfig = field(default_factory=OverlapPolicyConfig)

    def __post_init__(self) -> None:
        if self.n_gpus < 2:
            raise ValueError("a multi-GPU system needs at least 2 GPUs")

    def replace(self, **kwargs) -> "SystemConfig":
        """Shallow ``dataclasses.replace`` convenience."""
        return dataclasses.replace(self, **kwargs)

    def with_fidelity(self, **kwargs) -> "SystemConfig":
        return self.replace(fidelity=dataclasses.replace(self.fidelity, **kwargs))

    def with_policy(self, kind: Optional[str] = None,
                    **kwargs) -> "SystemConfig":
        """Overlap-policy variant (``with_fidelity``'s sibling)."""
        if kind is not None:
            kwargs["kind"] = kind
        return self.replace(policy=dataclasses.replace(self.policy, **kwargs))

    def scaled_compute(self, factor: float) -> "SystemConfig":
        """The paper's GPU-2X-CU future-hardware study (Section 7.5)."""
        new_cus = int(round(self.compute.n_cus * factor))
        return self.replace(
            compute=dataclasses.replace(self.compute, n_cus=new_cus)
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        return cls(
            n_gpus=data["n_gpus"],
            compute=ComputeConfig.from_dict(data["compute"]),
            memory=MemoryConfig.from_dict(data["memory"]),
            link=LinkConfig.from_dict(data["link"]),
            gemm=GEMMKernelConfig.from_dict(data["gemm"]),
            tracker=TrackerConfig.from_dict(data["tracker"]),
            mca=MCAConfig.from_dict(data["mca"]),
            fidelity=FidelityConfig.from_dict(data["fidelity"]),
            # Payloads written before the policy layer existed lack the
            # key; restore them with the static-paper default.
            policy=(OverlapPolicyConfig.from_dict(data["policy"])
                    if "policy" in data else OverlapPolicyConfig("static")),
        )


def table1_system(n_gpus: int = 8, **fidelity_kwargs) -> SystemConfig:
    """The paper's Table 1 system, with optional fidelity overrides."""
    cfg = SystemConfig(n_gpus=n_gpus)
    if fidelity_kwargs:
        cfg = cfg.with_fidelity(**fidelity_kwargs)
    return cfg
