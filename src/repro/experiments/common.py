"""The sub-layer experiment driver shared by Figures 15-18.

For one sliced sub-layer (a GEMM + its all-reduce), run every Section 5.3
configuration and collect times + DRAM traffic:

* **Sequential** — co-simulate the GEMM on all GPUs, then ring-RS, then
  ring-AG (each kernel serialized, as on today's GPUs);
* **T3** — fused GEMM-RS (compute-priority arbitration) + sequential AG;
* **T3-MCA** — fused GEMM-RS with the MCA policy + sequential AG;
* **Ideal-GEMM-RS-Overlap** — ``max(GEMM, RS)`` of the *isolated*
  simulated times + AG (no contention, Section 5.3);
* **Ideal-RS+NMC** — ``max(GEMM, RS_NMC)`` + AG, where RS_NMC is the
  closed-form near-memory-compute RS.

The suite is the unit every sub-layer figure reduces over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.traffic import DramBreakdown, collect_breakdown
from repro.collectives.baseline import PlannedReduceScatter, RingAllGather
from repro.collectives.api import rs_with_nmc_time
from repro.collectives.plan import ring_reduce_scatter_plan, rotation_period
from repro.config import SystemConfig
from repro.faults import FaultInjector, FaultPlan, InvariantChecker
from repro.gpu.gemm import run_plain_gemms
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import (
    HierarchicalRingTopology,
    PeriodicRingTopology,
    RingTopology,
)
from repro.models.transformer import SubLayer
from repro.models import zoo
from repro.obs.rotation import rotate_out
from repro.resilience import ResiliencePolicy, ResilienceRuntime
from repro.sim import Environment
from repro.t3.configs import CONFIGS, config_by_name
from repro.t3.fusion import FusedGEMMRS

#: every configuration name ``run_sublayer_suite`` understands, in the
#: Section 5.3 order.  Requests are validated against this set so a typo
#: (e.g. ``"T3-mca"``) fails immediately instead of surfacing later as a
#: ``KeyError`` in ``SublayerSuite.speedup``.
KNOWN_CONFIG_NAMES: Tuple[str, ...] = tuple(c.name for c in CONFIGS)


@dataclass
class SublayerSuite:
    """All configuration results for one sub-layer."""

    label: str
    shape: GEMMShape
    system: SystemConfig
    #: isolated kernel times (the Figure 15 distribution).
    gemm_time: float = 0.0
    rs_time: float = 0.0
    ag_time: float = 0.0
    #: config name -> total GEMM+RS+AG time.
    times: Dict[str, float] = field(default_factory=dict)
    #: config name -> per-GPU DRAM breakdown.
    traffic: Dict[str, DramBreakdown] = field(default_factory=dict)

    def speedup(self, config: str) -> float:
        return self.times["Sequential"] / self.times[config]

    def data_movement_reduction(self, config: str = "T3-MCA") -> float:
        """Fractional DRAM traffic saved vs Sequential (Figure 18)."""
        base = self.traffic["Sequential"].total
        new = self.traffic[config].total
        return 1.0 - new / base

    # -- serialization (the on-disk sweep cache payload) --------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "shape": self.shape.to_dict(),
            "system": self.system.to_dict(),
            "gemm_time": self.gemm_time,
            "rs_time": self.rs_time,
            "ag_time": self.ag_time,
            "times": dict(self.times),
            "traffic": {name: bd.as_dict()
                        for name, bd in self.traffic.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SublayerSuite":
        return cls(
            label=data["label"],
            shape=GEMMShape.from_dict(data["shape"]),
            system=SystemConfig.from_dict(data["system"]),
            gemm_time=data["gemm_time"],
            rs_time=data["rs_time"],
            ag_time=data["ag_time"],
            times=dict(data["times"]),
            traffic={name: DramBreakdown.from_dict(bd)
                     for name, bd in data["traffic"].items()},
        )


def scaled_shape(shape: GEMMShape, scale: int, min_m: int = 256) -> GEMMShape:
    """Shrink the token (M) dimension for fast runs; K/N untouched so the
    compute-vs-communication balance is preserved.  ``min_m`` keeps the
    output chunkable (ring fusion needs >= one tile row per device).

    The unscaled ``shape`` must itself satisfy ``min_m`` — a shape whose M
    is already below the floor cannot be chunked into enough tile rows no
    matter the scale, and silently clamping (the old behavior) let ring
    fusion fail much later with an opaque error.
    """
    if shape.m < min_m:
        raise ValueError(
            f"GEMM shape {shape.name or shape} has m={shape.m} < min_m="
            f"{min_m}: the output cannot be chunked into enough macro-tile "
            f"rows for ring fusion; reduce tp, enlarge the batch/sequence, "
            f"or shrink the kernel's macro_tile_m")
    if scale <= 1:
        return shape
    new_m = max(shape.m // scale, min_m, 256)
    return dataclasses.replace(shape, m=min(new_m, shape.m))


def _ring_period(system: SystemConfig,
                 shape: GEMMShape) -> Optional[Tuple[int, int]]:
    """``(period, WGs per chunk)`` of the fused runs' ring on ``shape`` when
    fewer ranks than the ring's reproduce it
    (:func:`~repro.collectives.plan.rotation_period`), else None."""
    n = system.n_gpus
    grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
    period = rotation_period(
        ring_reduce_scatter_plan(n, max_chunks=grid.n_wgs), grid.n_wgs,
        grid.tiles_n, shape.output_bytes)
    return (period, grid.n_wgs // n) if period < n else None


def _sequential_period(system: SystemConfig,
                       shape: GEMMShape) -> Optional[Tuple[int, int]]:
    """The Sequential run's ``ring``: its GEMM is not chunked, so every
    rank repeats rank 0 whenever the ring RS/AG cut the output into
    equal-byte chunks.  Their writes label each chunk's one WG with the
    chunk id, so a chunk is one WG wide."""
    return (1, 1) if shape.output_bytes % system.n_gpus == 0 else None


def _fresh_topology(system: SystemConfig, policy: str,
                    record_traffic: bool = False,
                    faults: Optional[FaultPlan] = None,
                    check_invariants: bool = False,
                    obs=None,
                    resilience=None,
                    trace=None,
                    ring: Optional[Tuple[int, int]] = None,
                    gpus_per_node: Optional[int] = None,
                    watchdog_events: Optional[int] = None,
                    ) -> RingTopology:
    """A fresh environment and ring with the given attachments; the
    environment is the returned topology's ``env``.

    ``resilience`` is falsy (off), ``True`` (default policy) or a
    :class:`~repro.resilience.ResiliencePolicy`; its runtime
    (``env.resilience``) attaches before the topology wires, so static
    link degradation reaches its fault-observed feed.  A
    ``gpus_per_node`` below ``system.n_gpus`` groups the ring into nodes
    (:class:`HierarchicalRingTopology`), and ``watchdog_events`` bounds
    the run's engine events.

    ``ring`` (from :func:`_ring_period`) asks for one rotation period of
    the ring.  It is honoured only when nothing that tells ranks apart is
    attached: a fault plan, the invariant checker, the resilience
    runtime, traffic recording, an adaptive or logged policy, or nodes.
    Those runs keep every rank, the oracle the one-period run is checked
    against.
    """
    env = Environment()
    if watchdog_events is not None:
        env.configure_watchdog(max_events=watchdog_events)
    if obs is not None:
        env.obs = obs
    if trace is not None:
        env.trace = trace
    if faults is not None:
        env.faults = FaultInjector(faults)
        env.faults.bind_env(env)
        if obs is not None:
            env.faults.bind_obs(obs)
    if check_invariants:
        env.invariants = InvariantChecker(env)
    if resilience:
        ResilienceRuntime(resilience if isinstance(
            resilience, ResiliencePolicy) else None).attach(env)
    if record_traffic:
        system = system.with_fidelity(record_traffic=True)
    if gpus_per_node not in (None, system.n_gpus):
        return HierarchicalRingTopology(env, system,
                                        gpus_per_node=gpus_per_node,
                                        policy_name=policy)
    symmetric = (faults is None and not check_invariants and not resilience
                 and not record_traffic and system.policy.kind == "static"
                 and not system.policy.record_decisions)
    if ring is not None and symmetric:
        return PeriodicRingTopology(env, system, *ring, policy_name=policy)
    return RingTopology(env, system, policy_name=policy)


def _finish(topo: RingTopology, unrotated_labels=()) -> None:
    """Check the run's invariants, then give the ring ranks a one-period
    run did not simulate its registry and trace records
    (:func:`~repro.obs.rotation.rotate_out`), so both present what the
    full ring records."""
    env = topo.env
    if env.invariants is not None:
        env.invariants.check_all()
    if topo.n_simulated < topo.n_gpus:
        rotate_out(topo.n_gpus, topo.n_simulated, env.obs, env.trace,
                   unrotated_labels)


def _run_sequential(topo: RingTopology, shape: GEMMShape,
                    all_gather: bool = True
                    ) -> Tuple[float, float, float]:
    """GEMM on every GPU, then the plan-driven reduce-scatter (the
    two-phase plan on nodes), then the ring all-gather unless
    ``all_gather`` is off; returns the GEMM, RS and AG times (AG 0.0
    when skipped)."""
    gemm_time = run_plain_gemms(topo, shape)
    rs_time = PlannedReduceScatter(topo, shape.output_bytes).run().duration
    ag_time = (RingAllGather(topo, shape.output_bytes).run().duration
               if all_gather else 0.0)
    # The plain GEMM's one-chunk grid writes "chunk 0" on every rank.
    _finish(topo, unrotated_labels=("gemm",))
    return gemm_time, rs_time, ag_time


def _run_fused(topo: RingTopology, shape: GEMMShape, calibrate_mca: bool,
               all_gather: bool = True) -> Tuple[FusedGEMMRS, float]:
    """The fused GEMM-RS, then the ring all-gather unless ``all_gather``
    is off; returns the fused kernel and the total time."""
    fused = FusedGEMMRS(topo, shape, calibrate_mca=calibrate_mca)
    total = fused.run().duration
    if all_gather:
        total += RingAllGather(topo, shape.output_bytes).run().duration
    _finish(topo)
    return fused, total


def run_sublayer_suite(system: SystemConfig, shape: GEMMShape,
                       label: str = "",
                       configs: Optional[List[str]] = None,
                       record_traffic: bool = False,
                       faults: Optional[FaultPlan] = None,
                       check_invariants: bool = False,
                       obs_sink: Optional[Dict[str, object]] = None,
                       resilience=None,
                       trace_sink: Optional[Dict[str, object]] = None,
                       ) -> SublayerSuite:
    """Run every requested configuration on one sub-layer GEMM shape.

    ``faults`` injects a :class:`~repro.faults.FaultPlan` into every
    simulated configuration (each gets a fresh, identically-seeded
    injector); ``check_invariants`` attaches an
    :class:`~repro.faults.InvariantChecker` to every run.  Both are
    observationally transparent when the plan is empty / checks pass.

    ``obs_sink`` (a mutable mapping) opts into telemetry: each simulated
    configuration runs with a fresh
    :class:`~repro.obs.MetricsRegistry` attached, stored into the sink
    under the configuration name.  Registries are recorded per-run and
    are not cacheable, so profiled suites must bypass the sweep cache
    (see ``repro.experiments.profile``).  Recording is passive: the
    returned suite is identical with or without a sink.  A run of one
    rotation period of the ring copies its scopes out to the ranks it
    did not simulate (:func:`~repro.obs.rotation.rotate_out`), so each
    registry holds what the full ring records.

    ``resilience`` (falsy, ``True``, or a
    :class:`~repro.resilience.ResiliencePolicy`) attaches a
    :class:`~repro.resilience.ResilienceRuntime` to every run.  The
    runtime stays dormant — and the suite byte-identical — until a fault
    actually manifests, at which point it recovers lost DMA completions
    and evicted Tracker regions in-run.

    ``trace_sink`` mirrors ``obs_sink`` for execution traces: each
    simulated configuration runs with a fresh decomposition-grade
    :class:`~repro.analysis.trace.TraceRecorder` (``record_dram=True``)
    attached, stored under the configuration name.  Like registries,
    recorders are per-run state — traced suites must bypass the sweep
    cache — and cover every rank: on a one-period run
    ``recorder.spans`` holds the simulated ranks' spans, and
    ``recorder.ring_spans()``, ``len``, ``save`` and
    :meth:`~repro.trace.TraceQuery.from_recorder` present the ring.
    """
    wanted = configs or list(KNOWN_CONFIG_NAMES)
    unknown = [name for name in wanted if name not in KNOWN_CONFIG_NAMES]
    if unknown:
        raise ValueError(
            f"unknown configuration name(s) {unknown!r}; choose from "
            f"{list(KNOWN_CONFIG_NAMES)}")

    def _topology(name: str, policy: str, ring):
        """A fresh machine for configuration ``name``, with its own
        registry and recorder stored into the sinks."""
        obs = trace = None
        if obs_sink is not None:
            from repro.obs import MetricsRegistry
            obs = obs_sink[name] = MetricsRegistry()
        if trace_sink is not None:
            from repro.analysis.trace import TraceRecorder
            trace = trace_sink[name] = TraceRecorder(record_dram=True)
        return _fresh_topology(system, policy, record_traffic, faults,
                               check_invariants, obs=obs,
                               resilience=resilience, trace=trace,
                               ring=ring)

    suite = SublayerSuite(label=label or shape.name, shape=shape,
                          system=system)
    # A rank-symmetric case asks for one rotation period of the ring: the
    # other ranks would repeat those with chunk ids shifted, so every
    # time and per-GPU average is unchanged, and registry and trace
    # records are copied out to them.  ``_fresh_topology`` keeps the
    # full ring when an attachment tells ranks apart.
    topo = _topology("Sequential", "compute-priority",
                     _sequential_period(system, shape))
    gemm_t, rs_t, ag_t = _run_sequential(topo, shape)
    suite.gemm_time, suite.rs_time, suite.ag_time = gemm_t, rs_t, ag_t
    suite.times["Sequential"] = gemm_t + rs_t + ag_t
    suite.traffic["Sequential"] = collect_breakdown(topo.gpus)

    ring = _ring_period(system, shape)
    for name in ("T3", "T3-MCA"):
        if name not in wanted:
            continue
        policy = config_by_name(name).mc_policy
        topo = _topology(name, policy, ring)
        _fused, suite.times[name] = _run_fused(topo, shape,
                                               policy == "mca")
        suite.traffic[name] = collect_breakdown(topo.gpus)

    if "Ideal-GEMM-RS-Overlap" in wanted:
        suite.times["Ideal-GEMM-RS-Overlap"] = max(gemm_t, rs_t) + ag_t
        suite.traffic["Ideal-GEMM-RS-Overlap"] = suite.traffic["Sequential"]
    if "Ideal-RS+NMC" in wanted:
        nmc_rs = rs_with_nmc_time(shape.output_bytes, system)
        suite.times["Ideal-RS+NMC"] = max(gemm_t, nmc_rs) + ag_t
        suite.traffic["Ideal-RS+NMC"] = suite.traffic["Sequential"]
    return suite


def run_sublayer(system: SystemConfig, sublayer: SubLayer,
                 config: str = "T3-MCA", scale: int = 1) -> SublayerSuite:
    """Public API entry: run one model sub-layer under one configuration
    (plus Sequential, which every speedup is measured against)."""
    shape = scaled_shape(sublayer.gemm, scale)
    configs = ["Sequential"] if config == "Sequential" else ["Sequential",
                                                             config]
    return run_sublayer_suite(system, shape, label=sublayer.label,
                              configs=configs)


def sublayer_cases(tp_degrees: Tuple[int, ...] = (8, 16),
                   models=None) -> List[SubLayer]:
    """The Figures 15/16/18 case list: OP/FC-2 (fwd) and FC-1/IP (bwd) of
    Mega-GPT-2 and T-NLG at TP = 8 and 16."""
    selected = models if models is not None else zoo.small_models()
    cases: List[SubLayer] = []
    for model in selected:
        for tp in tp_degrees:
            cases.extend(model.ar_sublayers(tp))
    return cases
