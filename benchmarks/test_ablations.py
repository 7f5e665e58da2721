"""Ablations over T3's design choices (Sections 4.5, 7.1, 7.4, 7.8).

Each benchmark isolates one knob on the T-NLG FC-2 (TP=8) sub-layer:

* MCA occupancy threshold (5 / 10 / 30 / unlimited),
* staggered vs. unstaggered WG scheduling,
* NMC op-and-store cost (CCDWL factor; ~system-wide atomics at 4x),
* operand-fetch wave count (contention coupling),
* ring vs. direct (fully-connected) reduce-scatter fusion,
* a slow inter-node link (Section 7.8).
"""

import dataclasses

from repro.config import MCAConfig, table1_system
from repro.experiments.common import scaled_shape
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import FullyConnectedTopology, RingTopology
from repro.models import zoo
from repro.sim import Environment
from repro.t3.fusion import FusedGEMMRS


def fc2_shape(scale=8):
    return scaled_shape(zoo.t_nlg().sublayer("FC-2", 8).gemm, scale)


def run_fused(system, shape, policy="compute-priority", topo_cls=RingTopology,
              **kwargs):
    env = Environment()
    topo = topo_cls(env, system, policy_name=policy)
    fused = FusedGEMMRS(topo, shape, **kwargs)
    result = fused.run()
    return topo, result


def test_ablation_mca_thresholds(run_once):
    """Stricter occupancy gates protect the GEMM; the unlimited gate
    degenerates to compute-priority."""

    def sweep():
        shape = fc2_shape()
        durations = {}
        for threshold in (5, 10, 30, None):
            base = table1_system(n_gpus=8)
            mca = MCAConfig(occupancy_thresholds=(threshold,),
                            intensity_breakpoints=())
            system = base.replace(mca=mca)
            _topo, result = run_fused(system, shape, policy="mca",
                                      calibrate_mca=True)
            durations[threshold] = result.duration
        return durations

    durations = run_once(sweep)
    print("\nMCA threshold ablation (fused GEMM+RS span, us):")
    for threshold, duration in durations.items():
        print(f"  threshold={str(threshold):>5}: {duration / 1e3:8.1f}us")
    spread = max(durations.values()) / min(durations.values())
    assert spread < 1.3  # all thresholds complete sanely
    assert all(d > 0 for d in durations.values())


def test_ablation_stagger(run_once):
    """Section 4.4: staggered chunk production must never lose to the
    unstaggered schedule (every device producing chunk 0 first)."""

    def sweep():
        shape = fc2_shape()
        system = table1_system(n_gpus=8)
        out = {}
        for stagger in (True, False):
            _topo, result = run_fused(system, shape, stagger=stagger)
            out[stagger] = result.duration
        return out

    durations = run_once(sweep)
    print(f"\nstagger=True:  {durations[True] / 1e3:.1f}us")
    print(f"stagger=False: {durations[False] / 1e3:.1f}us")
    assert durations[True] <= durations[False] * 1.02


def test_ablation_nmc_cost(run_once):
    """Section 7.4: T3 tolerates costlier reduction substrates.  CCDWL 1x
    (free updates) -> 2x (NMC) -> 4x (~system-wide atomics)."""

    def sweep():
        shape = fc2_shape()
        out = {}
        for factor in (1.0, 2.0, 4.0):
            base = table1_system(n_gpus=8)
            system = base.replace(memory=dataclasses.replace(
                base.memory, nmc_ccdwl_factor=factor))
            _topo, result = run_fused(system, shape)
            out[factor] = result.duration
        return out

    durations = run_once(sweep)
    print("\nNMC op-and-store cost ablation:")
    for factor, duration in durations.items():
        print(f"  CCDWL={factor:.0f}x: {duration / 1e3:8.1f}us")
    assert durations[1.0] <= durations[2.0] <= durations[4.0] * 1.001
    # Even 4x updates keep the fused span within ~40% of the 1x case.
    assert durations[4.0] < durations[1.0] * 1.4


def test_ablation_fetch_waves(run_once):
    """Tighter fetch/compute coupling exposes more contention."""

    def sweep():
        shape = fc2_shape()
        out = {}
        for waves in (1, 4, 16):
            system = table1_system(n_gpus=8).with_fidelity(
                gemm_waves_per_stage=waves)
            _topo, result = run_fused(system, shape)
            out[waves] = result.duration
        return out

    durations = run_once(sweep)
    print("\nfetch-wave ablation:")
    for waves, duration in durations.items():
        print(f"  waves={waves:>2}: {duration / 1e3:8.1f}us")
    assert all(d > 0 for d in durations.values())


def test_ablation_ring_vs_direct(run_once):
    """Section 7.1: on a fully-connected node, direct-RS eliminates the
    collective's DRAM traffic entirely."""

    def sweep():
        shape = GEMMShape(2048, 1024, 1024)
        system = table1_system(n_gpus=8).with_fidelity(
            quantum_bytes=32 * 1024)
        ring_topo, ring_result = run_fused(system, shape)
        direct_topo, direct_result = run_fused(
            system, shape, topo_cls=FullyConnectedTopology,
            collective="direct-rs")
        return {
            "ring_bytes": ring_topo.gpus[0].mc.total_bytes(),
            "direct_bytes": direct_topo.gpus[0].mc.total_bytes(),
            "ring_us": ring_result.duration / 1e3,
            "direct_us": direct_result.duration / 1e3,
        }

    out = run_once(sweep)
    print(f"\nring-RS fusion:   {out['ring_us']:8.1f}us "
          f"{out['ring_bytes'] / 1e6:7.0f}MB DRAM")
    print(f"direct-RS fusion: {out['direct_us']:8.1f}us "
          f"{out['direct_bytes'] / 1e6:7.0f}MB DRAM")
    assert out["direct_bytes"] < out["ring_bytes"]


def test_ablation_slow_internode_link(run_once):
    """Section 7.8: with a 4x slower link, communication dominates and
    T3's win shrinks to hiding the GEMM — but it still wins."""
    from repro.experiments.common import run_sublayer_suite

    def sweep():
        shape = fc2_shape()
        out = {}
        for name, bw_scale in (("intra-node", 1.0), ("inter-node", 0.25)):
            base = table1_system(n_gpus=8)
            system = base.replace(link=dataclasses.replace(
                base.link, bandwidth=base.link.bandwidth * bw_scale))
            suite = run_sublayer_suite(system, shape,
                                       configs=["Sequential", "T3-MCA"])
            out[name] = suite.speedup("T3-MCA")
        return out

    speedups = run_once(sweep)
    print(f"\nT3-MCA speedup intra-node: {speedups['intra-node']:.3f}x")
    print(f"T3-MCA speedup inter-node: {speedups['inter-node']:.3f}x")
    assert speedups["intra-node"] > speedups["inter-node"] > 1.0
