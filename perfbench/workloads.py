"""The four benchmark workloads, built only from the simulator's public API.

Each workload is a fixed list of ops (one op = one call into a public
entry point, timed from outside) plus what the benchmark checks and
derives from the ops' outputs:

* ``run(op)`` performs the op and returns its raw output;
* ``digest(op, output)`` reduces that output to a small JSON-able record
  outside the timed region; ``digest["fp"]`` is what is fingerprinted;
* ``check(op, digest)`` returns a failure reason or None (semantic checks
  beyond the golden fingerprint);
* ``quality(digests)`` derives the deterministic end-to-end fidelity
  figures, and ``sim_stats(digests)`` the simulated per-layer metrics.

The seed only permutes op order, except in ``chaos`` where it also picks
which scenario seeds are drawn (see :class:`Chaos`).
"""

from __future__ import annotations

import pathlib
import statistics
from typing import Dict, List, Optional

from repro import units
from repro.analysis.traffic import collect_breakdown
from repro.collectives import (PlannedReduceScatter, RingAllGather,
                               RingReduceScatter, ring_rs_time)
from repro.config import table1_system
from repro.experiments import chaos
from repro.experiments.sublayer_sweep import (FAST_SCALE, default_cases,
                                              simulate_case)
from repro.interconnect.topology import HierarchicalRingTopology, RingTopology
from repro.obs.profiler import profile_case
from repro.sim import Environment
from repro.trace.decomposition import decompose_query
from repro.trace.query import TraceQuery

from golden import fingerprint

#: the simulated configurations every grid op runs (the Ideal-* columns
#: of Figure 16 are closed forms, not simulations).
GRID_CONFIGS = ["Sequential", "T3", "T3-MCA"]

#: the paper's T3-MCA geomean sub-layer speedup (Figure 16).
PAPER_T3_MCA_GEOMEAN = 1.30

#: the case whose telemetry feeds the simulated per-layer metrics.
REPRESENTATIVE_CASE = "T-NLG/FC-2/TP8"

#: simulated per-layer metrics; each workload fills the ones its ops
#: exercise and reports 0 for layers that do no work in it.
SIM_STAT_NAMES = (
    "memory.dram_bytes", "memory.comm_deferrals", "memory.nmc_updates",
    "t3.overlap_eff", "t3.trigger_latency_p50_ns",
    "gpu.dma.bytes_triggered", "interconnect.link_bytes",
    "resilience.mttr_ns", "resilience.recoveries",
    "faults.baseline_survival",
)


class Op:
    """One unit of timed work: ``key`` names it in golden.json."""

    __slots__ = ("key", "size", "args")

    def __init__(self, key: str, size: float, args: tuple):
        self.key = key
        self.size = size
        self.args = args


def _results_table(root: pathlib.Path, name: str) -> List[List[str]]:
    """The whitespace-split rows of a checked-in ``results/`` table."""
    return [line.split() for line in
            (root / "results" / name).read_text().splitlines()]


def _registry_stats(registries: dict, profile) -> Dict[str, float]:
    """Simulated per-layer metrics of one telemetry-attached case."""
    latencies: List[float] = []
    stats = dict.fromkeys(SIM_STAT_NAMES, 0.0)
    for registry in registries.values():
        stats["memory.dram_bytes"] += (
            registry.counter_total("dram", "bytes.compute")
            + registry.counter_total("dram", "bytes.comm"))
        stats["memory.nmc_updates"] += registry.counter_total(
            "dram", "nmc_updates")
        stats["gpu.dma.bytes_triggered"] += registry.counter_total(
            "dma", "bytes_triggered")
        for scope in registry.scopes("arbiter"):
            stats["memory.comm_deferrals"] += sum(
                value for key, value in scope.counters.items()
                if key.startswith("comm_deferrals"))
        for scope in registry.scopes("link"):
            stats["interconnect.link_bytes"] += sum(
                value for key, value in scope.counters.items()
                if key.endswith(".bytes"))
        for scope in registry.scopes("tracker"):
            series = scope.get_series("trigger_latency_ns")
            if series is not None:
                latencies.extend(series.values)
    stats["t3.overlap_eff"] = \
        profile.configs["T3-MCA"].breakdown.overlap_efficiency
    stats["t3.trigger_latency_p50_ns"] = (statistics.median(latencies)
                                          if latencies else 0.0)
    return stats


def _telemetry_case(sub, system):
    """Simulate one case with a registry and a trace recorder attached to
    every configuration, then reduce both views to the overlap profile."""
    registries: dict = {}
    recorders: dict = {}
    suite = simulate_case(sub, FAST_SCALE, system, GRID_CONFIGS,
                          obs_sink=registries, trace_sink=recorders)
    profile = profile_case(suite.label, registries, times=suite.times)
    decompositions = {
        name: decompose_query(
            TraceQuery.from_recorder(recorders[name], registries[name]),
            total_ns=suite.times[name]).to_dict()
        for name in recorders}
    return suite, profile, decompositions, registries


class Workload:
    name = ""
    #: fewest passes per run: enough samples for a tail percentile and
    #: at least one repeat of every op.
    min_passes = 2
    #: reference seconds one pass takes; turns ``--seconds`` into passes.
    nominal_pass_s = 1.0
    #: whether every op must have a golden fingerprint.
    golden_everywhere = True

    def __init__(self, root: pathlib.Path, seed: int,
                 golden: Dict[str, Dict[str, str]]):
        self.root = root
        self.seed = seed
        self.golden = golden
        self.ops: List[Op] = self.build()

    def passes_for(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.nominal_pass_s))

    def warmup_op(self) -> Op:
        return min(self.ops, key=lambda op: op.size)

    def build(self) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def digest(self, op: Op, output) -> dict:
        raise NotImplementedError

    def check(self, op: Op, digest: dict) -> Optional[str]:
        return None

    def quality(self, digests: Dict[str, dict]) -> Dict[str, float]:
        return {}

    def sim_stats(self, digests: Dict[str, dict]) -> Dict[str, float]:
        return dict.fromkeys(SIM_STAT_NAMES, 0.0)


class PaperGrid(Workload):
    """The 16 fast Figure-16 cases under Sequential, T3 and T3-MCA, with
    nothing attached: what ``make results`` pays for."""

    name = "paper-grid"
    nominal_pass_s = 9.5

    def build(self) -> List[Op]:
        self.figure16 = {row[0]: row[1:] for row in
                         _results_table(self.root, "figure16.txt")
                         if row and "/TP" in row[0]}
        systems = {tp: table1_system(n_gpus=tp) for tp in (8, 16)}
        return [Op(sub.label, (sub.tp, sub.gemm.flops), (sub, systems[sub.tp]))
                for sub in self.cases()]

    def cases(self):
        return default_cases()

    def run(self, op: Op):
        sub, system = op.args
        return simulate_case(sub, FAST_SCALE, system, GRID_CONFIGS)

    def digest(self, op: Op, suite) -> dict:
        return {"fp": fingerprint(suite.to_dict()),
                "speedups": {name: suite.speedup(name)
                             for name in ("T3", "T3-MCA")}}

    def check(self, op: Op, digest: dict) -> Optional[str]:
        row = self.figure16.get(op.key)
        if row is None:
            return f"{op.key} is missing from results/figure16.txt"
        rendered = [f"{digest['speedups'][name]:.3f}"
                    for name in ("T3", "T3-MCA")]
        if rendered != row[:2]:
            return (f"speedups {rendered} differ from results/figure16.txt "
                    f"{row[:2]}")
        return None

    def quality(self, digests: Dict[str, dict]) -> Dict[str, float]:
        geomean = statistics.geometric_mean(
            d["speedups"]["T3-MCA"] for d in digests.values())
        return {"paper_gap": abs(geomean - PAPER_T3_MCA_GEOMEAN)
                / PAPER_T3_MCA_GEOMEAN}

    def sim_stats(self, digests: Dict[str, dict]) -> Dict[str, float]:
        # Nothing is attached to this workload's ops, so its simulated
        # statistics come from one extra telemetry run of the
        # representative case, outside every timed and profiled region.
        op = next(op for op in self.ops if op.key == REPRESENTATIVE_CASE)
        _suite, profile, _decomps, registries = _telemetry_case(*op.args)
        return _registry_stats(registries, profile)


class Telemetry(PaperGrid):
    """The TP=8 half of the grid with a metrics registry and a trace
    recorder attached, each case reduced by ``profile_case`` and by
    ``decompose_query`` over ``TraceQuery.from_recorder``."""

    name = "telemetry"
    min_passes = 3
    nominal_pass_s = 7.5

    def cases(self):
        return [sub for sub in default_cases() if sub.tp == 8]

    def run(self, op: Op):
        return _telemetry_case(*op.args)

    def digest(self, op: Op, output) -> dict:
        suite, profile, decompositions, registries = output
        digest = {
            "fp": fingerprint({"profile": profile.to_dict(),
                               "decompose": decompositions}),
            # Observation is passive: the suite must hash exactly as the
            # bare paper-grid run of the same case does.
            "suite_fp": fingerprint(suite.to_dict()),
        }
        if op.key == REPRESENTATIVE_CASE:
            digest["sim_stats"] = _registry_stats(registries, profile)
        return digest

    def check(self, op: Op, digest: dict) -> Optional[str]:
        if digest["suite_fp"] != self.golden["paper-grid"].get(op.key):
            return "suite differs from the paper-grid golden for this case"
        return None

    def quality(self, digests: Dict[str, dict]) -> Dict[str, float]:
        return {}

    def sim_stats(self, digests: Dict[str, dict]) -> Dict[str, float]:
        return digests[REPRESENTATIVE_CASE]["sim_stats"]


#: collective executors by op kind (public classes only).
_COLLECTIVES = {
    "ring-rs": RingReduceScatter,
    "ring-ag": RingAllGather,
    "planned-rs": PlannedReduceScatter,
}

#: the Figure-14 sweep, cut at 96 MiB so that a run holds several passes.
COLLECTIVE_SIZES_MIB = (6, 12, 24, 48, 96)
COLLECTIVE_GPUS = (4, 8, 16)
#: the 4-GPU ring-RS points results/figure14.txt records (fast mode).
FIGURE14_SIZES_MIB = (6, 12, 24, 48)


class Collectives(Workload):
    """GEMM-free collectives: ring RS/AG and the plan-walking RS on flat
    rings of 4/8/16 GPUs, plus the hierarchical plan on 2 nodes x 4."""

    name = "collectives"
    nominal_pass_s = 7.0

    def build(self) -> List[Op]:
        self.figure14 = {row[0]: row[1:3] for row in
                         _results_table(self.root, "figure14.txt")
                         if row and row[0].endswith("MB")}
        systems = {n: table1_system(n_gpus=n) for n in COLLECTIVE_GPUS}
        ops = []
        for n in COLLECTIVE_GPUS:
            for kind in _COLLECTIVES:
                for mib in COLLECTIVE_SIZES_MIB:
                    ops.append(Op(f"{kind}/{n}gpu/{mib}MiB", (mib, n),
                                  (kind, systems[n], mib, None)))
        for mib in COLLECTIVE_SIZES_MIB:
            ops.append(Op(f"hier-rs/2x4gpu/{mib}MiB", (mib, 8),
                          ("planned-rs", systems[8], mib, 4)))
        return ops

    def run(self, op: Op):
        kind, system, mib, gpus_per_node = op.args
        env = Environment()
        if gpus_per_node:
            topo = HierarchicalRingTopology(env, system, gpus_per_node)
        else:
            topo = RingTopology(env, system)
        result = _COLLECTIVES[kind](topo, nbytes_total=mib * units.MiB).run()
        return result, topo

    def digest(self, op: Op, output) -> dict:
        result, topo = output
        kind, system, mib, _ = op.args
        digest = {
            "fp": fingerprint([result.duration,
                               sorted(result.per_rank_end.items())]),
            "duration": result.duration,
            "link_bytes": topo.total_bytes_on_wire(),
            "dram_bytes": collect_breakdown(topo.gpus).total * topo.n_gpus,
        }
        if kind == "ring-rs":
            digest["reference"] = ring_rs_time(mib * units.MiB, system)
        return digest

    def check(self, op: Op, digest: dict) -> Optional[str]:
        kind, system, mib, _ = op.args
        if kind != "ring-rs" or system.n_gpus != 4 \
                or mib not in FIGURE14_SIZES_MIB:
            return None
        rendered = [f"{digest['duration'] / 1e3:.1f}us",
                    f"{digest['reference'] / 1e3:.1f}us"]
        recorded = self.figure14.get(f"{mib}MB")
        if recorded != rendered:
            return (f"{rendered} differ from results/figure14.txt "
                    f"{recorded}")
        return None

    def quality(self, digests: Dict[str, dict]) -> Dict[str, float]:
        # Floored as the Figure-14 experiment floors it, so an exact point
        # cannot zero the geomean.
        return {"ring_model_err": statistics.geometric_mean(
            max(abs(d["duration"] - d["reference"]) / d["reference"], 1e-6)
            for d in digests.values() if "reference" in d)}

    def sim_stats(self, digests: Dict[str, dict]) -> Dict[str, float]:
        stats = dict.fromkeys(SIM_STAT_NAMES, 0.0)
        stats["memory.dram_bytes"] = sum(d["dram_bytes"]
                                         for d in digests.values())
        stats["interconnect.link_bytes"] = sum(d["link_bytes"]
                                               for d in digests.values())
        return stats


#: seed windows the chaos workload cycles through (see Chaos).
CHAOS_SEED_WINDOWS = 8


class Chaos(Workload):
    """The fast chaos campaign: every (fault kind, severity, topology,
    scheduler) cell with four scenario seeds, each scenario run baseline,
    resilient and Sequential-reference via ``run_scenario``.

    Benchmark seed ``S`` draws scenario seeds ``4w .. 4w+3`` with
    ``w = S mod 8``, so most benchmark seeds mean fault draws the golden
    file has never seen; ``S = 0`` is the checked-in campaign of
    ``results/chaos.txt``.  The window is bounded so input building, part
    of ``setup_s``, costs about the same for every seed.
    """

    name = "chaos"
    nominal_pass_s = 4.5
    golden_everywhere = False

    def build(self) -> List[Op]:
        window = self.seed % CHAOS_SEED_WINDOWS
        first = 4 * window
        systems = {spec.n_gpus: table1_system(n_gpus=spec.n_gpus)
                   for spec in chaos.TOPOLOGIES}
        # Every scenario runs the same 512^3 shape, so all are "smallest".
        return [
            Op(f"{s.kind}/{s.severity}/{s.topology.name}/{s.scheduler}/"
               f"seed{s.seed}", 0, (s, systems[s.topology.n_gpus]))
            for s in chaos.campaign_scenarios(seeds=first + 4)
            if s.seed >= first]

    def run(self, op: Op):
        return chaos.run_scenario(*op.args)

    def digest(self, op: Op, outcome) -> dict:
        fields = {
            "baseline_survived": outcome.baseline_survived,
            "baseline_time": outcome.baseline_time,
            "baseline_error": outcome.baseline_error,
            "resilient_survived": outcome.resilient_survived,
            "resilient_time": outcome.resilient_time,
            "rung": outcome.rung.value,
            "repair_action": outcome.repair_action,
            "sequential_time": outcome.sequential_time,
            "detections": outcome.detections,
            "recoveries": outcome.recoveries,
            "mttr_ns": outcome.mttr_ns,
            "invariant_violation": outcome.invariant_violation,
            "watchdog_hang": outcome.watchdog_hang,
        }
        return dict(fields, fp=fingerprint(fields))

    def check(self, op: Op, digest: dict) -> Optional[str]:
        # Baseline deaths are the campaign's point; only the resilient
        # run has to survive.
        if not digest["resilient_survived"]:
            return "resilient run did not survive"
        if digest["invariant_violation"]:
            return "invariant violated"
        if digest["watchdog_hang"]:
            return "watchdog tripped"
        return None

    def quality(self, digests: Dict[str, dict]) -> Dict[str, float]:
        return {"survival_rate": statistics.fmean(
            d["resilient_survived"] for d in digests.values())}

    def sim_stats(self, digests: Dict[str, dict]) -> Dict[str, float]:
        stats = dict.fromkeys(SIM_STAT_NAMES, 0.0)
        recovered = [d for d in digests.values() if d["mttr_ns"] is not None]
        count = sum(d["recoveries"] for d in recovered)
        stats["resilience.recoveries"] = sum(d["recoveries"]
                                             for d in digests.values())
        stats["resilience.mttr_ns"] = (
            sum(d["mttr_ns"] * d["recoveries"] for d in recovered) / count
            if count else 0.0)
        stats["faults.baseline_survival"] = statistics.fmean(
            d["baseline_survived"] for d in digests.values())
        return stats


WORKLOADS = {cls.name: cls for cls in (PaperGrid, Telemetry, Collectives,
                                       Chaos)}
