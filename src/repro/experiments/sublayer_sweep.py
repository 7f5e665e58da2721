"""Shared sub-layer sweep backing Figures 15, 16, 18 and 19.

Runs the Section 5.3 configuration suite over a case list (by default the
paper's eight small-model cases: Mega-GPT-2 and T-NLG, TP 8 and 16, four
sub-layers each).  Results are cached at two levels:

* an in-process memo (so the figure modules share one sweep within a
  ``capture_results`` / ``runner all`` invocation), and
* the persistent on-disk :class:`~repro.experiments.executor.SweepCache`,
  keyed by a content hash of the case + system + simulator version, so
  repeat runs re-simulate nothing.

``run_sweep(jobs=N)`` dispatches cache misses through a process pool; see
:mod:`repro.experiments.executor`.  The module-level options set by
:func:`configure` let the CLI thread ``--jobs`` / ``--cache-dir`` /
``--no-cache`` through figure modules that call :func:`run_sweep` with no
arguments.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig, table1_system
from repro.experiments.common import (
    SublayerSuite,
    run_sublayer_suite,
    scaled_shape,
)
from repro.experiments.executor import (
    CacheStats,
    CaseSpec,
    SweepCache,
    run_cases,
)
from repro.faults import FaultPlan
from repro.models import zoo
from repro.models.transformer import SubLayer

#: in-process memo: case fingerprint -> suite (identical object returned).
_MEMO: Dict[str, SublayerSuite] = {}

#: fast-mode token scaling (shrinks M; K/N/balance preserved).
FAST_SCALE = 8

#: full-scale runs use a coarser memory-transaction quantum: paper-scale
#: chunks are tens of MB, so 256 KiB transactions keep hundreds of
#: requests per chunk while making full sweeps tractable.
FULL_MODE_QUANTUM = 256 * 1024


@dataclasses.dataclass
class SweepOptions:
    """Process-wide sweep execution defaults (set from CLI flags)."""

    jobs: int = 1
    cache_dir: Optional[pathlib.Path] = None
    disk_cache: bool = True


_OPTIONS = SweepOptions()
_DISK_CACHE: Optional[SweepCache] = None


def configure(jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              disk_cache: Optional[bool] = None) -> SweepOptions:
    """Set process-wide sweep defaults; returns the effective options.

    Called by ``repro.experiments.runner`` and ``scripts/capture_results``
    so figure modules need no flag plumbing of their own.
    """
    global _DISK_CACHE
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        _OPTIONS.jobs = jobs
    if cache_dir is not None:
        _OPTIONS.cache_dir = pathlib.Path(cache_dir).expanduser()
        _DISK_CACHE = None  # rebuild against the new directory
    if disk_cache is not None:
        _OPTIONS.disk_cache = disk_cache
        _DISK_CACHE = None
    return _OPTIONS


def disk_cache() -> SweepCache:
    """The process-wide persistent cache (honoring ``configure``)."""
    global _DISK_CACHE
    if _DISK_CACHE is None:
        _DISK_CACHE = SweepCache(directory=_OPTIONS.cache_dir,
                                 enabled=_OPTIONS.disk_cache)
    return _DISK_CACHE


def cache_stats() -> CacheStats:
    """Live counters of the persistent cache (for the runner report)."""
    return disk_cache().stats


def default_cases(large: bool = False) -> List[SubLayer]:
    """The paper's case grids: small models x TP {8,16}, or the
    Section 6.4 large models at TP=32."""
    cases: List[SubLayer] = []
    if large:
        for model in zoo.large_models():
            cases.extend(model.ar_sublayers(32))
    else:
        for model in zoo.small_models():
            for tp in (8, 16):
                cases.extend(model.ar_sublayers(tp))
    return cases


def _resolve_spec(sub: SubLayer, fast: bool,
                  system: Optional[SystemConfig],
                  configs: Optional[Sequence[str]],
                  faults: Optional[FaultPlan] = None,
                  check_invariants: bool = False) -> CaseSpec:
    """Apply TP defaults and full-mode fidelity; returns the final spec."""
    base_system = system or table1_system(n_gpus=sub.tp)
    if base_system.n_gpus != sub.tp:
        raise ValueError(
            f"case {sub.label} needs an n_gpus={sub.tp} system")
    if not fast:
        base_system = base_system.with_fidelity(
            quantum_bytes=max(base_system.fidelity.quantum_bytes,
                              FULL_MODE_QUANTUM))
    scale = FAST_SCALE if fast else 1
    return CaseSpec(sub=sub, scale=scale, system=base_system,
                    configs=tuple(configs or ()),
                    faults=faults, check_invariants=check_invariants)


def case_shape(sub: SubLayer, scale: int, system: SystemConfig):
    """The exact GEMM shape ``simulate_case`` will run for this case.

    Shared with :mod:`repro.surrogate` so analytic scoring and the event
    simulation can never disagree about the simulated geometry.
    """
    # Keep the scaled output chunkable: need >= tp workgroup tiles.
    tiles_n = max(1, sub.gemm.n // system.gemm.macro_tile_n)
    rows_needed = -(-sub.tp // tiles_n)  # ceil
    min_m = rows_needed * system.gemm.macro_tile_m
    return scaled_shape(sub.gemm, scale, min_m=min_m)


def simulate_case(sub: SubLayer, scale: int, system: SystemConfig,
                  configs: Optional[List[str]] = None,
                  faults: Optional[FaultPlan] = None,
                  check_invariants: bool = False,
                  obs_sink=None, resilience=None,
                  trace_sink=None) -> SublayerSuite:
    """Simulate one fully-resolved case (no caching; executor workers and
    the serial path both land here).  ``obs_sink`` opts into per-config
    telemetry registries — profiled calls must stay off the cache path
    (registries are per-run state, not cacheable payload).  ``resilience``
    attaches a dormant-until-fault recovery runtime (not part of the
    cache key: it is byte-transparent on fault-free runs, and faulted
    chaos runs bypass the cache).  ``trace_sink`` mirrors ``obs_sink``
    with per-config :class:`~repro.analysis.trace.TraceRecorder`\\ s —
    equally uncacheable, equally passive."""
    shape = case_shape(sub, scale, system)
    return run_sublayer_suite(system, shape, label=sub.label,
                              configs=configs, faults=faults,
                              check_invariants=check_invariants,
                              obs_sink=obs_sink, resilience=resilience,
                              trace_sink=trace_sink)


def save_case_trace(sub: SubLayer, scale: int, system: SystemConfig,
                    faults: Optional[FaultPlan], trace_out: str) -> None:
    """Re-simulate one case off the cache path under the invariant
    checker with a registry and a trace recorder attached, and save the
    T3-MCA run's decomposition-grade trace with the registry merged in
    (the sweep's cached results are payload only and carry no spans)."""
    obs_sink: dict = {}
    trace_sink: dict = {}
    simulate_case(sub, scale, system, configs=["Sequential", "T3-MCA"],
                  faults=faults, check_invariants=True, obs_sink=obs_sink,
                  trace_sink=trace_sink)
    trace_sink["T3-MCA"].save(trace_out, registry=obs_sink["T3-MCA"])


def run_case(sub: SubLayer, fast: bool = True,
             system: Optional[SystemConfig] = None,
             configs: Optional[List[str]] = None,
             use_cache: bool = True,
             faults: Optional[FaultPlan] = None,
             check_invariants: bool = False) -> SublayerSuite:
    """Run one case through the memo + persistent cache."""
    spec = _resolve_spec(sub, fast, system, configs, faults,
                         check_invariants)
    if not use_cache:
        return simulate_case(spec.sub, spec.scale, spec.system,
                             list(spec.configs) or None,
                             faults=spec.faults,
                             check_invariants=spec.check_invariants)
    key = spec.fingerprint()
    if key in _MEMO:
        return _MEMO[key]
    suite = run_cases([spec], jobs=1, cache=disk_cache())[0]
    _MEMO[key] = suite
    return suite


def run_sweep(fast: bool = True, large: bool = False,
              cases: Optional[Sequence[SubLayer]] = None,
              system_for_tp=None,
              configs: Optional[Sequence[str]] = None,
              jobs: Optional[int] = None,
              progress=None,
              faults: Optional[FaultPlan] = None,
              check_invariants: bool = False,
              triage: Optional[str] = None,
              triage_options: Optional[dict] = None):
    """Run all cases; returns one suite per case, in case order.

    ``jobs`` (default: the :func:`configure` setting) bounds the number of
    worker processes used for cache-missing cases; cached cases are never
    re-simulated.  ``system_for_tp`` maps a TP degree to a custom
    :class:`SystemConfig`; ``configs`` restricts the per-case suite.
    ``faults`` / ``check_invariants`` are part of each case's cache key,
    so faulty runs never collide with healthy ones.

    ``triage="surrogate"`` switches to the calibrated-surrogate flow
    (:func:`repro.surrogate.triage.triaged_sweep`): every case is scored
    analytically and only the predicted frontier plus an audit slice is
    simulated.  The return type is then a
    :class:`~repro.surrogate.triage.TriageResult`, not a suite list.
    ``triage_options`` passes keyword arguments (``frontier``,
    ``audit_fraction``, ``seed``, ...) through to the triage.
    """
    selected = list(cases) if cases is not None else default_cases(large)
    if triage is not None:
        if triage != "surrogate":
            raise ValueError(
                f"unknown triage mode {triage!r}; only 'surrogate' exists")
        if faults is not None or check_invariants:
            raise ValueError(
                "surrogate triage calibrates against healthy runs; "
                "faults / invariant checking are full-sweep features")
        from repro.surrogate.triage import triaged_sweep
        return triaged_sweep(
            selected, fast=fast, configs=configs,
            system_for_tp=system_for_tp,
            jobs=jobs if jobs is not None else _OPTIONS.jobs,
            progress=progress, **(triage_options or {}))
    specs: List[CaseSpec] = []
    for sub in selected:
        system = system_for_tp(sub.tp) if system_for_tp else None
        specs.append(_resolve_spec(sub, fast, system, configs,
                                   faults, check_invariants))

    keys = [spec.fingerprint() for spec in specs]
    missing = [(spec, key) for spec, key in zip(specs, keys)
               if key not in _MEMO]
    if missing:
        effective_jobs = jobs if jobs is not None else _OPTIONS.jobs
        fresh = run_cases([spec for spec, _ in missing],
                          jobs=effective_jobs, cache=disk_cache(),
                          progress=progress)
        for (_, key), suite in zip(missing, fresh):
            _MEMO[key] = suite
    return [_MEMO[key] for key in keys]


def clear_cache() -> None:
    """Forget the in-process memo (the on-disk cache is untouched)."""
    _MEMO.clear()


def clear_disk_cache() -> int:
    """Delete every persistent cache entry; returns the number removed."""
    return disk_cache().clear()
