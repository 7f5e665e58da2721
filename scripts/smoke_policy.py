#!/usr/bin/env python
"""Smoke test for the overlap-policy layer (the `make smoke-policy` target).

Adaptivity is safe and pays: :class:`AdaptiveMcaPolicy` survives a
seeded chaos-campaign slice with zero invariant violations, and strictly
reduces exposed communication time on the degraded-link and straggler
suites of the ``adaptive`` experiment.

Plus a structural gate: the tunable decision logic must live in
``src/repro/policy/`` only — ``memory/arbiter.py`` may not reimplement
the intensity->threshold mapping or the occupancy comparison, and the
trigger/DMA seams must consult the policy.

Transparency of the default :class:`StaticPaperPolicy` is pinned by
recorded fingerprints in ``tests/test_engine_regressions.py`` and by
``tests/test_results_sync.py``.

Exit status 0 on success; prints a diagnosis and exits 1 otherwise.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import set_default_overlap_policy          # noqa: E402


def check_no_inline_decisions(failures):
    """1. Decision logic lives in repro.policy only: the consuming
    modules hold the seams, not the policy math."""
    src = REPO_ROOT / "src" / "repro"
    arbiter_text = (src / "memory" / "arbiter.py").read_text()
    for marker in ("dram_occupancy <", "intensity_breakpoints"):
        if marker in arbiter_text:
            failures.append(f"memory/arbiter.py still contains inline "
                            f"decision logic: {marker!r}")
    for path, seam in (("t3/trigger.py", "trigger_fire_delay"),
                       ("gpu/dma.py", "dma_pacing_gap"),
                       ("t3/tracker.py", "observe_tracker_pressure")):
        if seam not in (src / path).read_text():
            failures.append(f"{path} no longer consults the policy seam "
                            f"{seam!r}")
    if not any("decision logic" in f or "policy seam" in f
               for f in failures):
        print("OK structure: no inline decision logic in arbiter.py; "
              "trigger/DMA/tracker seams present")


def check_adaptive_chaos(failures):
    """2. The adaptive policy survives a seeded chaos slice: 100%
    survival, zero invariant violations, zero watchdog hangs."""
    from repro.experiments import chaos
    previous = set_default_overlap_policy("adaptive")
    try:
        result = chaos.run(fast=True, seeds=1)
    finally:
        set_default_overlap_policy(previous)
    summary = result.summary()
    problems = []
    if summary["survival_rate"] < 1.0:
        problems.append(f"survival {summary['survival_rate']:.2f} < 1.0")
    if summary["invariant_violations"]:
        problems.append(
            f"{summary['invariant_violations']} invariant violations")
    if summary["watchdog_hangs"]:
        problems.append(f"{summary['watchdog_hangs']} watchdog hangs")
    if problems:
        failures.append("adaptive chaos slice: " + ", ".join(problems))
    else:
        print(f"OK chaos: adaptive policy survived "
              f"{summary['scenarios']} scenarios, 0 violations, 0 hangs")


def check_adaptive_pays(failures):
    """3. Adaptive strictly reduces exposed communication time on the
    degraded-link and straggler probes."""
    from repro.experiments import adaptive
    result = adaptive.quick_policy_point(fast=True)
    for name in adaptive.FAULT_SUITES:
        static, adapted = result.suite_exposed(name)
        if adapted < static:
            print(f"OK adaptive: {name} exposed comm "
                  f"{static / 1e3:.1f}us -> {adapted / 1e3:.1f}us")
        else:
            failures.append(
                f"adaptive policy does not win on {name}: exposed "
                f"{static:.0f} ns -> {adapted:.0f} ns")


def main() -> int:
    failures = []
    check_no_inline_decisions(failures)
    check_adaptive_chaos(failures)
    check_adaptive_pays(failures)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("smoke-policy passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
