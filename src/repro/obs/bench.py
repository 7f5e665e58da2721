"""Benchmark-trajectory schema: the ``BENCH_*.json`` contract.

``scripts/bench.py`` captures one *bench point* per invocation — host
wall-clock plus the simulated speedups and overlap efficiencies of a
small case set — and writes it as a schema-versioned JSON file
(``results/BENCH_0003.json`` is the checked-in trajectory point for this
revision).  CI re-captures a smoke point on every push and validates
both files against this schema, so regressions in either the simulated
results or the capture pipeline fail loudly.

This module is deliberately free of experiment imports: it defines the
payload layout and validates instances, nothing else, so tests and CI
can validate checked-in files without simulating anything.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: schema identity: bump the version on any breaking layout change and
#: keep ``validate`` accepting only the current version.
#:
#: v2: adds the required top-level ``cases_per_second`` throughput metric
#: (simulated cases per host second across the whole case set) — the
#: first-class figure of merit for engine hot-path work.
#:
#: v3: adds the required top-level ``chaos`` object — the resilience
#: campaign's survival rate and MTTR (see ``repro.experiments.chaos``) —
#: so robustness is tracked as a first-class trajectory metric alongside
#: throughput.
#:
#: v4: adds the required top-level ``policy`` object — the overlap-policy
#: study's static-vs-adaptive exposed-communication comparison (see
#: ``repro.experiments.adaptive``) — so a regression that stops the
#: adaptive controller from paying on the faulty suites fails the bench
#: gate.
#:
#: v5: adds the required top-level ``throughput`` object (pure-simulation
#: vs profiled cases/s — ``cases_per_second`` keeps its v2 meaning, the
#: profiled loop, for cross-version comparability) and the required
#: top-level ``surrogate`` object — the calibrated-surrogate triage's
#: training-fit and audit-slice error statistics plus the simulated
#: fraction (see ``repro.surrogate``) — so both the engine fast path and
#: the analytic shortcut's accuracy are gated trajectory metrics.
BENCH_SCHEMA = "t3-bench"
BENCH_SCHEMA_VERSION = 5

#: modes a bench point can be captured in.
BENCH_MODES = ("smoke", "fast", "full")

_REQUIRED_TOP = ("schema", "schema_version", "mode", "captured_at",
                 "host", "wall_clock_s", "cases_per_second", "throughput",
                 "chaos", "policy", "surrogate", "experiments")
_REQUIRED_EXPERIMENT = ("case", "wall_clock_s", "speedups",
                        "overlap_efficiency")
#: the chaos-campaign metrics every bench point carries (v3).
_REQUIRED_CHAOS = ("scenarios", "survival_rate", "baseline_survival_rate",
                   "mttr_ns", "retained_speedup", "invariant_violations",
                   "watchdog_hangs")
#: the overlap-policy metrics every bench point carries (v4).
_REQUIRED_POLICY = ("suites", "adaptive_wins", "geomean_exposed_reduction")
_REQUIRED_POLICY_SUITE = ("static_exposed_ns", "adaptive_exposed_ns",
                          "adaptive_wins")
#: the throughput split every bench point carries (v5): the same case
#: loop timed bare (``pure_sim_cases_per_second``) and with telemetry +
#: overlap profiling attached (``profiled_cases_per_second``, equal to
#: the top-level ``cases_per_second``).
_REQUIRED_THROUGHPUT = ("pure_sim_cases_per_second",
                        "profiled_cases_per_second")
#: the surrogate-triage metrics every bench point carries (v5).
_REQUIRED_SURROGATE = ("n_scored", "n_simulated", "simulated_fraction",
                       "train_mae_rel", "audit_mae_rel",
                       "audit_geomean_rel", "audit_n")


def build_payload(mode: str, captured_at: str, host: Dict[str, str],
                  wall_clock_s: float, cases_per_second: float,
                  throughput: Dict[str, Any], chaos: Dict[str, Any],
                  policy: Dict[str, Any], surrogate: Dict[str, Any],
                  experiments: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble a bench point; raises on anything the schema rejects."""
    payload = {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "mode": mode,
        "captured_at": captured_at,
        "host": host,
        "wall_clock_s": wall_clock_s,
        "cases_per_second": cases_per_second,
        "throughput": throughput,
        "chaos": chaos,
        "policy": policy,
        "surrogate": surrogate,
        "experiments": experiments,
    }
    errors = validate(payload)
    if errors:
        raise ValueError("bench payload invalid: " + "; ".join(errors))
    return payload


def validate(payload: Any) -> List[str]:
    """All schema violations in ``payload`` (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    for key in _REQUIRED_TOP:
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if payload["schema"] != BENCH_SCHEMA:
        errors.append(f"schema must be {BENCH_SCHEMA!r}, "
                      f"got {payload['schema']!r}")
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(f"schema_version must be {BENCH_SCHEMA_VERSION}, "
                      f"got {payload['schema_version']!r}")
    if payload["mode"] not in BENCH_MODES:
        errors.append(f"mode must be one of {BENCH_MODES}, "
                      f"got {payload['mode']!r}")
    if not isinstance(payload["captured_at"], str) \
            or not payload["captured_at"]:
        errors.append("captured_at must be a non-empty string")
    if not isinstance(payload["host"], dict):
        errors.append("host must be an object")
    if not _positive_number(payload["wall_clock_s"]):
        errors.append("wall_clock_s must be a positive number")
    if not _positive_number(payload["cases_per_second"]):
        errors.append("cases_per_second must be a positive number")
    errors.extend(_validate_throughput(payload["throughput"]))
    errors.extend(_validate_chaos(payload["chaos"]))
    errors.extend(_validate_policy(payload["policy"]))
    errors.extend(_validate_surrogate(payload["surrogate"]))
    experiments = payload["experiments"]
    if not isinstance(experiments, list) or not experiments:
        errors.append("experiments must be a non-empty list")
        return errors
    for index, entry in enumerate(experiments):
        errors.extend(_validate_experiment(index, entry))
    return errors


def _validate_throughput(entry: Any) -> List[str]:
    """The v5 throughput block: bare vs profiled simulation rates."""
    if not isinstance(entry, dict):
        return [f"throughput must be an object, got {type(entry).__name__}"]
    errors = [f"throughput missing key {key!r}"
              for key in _REQUIRED_THROUGHPUT if key not in entry]
    if errors:
        return errors
    for key in _REQUIRED_THROUGHPUT:
        if not _positive_number(entry[key]):
            errors.append(f"throughput.{key} must be a positive number")
    return errors


def _validate_surrogate(entry: Any) -> List[str]:
    """The v5 surrogate block: triage budget and accuracy statistics."""
    if not isinstance(entry, dict):
        return [f"surrogate must be an object, got {type(entry).__name__}"]
    errors = [f"surrogate missing key {key!r}"
              for key in _REQUIRED_SURROGATE if key not in entry]
    if errors:
        return errors
    for key in ("n_scored", "n_simulated", "audit_n"):
        value = entry[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            errors.append(f"surrogate.{key} must be a non-negative integer")
    if not errors and entry["n_scored"] < 1:
        errors.append("surrogate.n_scored must be at least 1")
    fraction = entry["simulated_fraction"]
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool) \
            or not 0.0 <= fraction <= 1.0:
        errors.append("surrogate.simulated_fraction must be a number "
                      "in [0, 1]")
    for key in ("train_mae_rel", "audit_mae_rel", "audit_geomean_rel"):
        if not _non_negative_number(entry[key]):
            errors.append(f"surrogate.{key} must be a non-negative number")
    return errors


def _validate_chaos(entry: Any) -> List[str]:
    """The v3 chaos block: campaign size, survival rates and MTTR."""
    if not isinstance(entry, dict):
        return [f"chaos must be an object, got {type(entry).__name__}"]
    errors = [f"chaos missing key {key!r}"
              for key in _REQUIRED_CHAOS if key not in entry]
    if errors:
        return errors
    if not isinstance(entry["scenarios"], int) \
            or isinstance(entry["scenarios"], bool) \
            or entry["scenarios"] < 1:
        errors.append("chaos.scenarios must be a positive integer")
    for key in ("survival_rate", "baseline_survival_rate"):
        value = entry[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not 0.0 <= value <= 1.0:
            errors.append(f"chaos.{key} must be a number in [0, 1]")
    # MTTR / retained speedup are null when no scenario needed recovery
    # (e.g. a smoke slice with only tolerated faults).
    if entry["mttr_ns"] is not None and not _non_negative_number(
            entry["mttr_ns"]):
        errors.append("chaos.mttr_ns must be a non-negative number or "
                      "null")
    if entry["retained_speedup"] is not None and not _positive_number(
            entry["retained_speedup"]):
        errors.append("chaos.retained_speedup must be a positive number "
                      "or null")
    for key in ("invariant_violations", "watchdog_hangs"):
        value = entry[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            errors.append(f"chaos.{key} must be a non-negative integer")
    return errors


def _validate_policy(entry: Any) -> List[str]:
    """The v4 policy block: per-suite exposed-communication comparison of
    the static paper policy vs the adaptive controller."""
    if not isinstance(entry, dict):
        return [f"policy must be an object, got {type(entry).__name__}"]
    errors = [f"policy missing key {key!r}"
              for key in _REQUIRED_POLICY if key not in entry]
    if errors:
        return errors
    suites = entry["suites"]
    if not isinstance(suites, dict) or not suites:
        errors.append("policy.suites must be a non-empty object")
    else:
        for name, suite in suites.items():
            where = f"policy.suites[{name!r}]"
            if not isinstance(suite, dict):
                errors.append(f"{where} must be an object")
                continue
            missing = [key for key in _REQUIRED_POLICY_SUITE
                       if key not in suite]
            if missing:
                errors.extend(f"{where} missing key {key!r}"
                              for key in missing)
                continue
            for key in ("static_exposed_ns", "adaptive_exposed_ns"):
                if not _non_negative_number(suite[key]):
                    errors.append(f"{where}.{key} must be a non-negative "
                                  "number")
            if not isinstance(suite["adaptive_wins"], bool):
                errors.append(f"{where}.adaptive_wins must be a boolean")
    if not isinstance(entry["adaptive_wins"], bool):
        errors.append("policy.adaptive_wins must be a boolean")
    reduction = entry["geomean_exposed_reduction"]
    # A reduction fraction: 0.01 = 1% of static exposure removed; it can
    # go negative on a regression but can never reach 1 (that would mean
    # zero exposed communication left).
    if not isinstance(reduction, (int, float)) \
            or isinstance(reduction, bool) or not reduction < 1.0:
        errors.append("policy.geomean_exposed_reduction must be a number "
                      "below 1")
    return errors


def _validate_experiment(index: int, entry: Any) -> List[str]:
    where = f"experiments[{index}]"
    if not isinstance(entry, dict):
        return [f"{where} must be an object"]
    errors = [f"{where} missing key {key!r}"
              for key in _REQUIRED_EXPERIMENT if key not in entry]
    if errors:
        return errors
    if not isinstance(entry["case"], str) or not entry["case"]:
        errors.append(f"{where}.case must be a non-empty string")
    if not _positive_number(entry["wall_clock_s"]):
        errors.append(f"{where}.wall_clock_s must be a positive number")
    speedups = entry["speedups"]
    if not isinstance(speedups, dict) or not speedups:
        errors.append(f"{where}.speedups must be a non-empty object")
    else:
        for config, value in speedups.items():
            if not _positive_number(value):
                errors.append(f"{where}.speedups[{config!r}] must be a "
                              "positive number")
    efficiency = entry["overlap_efficiency"]
    if not isinstance(efficiency, dict) or not efficiency:
        errors.append(f"{where}.overlap_efficiency must be a non-empty "
                      "object")
    else:
        for config, value in efficiency.items():
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not 0.0 <= value <= 1.0:
                errors.append(f"{where}.overlap_efficiency[{config!r}] "
                              "must be a number in [0, 1]")
    return errors


def _positive_number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0)


def _non_negative_number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 0)
