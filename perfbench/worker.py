"""One workload in one fresh interpreter; started by ``run.py``.

Modes:

* ``setup`` — import the simulator, build the workload's inputs, print
  ``ready`` and exit (``run.py`` times this from interpreter start);
* ``measure`` — warm up on the smallest op, then time whole seeded passes
  with calibration (see ``calibrate.py``) and print one JSON result line;
* ``trace`` — warm up, then one plain pass and one cProfile pass of the
  same ops in the same order; print the per-layer ledger as JSON;
* ``fingerprints`` — one pass of every workload at seed 0, printing the
  fingerprints a golden update would record.

The simulator is found through ``PYTHONPATH``, which ``run.py`` points at
the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import random
import resource
import statistics
import sys
from typing import Callable, Dict, List

import calibrate
import golden
import ledger
from quantiles import TAIL_BEYOND, hd_quantile, tail_pct

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: failure messages carried back to run.py (the count is always exact).
MAX_REPORTED_FAILURES = 20


class EnvCounter:
    """Counts engine events by wrapping ``Environment.__init__``: every
    environment a workload creates is remembered until :meth:`harvest`
    adds up its ``events_fired``."""

    def __init__(self):
        from repro.sim import engine
        envs: list = []
        original = engine.Environment.__init__

        def init(env, *args, **kwargs):
            original(env, *args, **kwargs)
            envs.append(env)

        engine.Environment.__init__ = init
        self._envs = envs

    def harvest(self) -> int:
        fired = sum(env.events_fired for env in self._envs)
        self._envs.clear()
        return fired


class Runner:
    """Runs ops of one workload, checking each and collecting digests."""

    def __init__(self, workload, expected: Dict[str, str],
                 require_golden: bool):
        self.workload = workload
        self.checker = golden.OpChecker(expected, require_golden)
        self.digests: Dict[str, dict] = {}
        #: key of every op that completed, in the order it was timed.
        self.timed_keys: List[str] = []
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, op, timer: Callable) -> None:
        self.attempted += 1
        try:
            output = timer(lambda: self.workload.run(op))
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.failures.append(f"{op.key}: raised "
                                 f"{type(exc).__name__}: {exc}")
            return
        self.timed_keys.append(op.key)
        digest = self.workload.digest(op, output)
        reason = (self.checker.check(op.key, digest["fp"])
                  or self.workload.check(op, digest))
        self.digests.setdefault(op.key, digest)
        if reason:
            self.failures.append(f"{op.key}: {reason}")

    def run_pass(self, rng: random.Random, timer: Callable,
                 after_op: Callable[[], None] = lambda: None) -> None:
        order = list(self.workload.ops)
        rng.shuffle(order)
        for op in order:
            self.attempt(op, timer)
            after_op()

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:MAX_REPORTED_FAILURES]}


def _timing(keys: List[str], samples: List[float],
            tail: int) -> Dict[str, float]:
    """Throughput, median op time and tail op time of one run.

    The median is taken over ops, each represented by the median of its
    own times across passes, so a burst that slows one pass of an op does
    not move it; the tail is taken over every timed op.  Both are
    Harrell-Davis estimates (see ``quantiles.hd_quantile``).
    """
    per_op: Dict[str, List[float]] = {}
    for key, value in zip(keys, samples):
        per_op.setdefault(key, []).append(value)
    return {"ops_per_s": len(samples) / sum(samples),
            "op_p50_s": hd_quantile(
                [statistics.median(times) for times in per_op.values()], 50),
            "op_tail_s": hd_quantile(samples, tail)}


def measure(workload, runner: Runner, seed: int, seconds: float) -> dict:
    passes = workload.passes_for(seconds)
    rng = random.Random(seed)
    timer = calibrate.Calibrated()
    for _ in range(passes):
        runner.run_pass(rng, timer.time_op)
    samples = timer.close()
    if not samples:
        raise RuntimeError("no op completed: " + "; ".join(runner.failures))
    # A run whose ops mostly raised has too few samples for a tail that
    # leaves ten beyond it; its maximum stands in (the run fails anyway).
    tail = (tail_pct(len(samples)) if len(samples) >= 2 * TAIL_BEYOND
            else 100)
    keys = runner.timed_keys
    metrics = _timing(keys, [ref for _, ref in samples], tail)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return dict(runner.report(), passes=passes, tail_pct=tail,
                metrics=metrics,
                raw=_timing(keys, [raw for raw, _ in samples], tail),
                quality=workload.quality(runner.digests))


def trace(workload, runner: Runner, seed: int) -> dict:
    counter = EnvCounter()
    events = {"untraced": 0, "traced": 0}

    def harvest(which: str) -> Callable[[], None]:
        def after_op() -> None:
            events[which] += counter.harvest()
        return after_op

    untraced = calibrate.Calibrated()
    runner.run_pass(random.Random(seed), untraced.time_op,
                    harvest("untraced"))
    untraced_ref = sum(r for _, r in untraced.close())

    profiler = cProfile.Profile()

    def profiled(fn):
        profiler.enable()
        try:
            return fn()
        finally:
            profiler.disable()

    traced = calibrate.Calibrated()
    runner.run_pass(random.Random(seed),
                    lambda fn: traced.time_op(lambda: profiled(fn)),
                    harvest("traced"))
    traced_samples = traced.close()
    traced_ref = sum(r for _, r in traced_samples)
    traced_raw = sum(r for r, _ in traced_samples)
    if events["traced"] != events["untraced"]:
        runner.failures.append(
            f"engine events differ between passes: {events}")

    profiler.snapshot_stats()
    layer_map = ledger.LayerMap(ROOT / "src" / "repro")
    book = ledger.build_ledger(profiler.stats, layer_map)
    per_layer = ledger.flatten(book, traced_ref / traced_raw)
    per_layer["sim.events"] = events["untraced"]
    per_layer["sim.ns_per_event"] = untraced_ref * 1e9 / events["untraced"]
    per_layer["harness.trace_overhead"] = traced_ref / untraced_ref
    per_layer.update(workload.sim_stats(runner.digests))
    attributed = sum(book["self_s"].values())
    return dict(runner.report(), passes=2, per_layer=per_layer,
                profiled_s=book["total_s"],
                attributed_frac=attributed / book["total_s"],
                unmapped=ledger.unmapped_files(ROOT / "src" / "repro"))


def fingerprints() -> dict:
    """One pass of every workload at seed 0; paper-grid goes first so the
    telemetry suites are checked against the fresh fingerprints."""
    from workloads import WORKLOADS
    fresh: Dict[str, Dict[str, str]] = {}
    failures: List[str] = []
    for name, cls in WORKLOADS.items():
        workload = cls(ROOT, 0, fresh)
        runner = Runner(workload, {}, require_golden=False)
        runner.run_pass(random.Random(0), lambda fn: fn())
        fresh[name] = {key: digest["fp"]
                       for key, digest in runner.digests.items()}
        failures.extend(f"{name}: {message}" for message in runner.failures)
    return {"ops": fresh, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "fingerprints"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    if args.mode == "fingerprints":
        print(json.dumps(fingerprints()))
        return 0

    from workloads import WORKLOADS
    golden_ops = golden.load()
    workload = WORKLOADS[args.workload](ROOT, args.seed, golden_ops)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    workload.run(workload.warmup_op())
    runner = Runner(workload, golden_ops.get(workload.name, {}),
                    workload.golden_everywhere)
    if args.mode == "measure":
        result = measure(workload, runner, args.seed, args.seconds)
    else:
        result = trace(workload, runner, args.seed)
    print(json.dumps(dict(result, workload=workload.name, seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
