#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer cost of the T3 simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 3 --seconds 20
    python3 perfbench/run.py --workload chaos --trace 1
    python3 perfbench/run.py                       # all four, serially
    python3 perfbench/run.py --trace --out points.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --update-golden --reason "why outputs moved"

Each workload runs in a fresh interpreter (``worker.py``), one at a time.
Timed runs print every end-to-end metric with its unit; ``--trace 1``
runs print the per-layer ledger instead.  With ``--workload`` the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit status is 0 only when every op
passed its checks; it is 2, with no result printed, when the benchmark
cannot run at all (for example when the simulator sources are missing).

This script imports nothing from the simulator.  See README.md for the
workloads, metrics, calibration and how to read the ledger.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import calibrate
import golden
from quantiles import verdict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("paper-grid", "telemetry", "collectives", "chaos")

#: interpreter start-ups timed per run; setup_s is their median.
SETUP_PROBES = 15
#: a workload child that runs longer than this is killed (the whole run
#: must end within 180 s).
CHILD_TIMEOUT_S = 160

#: end-to-end figures BENCHMARK.json does not list, because each is zero
#: or defined on one workload only, with their regression bounds: 0 means
#: any change is a regression.  ``fail_frac`` is absolute, the rest exact.
QUALITY = {
    "fail_frac": ("fraction", "lower", 0.0),
    "paper_gap": ("fraction", "lower", 0.0),
    "ring_model_err": ("fraction", "lower", 0.0),
    "survival_rate": ("fraction", "higher", 0.0),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Fixed hashing keeps set iteration, and with it the profiled call
    # counts, identical from run to run.
    env["PYTHONHASHSEED"] = "0"
    # Set-up is timed as users run the simulator, from cached bytecode:
    # the first start-up in a checkout compiles into this cache, later
    # ones load it, whatever the caller's bytecode settings.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    # Nothing here uses the sweep cache; should anything try, it stays
    # inside the checkout.
    env["REPRO_T3_CACHE_DIR"] = str(ROOT / ".bench_build" / "sweep-cache")
    # The benchmark measures the default engine.
    env.pop("REPRO_T3_SCHEDULER", None)
    return env


def worker_command(mode: str, workload: Optional[str] = None,
                   seed: int = 0, seconds: float = 0.0) -> List[str]:
    command = [sys.executable, str(WORKER), "--mode", mode]
    if workload is not None:
        command += ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds)]
    return command


def run_child(command: List[str]) -> dict:
    """Run one worker to completion; its last stdout line is JSON."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker printed no result: {lines[-1]!r}") from exc


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median time from interpreter start until the workload's imports
    are done and its inputs built, over :data:`SETUP_PROBES` start-ups."""
    command = worker_command("setup", workload, seed)
    env = child_env()
    raw: List[float] = []
    ref: List[float] = []
    before = calibrate.measure()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT) as probe:
            line = probe.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
            status = probe.wait(timeout=CHILD_TIMEOUT_S)
        if line != "ready" or status != 0:
            raise BenchError(f"set-up probe failed (status {status})")
        after = calibrate.measure()
        raw.append(elapsed)
        ref.append(calibrate.to_ref(elapsed, (before + after) / 2))
        before = after
    return {"setup_s": statistics.median(ref),
            "raw_setup_s": statistics.median(raw)}


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """One benchmark run of one workload: set-up probes, then the timed
    (or traced) worker."""
    if traced:
        return run_child(worker_command("trace", workload, seed))
    setup = measure_setup(workload, seed)
    result = run_child(worker_command("measure", workload, seed, seconds))
    result["metrics"]["setup_s"] = setup["setup_s"]
    result["raw"]["setup_s"] = setup["raw_setup_s"]
    result["quality"]["fail_frac"] = result["failed"] / result["attempted"]
    return result


def contract_metrics(result: dict, spec: dict, traced: bool) -> dict:
    """The metrics BENCHMARK.json promises for this kind of run."""
    kind = "per_layer" if traced else "end_to_end"
    source = result["per_layer"] if traced else result["metrics"]
    missing = [m["name"] for m in spec[kind] if m["name"] not in source]
    if missing:
        raise BenchError(f"run did not produce {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def print_human(result: dict, spec: dict, traced: bool) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: unit for name, (unit, _, _) in QUALITY.items()})
    head = (f"[perfbench] {result['workload']} seed={result['seed']} "
            f"passes={result['passes']} ops={result['attempted']} "
            f"failed={result['failed']}")
    if not traced:
        head += f" tail=p{result['tail_pct']}"
    print(head)
    rows = (result["per_layer"] if traced
            else dict(result["metrics"], **result["quality"]))
    for name, value in rows.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")
    if traced:
        print(f"  (profiled {result['profiled_s']:.3f} s, "
              f"{100 * result['attributed_frac']:.2f}% charged to layers)")
        for rel in result["unmapped"]:
            print(f"  UNMAPPED src/repro/{rel}")
    else:
        for name, value in result["raw"].items():
            unit = "1/s" if name == "ops_per_s" else "s"
            print(f"  raw.{name:<30} {value:>16.6g} {unit} (host, "
                  "not calibrated)")
        for name in QUALITY:
            if name not in rows:
                print(f"  {name:<34} {'n/a':>16}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def append_point(path: pathlib.Path, seed: int, seconds: float,
                 results: Dict[str, dict]) -> None:
    """Append one trajectory point (one JSON line) to ``path``."""
    point = {
        "schema": "perfbench-point",
        "version": 1,
        "captured_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "seed": seed,
        "seconds": seconds,
        "src_lines": src_lines(),
        "workloads": results,
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(point, sort_keys=True) + "\n")


def read_points(path: pathlib.Path) -> List[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def compare(path_a: pathlib.Path, path_b: pathlib.Path, spec: dict) -> int:
    """Print per-workload verdicts for every end-to-end metric, then the
    per-layer medians, between two sets of points."""
    before, after = read_points(path_a), read_points(path_b)
    rules = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    timed = set(rules)
    rules.update(QUALITY)

    def values(points, workload, section, name):
        return [p["workloads"][workload][section][name] for p in points
                if workload in p["workloads"]
                and name in p["workloads"][workload].get(section, {})]

    print(f"{len(before)} point(s) in {path_a} vs {len(after)} in {path_b}")
    for workload in WORKLOAD_NAMES:
        rows = []
        for name, (unit, better, bound) in rules.items():
            section = "metrics" if name in timed else "quality"
            a = values(before, workload, section, name)
            b = values(after, workload, section, name)
            if a and b:
                rows.append((name, unit, verdict(a, b, better, bound)))
        if not rows:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'before q1/med/q3':>36}"
              f"{'after q1/med/q3':>36}{'worse by':>10}{'bound':>7}  verdict")
        for name, unit, v in rows:
            quart = ("{q1:.4g}/{median:.4g}/{q3:.4g}")
            print(f"  {name:<16}{quart.format(**v['before']):>36}"
                  f"{quart.format(**v['after']):>36}"
                  f"{100 * v['worsening']:>9.2f}%"
                  f"{100 * v['bound']:>6.0f}%  {v['verdict']}  [{unit}]")
        layer_names = [m["name"] for m in spec["per_layer"]]
        layer_rows = []
        for name in layer_names:
            a = values(before, workload, "per_layer", name)
            b = values(after, workload, "per_layer", name)
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                if ma:
                    delta = (mb - ma) / abs(ma)
                else:
                    delta = 0.0 if mb == ma else float("inf")
                layer_rows.append((name, ma, mb, delta))
        if layer_rows:
            print(f"  {'per-layer':<34}{'before':>14}{'after':>14}"
                  f"{'delta':>10}")
            for name, ma, mb, delta in layer_rows:
                print(f"  {name:<34}{ma:>14.6g}{mb:>14.6g}"
                      f"{100 * delta:>9.2f}%")
    return 0


def update_golden(reason: Optional[str]) -> int:
    if not reason or not reason.strip():
        print("refusing to update golden fingerprints without --reason",
              file=sys.stderr)
        return 2
    result = run_child(worker_command("fingerprints"))
    if result["failures"]:
        for failure in result["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print("golden fingerprints not updated", file=sys.stderr)
        return 1
    golden.save(result["ops"], reason)
    print(f"golden fingerprints written to {golden.GOLDEN_PATH} "
          f"({sum(len(t) for t in result['ops'].values())} ops)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="T3 simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer ledger")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append this run as one point to a JSONL file")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("BEFORE", "AFTER"),
                        help="compare two JSONL files of points")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-record golden fingerprints (needs --reason)")
    parser.add_argument("--reason", help="why the golden outputs changed")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"simulator sources not found under "
                             f"{ROOT / 'src'}")
        if args.update_golden:
            return update_golden(args.reason)
        seconds = (args.seconds if args.seconds is not None
                   else spec["run_seconds"])
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        if args.workload:
            modes = [bool(args.trace)]
        else:
            modes = [False, True] if args.trace else [False]
        results: Dict[str, dict] = {}
        summary = {"correct": True, "attempted": 0, "failed": 0}
        last = None
        for name in names:
            for traced in modes:
                result = run_workload(name, args.seed, seconds, traced)
                print_human(result, spec, traced)
                entry = results.setdefault(name, {})
                if traced:
                    entry["per_layer"] = result["per_layer"]
                else:
                    entry.update(metrics=result["metrics"],
                                 quality=result["quality"],
                                 raw=result["raw"])
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                last = contract_metrics(result, spec, traced)
        summary["correct"] = summary["failed"] == 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        append_point(args.out, args.seed, seconds, results)
    if args.workload:
        print(json.dumps(dict(summary, metrics=last)))
    else:
        print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
