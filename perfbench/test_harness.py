"""Tests of the benchmark harness itself; they simulate nothing.

Run with ``python3 -m pytest perfbench/test_harness.py``.
"""

import json
import pathlib
import random
import statistics

import pytest

import calibrate
import golden
import ledger
import run
import worker
from quantiles import hd_quantile, tail_pct, verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, pct", [
    (20, 50), (24, 58), (32, 68), (40, 75), (100, 90), (240, 95),
    (960, 98), (5000, 99),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tail_pct(n) == pct
    assert n * (100 - pct) / 100 >= 10
    if pct < 99:
        assert n * (100 - pct - 1) / 100 < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_pct(19)


def test_harrell_davis_quantile():
    assert hd_quantile([5, 1, 4, 2, 3], 50) == pytest.approx(3)
    assert hd_quantile([7.0] * 9, 90) == pytest.approx(7.0)
    rng = random.Random(1)
    sample = [rng.expovariate(1) for _ in range(100)]
    # Reference values from scipy.stats.mstats.hdquantiles.
    assert hd_quantile(sample, 50) == pytest.approx(0.7217856, abs=1e-6)
    assert hd_quantile(sample, 68) == pytest.approx(1.1867538, abs=1e-6)


def test_harrell_davis_median_is_steady_between_clusters():
    # Half the ops near 1 s, half near 2 s: the plain median is the mean
    # of the two cluster edges, so one slow op at the lower edge moves it
    # a lot; the Harrell-Davis median barely moves.
    ops = [1.0 + i * 0.001 for i in range(50)] + \
        [2.0 + i * 0.001 for i in range(50)]
    slow_edge = ops[:49] + [1.4] + ops[50:]
    plain = statistics.median(slow_edge) - statistics.median(ops)
    smooth = hd_quantile(slow_edge, 50) - hd_quantile(ops, 50)
    assert plain > 0.17
    assert 0 < smooth < plain / 5


class FakeClock:
    def __init__(self, durations):
        self.durations = list(durations)
        self.now = 0.0
        self.started = False

    def __call__(self):
        if self.started:
            self.now += self.durations.pop(0)
        self.started = not self.started
        return self.now


def test_calibration_converts_to_reference_seconds():
    # The host runs the yardstick at twice the reference time, so every
    # op's reference time is half its raw time.
    slow = calibrate.CAL_REF_S * 2
    timer = calibrate.Calibrated(measure_fn=lambda: slow,
                                 clock=FakeClock([0.3, 0.1]))
    timer.time_op(lambda: None)
    timer.time_op(lambda: None)
    raw, ref = zip(*timer.close())
    assert raw == pytest.approx((0.3, 0.1))
    assert ref == pytest.approx((0.15, 0.05))


def test_calibration_batches_short_ops_and_brackets_them():
    cals = iter([0.05, 0.10, 0.20])
    timer = calibrate.Calibrated(measure_fn=lambda: next(cals),
                                 clock=FakeClock([0.2, 0.2, 0.2, 0.3]))
    for _ in range(4):
        timer.time_op(lambda: None)
    samples = timer.close()
    # Three 0.2 s ops fill one 0.5 s batch (calibrated 0.05 before, 0.10
    # after); the long 0.3 s op closes a batch of its own (0.10, 0.20).
    assert timer.calibrations == [0.05, 0.10, 0.20]
    first = calibrate.CAL_REF_S / 0.075
    second = calibrate.CAL_REF_S / 0.15
    assert [ref for _, ref in samples] == pytest.approx(
        [0.2 * first] * 3 + [0.3 * second])


def test_median_op_time_takes_each_ops_median_across_passes():
    # Three passes of two ops; one pass of "b" ran into a burst.
    keys = ["a", "b"] * 3
    samples = [1.0, 2.0, 1.0, 9.0, 1.0, 2.0]
    timing = worker._timing(keys, samples, 50)
    assert timing["op_p50_s"] == pytest.approx(1.5)
    assert timing["ops_per_s"] == pytest.approx(6 / 16)
    assert timing["op_tail_s"] > 1.5


def test_layer_map_covers_every_simulator_file():
    assert ledger.unmapped_files(ROOT / "src" / "repro") == []


def test_new_top_level_module_is_unmapped():
    assert ledger.rule_layer("newlayer/core.py") is None
    assert ledger.rule_layer("newmodule.py") is None
    assert ledger.rule_layer("gpu/dma.py") == "gpu.dma"
    assert ledger.rule_layer("gpu/gemm.py") == "gpu.gemm"
    assert ledger.rule_layer("analysis/trace.py") == "trace"
    assert ledger.rule_layer("analysis/traffic.py") == "experiments"


def test_pipe_methods_belong_to_the_interconnect():
    layers = ledger.LayerMap(ROOT / "src" / "repro")
    primitives = str((ROOT / "src" / "repro" / "sim"
                      / "primitives.py").resolve())
    source = pathlib.Path(primitives).read_text().splitlines()
    pipe_line = next(i for i, line in enumerate(source, 1)
                     if line.startswith("class Pipe"))
    assert layers.layer((primitives, pipe_line + 20, "transfer")) \
        == "interconnect"
    assert layers.layer((primitives, 1, "<module>")) == "sim"
    assert layers.layer(("~", 0, "<built-in method len>")) is None


def _func(rel, line, name):
    return (str((ROOT / "src" / "repro" / rel).resolve()), line, name)


def test_ledger_charges_builtins_and_resumes_to_their_layers():
    loop = _func("sim/engine.py", 518, "_run_fast")
    resume = _func("sim/engine.py", 239, "_resume")
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    gen = _func("collectives/baseline.py", 240, "_rank_proc")
    tick = _func("memory/dram.py", 100, "_issue_tick")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    length = ("~", 0, "<built-in method builtins.len>")
    # pstats layout: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = {
        loop: (1, 1, 1.0, 9.0, {}),
        resume: (5, 5, 0.5, 3.0, {loop: (5, 5, 0.5, 3.0)}),
        send: (5, 5, 0.2, 2.5, {resume: (5, 5, 0.2, 2.5)}),
        gen: (5, 5, 2.0, 2.3, {send: (5, 5, 2.0, 2.3)}),
        tick: (7, 7, 3.0, 4.0, {loop: (7, 7, 3.0, 4.0)}),
        heappop: (12, 12, 0.6, 0.6, {loop: (12, 12, 0.6, 0.6)}),
        length: (4, 4, 0.4, 0.4, {tick: (3, 3, 0.3, 0.3),
                                  gen: (1, 1, 0.1, 0.1)}),
    }
    book = ledger.build_ledger(stats, ledger.LayerMap(ROOT / "src" / "repro"))
    assert book["self_s"]["sim"] == pytest.approx(1.0 + 0.5 + 0.2 + 0.6)
    assert book["self_s"]["memory"] == pytest.approx(3.0 + 0.3)
    assert book["self_s"]["collectives"] == pytest.approx(2.0 + 0.1)
    assert sum(book["self_s"].values()) == pytest.approx(book["total_s"])
    # Resumes land on the generator's module, not the engine's helper;
    # builtins the loop calls itself (heappop) are not dispatches.
    assert book["dispatches"]["collectives"] == 5
    assert book["dispatches"]["memory"] == 7
    assert book["dispatches"]["sim"] == 0
    assert book["calls"]["sim"] == 1 + 5
    assert book["calls"]["collectives"] == 5


def test_benchmark_json_lists_the_ledger():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names[:len(ledger.per_layer_names())] == ledger.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]}.isdisjoint(run.QUALITY)


def test_golden_mismatch_counts_as_failed_op():
    class FakeOp:
        def __init__(self, key):
            self.key = key

    class FakeWorkload:
        name = "fake"
        ops = [FakeOp("a"), FakeOp("b")]

        def run(self, op):
            return op.key

        def digest(self, op, output):
            return {"fp": golden.fingerprint(output)}

        def check(self, op, digest):
            return None

    expected = {"a": golden.fingerprint("a"), "b": golden.fingerprint("x")}
    runner = worker.Runner(FakeWorkload(), expected, require_golden=True)
    for op in FakeWorkload.ops:
        runner.attempt(op, lambda fn: fn())
    report = runner.report()
    assert report["attempted"] == 2
    assert report["failed"] == 1
    assert "golden fingerprint mismatch" in report["failures"][0]


def test_op_checker_flags_missing_and_drifting_outputs():
    strict = golden.OpChecker({}, require_golden=True)
    assert strict.check("a", "1") == "no golden fingerprint recorded"
    lenient = golden.OpChecker({}, require_golden=False)
    assert lenient.check("a", "1") is None
    assert lenient.check("a", "1") is None
    assert lenient.check("a", "2") == "output differs from an earlier pass"


def test_update_golden_refuses_without_reason(capsys):
    assert run.main(["--update-golden"]) == 2
    assert "without --reason" in capsys.readouterr().err


def test_verdict_worse_beyond_bound():
    v = verdict([1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20],
                "lower", 0.10)
    assert v["verdict"] == "worse"
    assert v["worsening"] == pytest.approx(0.20)


def test_verdict_better_needs_more_than_parent_spread():
    before = [1.00, 1.02, 0.98, 1.00, 1.01, 0.99]
    assert verdict(before, [0.90, 0.91, 0.89, 0.90], "lower",
                   0.10)["verdict"] == "better"
    assert verdict(before, [0.995, 1.0, 0.99, 1.0], "lower",
                   0.10)["verdict"] == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.3, 1.0, 0.8, 1.2]
    assert verdict(noisy, [1.0, 1.1, 0.9, 1.0, 1.05], "lower",
                   0.10)["verdict"] == "unresolved"
    # ... unless every new run beats every old one.
    assert verdict(noisy, [0.5, 0.55, 0.6, 0.52], "lower",
                   0.10)["verdict"] == "better"


def test_verdict_needs_several_runs_per_side():
    assert verdict([1.0], [1.3], "lower", 0.10)["verdict"] == "unresolved"
    assert verdict([1.0, 1.0], [0.9, 0.9], "lower", 0.10)["verdict"] \
        == "unresolved"
    assert verdict([1.0] * 3, [0.9] * 3, "lower", 0.10)["verdict"] \
        == "better"
    # Exact metrics need no spread.
    assert verdict([0.05], [0.06], "lower", 0.0)["verdict"] == "worse"


def test_verdict_higher_is_better_and_exact_metrics():
    assert verdict([10, 10, 10], [8, 8, 8], "higher", 0.1)["verdict"] \
        == "worse"
    assert verdict([1.0, 1.0], [1.0, 1.0], "higher", 0.0)["verdict"] \
        == "same"
    assert verdict([1.0, 1.0], [0.999, 0.999], "higher", 0.0)["verdict"] \
        == "worse"
    # fail_frac: any failure where there was none is a regression.
    assert verdict([0.0, 0.0], [0.01, 0.0, 0.01], "lower", 0.0)["verdict"] \
        == "worse"
