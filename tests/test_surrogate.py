"""Tests for the calibrated analytic surrogate (repro.surrogate).

Model-math tests are pure (synthetic records, no simulation); the
round-trip and triage tests simulate a handful of tiny cases through an
isolated on-disk cache so they stay fast and hermetic.
"""

import json

import pytest

from repro.config import table1_system
from repro.experiments import sublayer_sweep
from repro.experiments.sublayer_sweep import case_shape
from repro.models.transformer import TransformerConfig
from repro.surrogate import (
    CalibratedSurrogate,
    TrainingRecord,
    analytic_times,
    harvest_cache,
    records_from_suite,
)
from repro.surrogate.features import gemm_analytic_time
from repro.surrogate.grid import synthetic_cases


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the process-wide sweep cache at a private directory."""
    sublayer_sweep.configure(cache_dir=str(tmp_path), disk_cache=True)
    sublayer_sweep.clear_cache()
    yield tmp_path
    sublayer_sweep.configure(cache_dir="", disk_cache=True)
    sublayer_sweep._OPTIONS.cache_dir = None
    sublayer_sweep._DISK_CACHE = None
    sublayer_sweep.clear_cache()


def _tiny_cases(n=6):
    cases = []
    for hidden in (512, 1024):
        for batch in (1, 2):
            model = TransformerConfig(name=f"tiny-H{hidden}-B{batch}",
                                      hidden=hidden, n_layers=1,
                                      seq_len=512, batch=batch)
            cases.append(model.sublayer("FC-2", 4))
            cases.append(model.sublayer("OP", 4))
    return cases[:n]


# ------------------------------------------------------------- features


def test_analytic_times_composition():
    system = table1_system(n_gpus=8)
    model = TransformerConfig(name="m", hidden=2048, n_layers=1,
                              seq_len=512, batch=2)
    sub = model.sublayer("FC-2", 8)
    shape = case_shape(sub, sublayer_sweep.FAST_SCALE, system)
    times = analytic_times(shape, system)
    # Sequential stacks all three phases; every overlap config hides the
    # RS under the GEMM, so it can never exceed Sequential.
    assert times["Sequential"] > times["T3"]
    assert times["Sequential"] > times["Ideal-GEMM-RS-Overlap"]
    # The bypass-write GEMM differs from the cached-write one, so T3 and
    # the ideal overlap need not be equal — but both must be positive.
    assert all(value > 0 for value in times.values())


def test_analytic_times_respects_config_subset():
    system = table1_system(n_gpus=4)
    model = TransformerConfig(name="m", hidden=1024, n_layers=1,
                              seq_len=512, batch=1)
    shape = case_shape(model.sublayer("OP", 4), 8, system)
    times = analytic_times(shape, system, configs=["Sequential", "T3"])
    assert sorted(times) == ["Sequential", "T3"]


def test_gemm_analytic_time_scales_with_shape():
    system = table1_system(n_gpus=4)
    model_small = TransformerConfig(name="s", hidden=1024, n_layers=1,
                                    seq_len=512, batch=1)
    model_big = TransformerConfig(name="b", hidden=4096, n_layers=1,
                                  seq_len=2048, batch=4)
    small = gemm_analytic_time(model_small.sublayer("FC-2", 4).gemm, system)
    big = gemm_analytic_time(model_big.sublayer("FC-2", 4).gemm, system)
    assert big > small > 0


# ---------------------------------------------------------------- model


def _affine_records(slope, intercept, xs, config="T3", sublayer="FC-2",
                    tp=8):
    return [TrainingRecord(config=config, sublayer=sublayer, tp=tp,
                           analytic_ns=x, simulated_ns=slope * x + intercept)
            for x in xs]


def test_fit_recovers_affine_relation():
    records = _affine_records(1.08, 40_000.0, [1e4, 1e5, 1e6, 1e7])
    surrogate = CalibratedSurrogate.fit(records)
    slope, intercept = surrogate.correction("T3", "FC-2", 8)
    assert slope == pytest.approx(1.08, rel=1e-6)
    assert intercept == pytest.approx(40_000.0, rel=1e-6)
    # Interpolation inside the training range is near-exact.
    predicted = surrogate.predict("T3", "FC-2", 8, 5e5)
    assert predicted == pytest.approx(1.08 * 5e5 + 40_000.0, rel=1e-6)


def test_single_record_bucket_degrades_to_ratio():
    surrogate = CalibratedSurrogate.fit(_affine_records(1.5, 0.0, [1e5]))
    slope, intercept = surrogate.correction("T3", "FC-2", 8)
    assert slope == pytest.approx(1.5)
    assert intercept == 0.0


def test_fallback_chain():
    records = _affine_records(1.2, 0.0, [1e4, 1e6], tp=8)
    surrogate = CalibratedSurrogate.fit(records)
    # Fine bucket: exact.  Unseen TP: falls back to (config, sublayer).
    assert surrogate.covers("T3", "FC-2", 8)
    assert not surrogate.covers("T3", "FC-2", 16)
    assert surrogate.predict("T3", "FC-2", 16, 1e5) == \
        surrogate.predict("T3", "FC-2", 8, 1e5)
    # Unseen sublayer: falls back to (config,).
    assert surrogate.predict("T3", "OP", 4, 1e5) == \
        surrogate.predict("T3", "FC-2", 8, 1e5)
    # Unseen config: identity (prediction == analytic).
    assert surrogate.predict("Sequential", "FC-2", 8, 1e5) == 1e5


def test_predict_never_undercuts_analytic():
    # A fitted negative intercept extrapolated to a tiny case must clamp
    # at the roofline, not predict sim < analytic.
    records = _affine_records(1.0, -50_000.0, [1e6, 1e7])
    surrogate = CalibratedSurrogate.fit(records)
    assert surrogate.predict("T3", "FC-2", 8, 1e3) == pytest.approx(1e3)


def test_serialization_round_trip():
    records = (_affine_records(1.1, 1000.0, [1e4, 1e5])
               + _affine_records(1.3, 0.0, [2e4], config="Sequential",
                                 sublayer="OP", tp=4))
    surrogate = CalibratedSurrogate.fit(records)
    clone = CalibratedSurrogate.from_dict(
        json.loads(json.dumps(surrogate.to_dict())))
    for config, sublayer, tp in (("T3", "FC-2", 8), ("Sequential", "OP", 4),
                                 ("T3", "unknown", 1)):
        assert clone.predict(config, sublayer, tp, 3e5) == \
            surrogate.predict(config, sublayer, tp, 3e5)
    assert clone.n_records == surrogate.n_records


def test_evaluate_handles_exact_hits():
    records = _affine_records(1.0, 0.0, [1e4, 1e5, 1e6])
    surrogate = CalibratedSurrogate.fit(records)
    stats = surrogate.evaluate(records)
    assert stats["n"] == 3
    assert stats["mae_rel"] == pytest.approx(0.0, abs=1e-9)
    # log1p-based geomean must not blow up on zero errors.
    assert stats["geomean_rel"] == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------- grid


def test_synthetic_grid_is_valid_and_deterministic():
    cases = synthetic_cases(n=200, seed=7)
    assert len(cases) == 200
    assert [c.label for c in cases] == \
        [c.label for c in synthetic_cases(n=200, seed=7)]
    assert [c.label for c in cases] != \
        [c.label for c in synthetic_cases(n=200, seed=8)]
    # Every emitted case must survive the simulator's chunkability floor.
    for sub in cases[:50]:
        system = table1_system(n_gpus=sub.tp)
        shape = case_shape(sub, sublayer_sweep.FAST_SCALE, system)
        assert shape.m >= 1


def test_synthetic_grid_default_scale():
    # The full default grid comfortably exceeds the 10k demo size.
    assert len(synthetic_cases(n=None)) >= 10_000


# ------------------------------------------------- harvest + round trip


def test_round_trip_on_simulated_cases(isolated_cache):
    """Train on four simulated tiny cases, predict two held-out ones:
    the audit error must stay within a loose sanity bound (the bench
    asserts the tight one on its own grid)."""
    cases = _tiny_cases(6)
    suites = sublayer_sweep.run_sweep(
        cases=cases, configs=["Sequential", "T3"])
    train, held_out = suites[:4], suites[4:]
    records = [r for s in train for r in records_from_suite(s)]
    surrogate = CalibratedSurrogate.fit(records)
    stats = surrogate.evaluate(
        [r for s in held_out for r in records_from_suite(s)])
    assert stats["n"] == 4
    assert stats["mae_rel"] <= 0.25
    # Harvest sees everything the sweep cached.
    harvested = harvest_cache(sublayer_sweep.disk_cache())
    assert len(harvested) >= len(records)


def test_triaged_sweep_structure(isolated_cache):
    cases = _tiny_cases(6)
    result = sublayer_sweep.run_sweep(
        cases=cases, configs=["Sequential", "T3", "T3-MCA"],
        triage="surrogate",
        triage_options=dict(frontier=2, min_audit=1, audit_fraction=0.0,
                            max_train=4, seed=3))
    assert result.n_scored == len(cases)
    assert 0 < result.n_simulated <= len(cases)
    assert result.frontier()
    assert set(result.suites) <= set(range(len(cases)))
    labels = {c.simulated_as for c in result.scored}
    assert "frontier" in labels
    # Every simulated case keeps its full suite; surrogate-only cases
    # carry per-config predictions.
    for case in result.scored:
        assert case.predicted["Sequential"] > 0
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["n_scored"] == len(cases)
    assert "audit" in payload and "surrogate" in payload
    assert "cases scored" in result.render()


def test_run_sweep_triage_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown triage mode"):
        sublayer_sweep.run_sweep(cases=_tiny_cases(1), triage="nope")


def test_run_sweep_triage_rejects_faults():
    from repro.faults import FaultPlan

    with pytest.raises(ValueError, match="healthy"):
        sublayer_sweep.run_sweep(
            cases=_tiny_cases(1), triage="surrogate",
            faults=FaultPlan.straggler(gpu_id=0, factor=2.0, seed=1))
