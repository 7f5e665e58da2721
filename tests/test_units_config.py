"""Unit tests for repro.units and repro.config (Table 1 rendering)."""

import dataclasses

import pytest

from repro import units
from repro.config import (
    ComputeConfig,
    MemoryConfig,
    SystemConfig,
    table1_system,
)


# --------------------------------------------------------------------- units

def test_bandwidth_units_are_bytes_per_ns():
    assert units.gbps(150) == 150.0
    assert units.tbps(1) == 1000.0


def test_cycle_conversions_roundtrip():
    ns = units.cycles_to_ns(1400, clock_ghz=1.4)
    assert ns == pytest.approx(1000.0)
    assert units.ns_to_cycles(ns, clock_ghz=1.4) == pytest.approx(1400)


def test_cycle_conversion_validation():
    with pytest.raises(ValueError):
        units.cycles_to_ns(10, 0)
    with pytest.raises(ValueError):
        units.ns_to_cycles(10, -1)


def test_pretty_bytes():
    assert units.pretty_bytes(512) == "512 B"
    assert units.pretty_bytes(2 * units.MiB) == "2.00 MiB"


def test_pretty_time():
    assert units.pretty_time(500) == "500.0 ns"
    assert units.pretty_time(2500) == "2.50 us"
    assert units.pretty_time(3 * units.MS) == "3.00 ms"
    assert units.pretty_time(2 * units.S) == "2.000 s"


# -------------------------------------------------------------------- config

def test_table1_defaults_match_paper():
    system = table1_system(n_gpus=8)
    assert system.n_gpus == 8
    assert system.compute.n_cus == 80
    assert system.compute.clock_ghz == pytest.approx(1.4)
    assert system.memory.llc_bytes == 16 * units.MiB
    assert system.memory.hbm_bandwidth == pytest.approx(1000.0)  # 1 TB/s
    # "150 GB/s bi-directional" ring => 75 GB/s each direction.
    assert system.link.bandwidth == pytest.approx(75.0)
    assert system.link.bidirectional_bandwidth == pytest.approx(150.0)
    assert system.link.latency_ns == pytest.approx(500.0)
    assert system.memory.nmc_ccdwl_factor == pytest.approx(2.0)
    assert system.tracker.n_entries == 256
    assert system.tracker.size_bytes == 19 * units.KiB


def test_peak_flops_is_order_100_tflops():
    compute = ComputeConfig()
    # 80 CUs * 1024 FLOP/cycle * 1.4 GHz = 114.7 TFLOP/s = 114688 FLOP/ns.
    assert compute.peak_flops_per_ns == pytest.approx(114688.0)


def test_reduce_bandwidth_scales_with_cus():
    compute = ComputeConfig()
    full = compute.reduce_bandwidth()
    eight = compute.reduce_bandwidth(8)
    assert full == pytest.approx(eight * 10)
    # With 8 CUs the reduce bandwidth is far below HBM bandwidth -> the
    # Figure 6 contention effect.
    assert eight < MemoryConfig().hbm_bandwidth


def test_gemm_wf_tile_geometry():
    system = table1_system()
    gemm = system.gemm
    assert gemm.wf_tile_elems == (128 * 128) // 4
    assert gemm.wgs_per_stage(n_cus=80) == 80


def test_min_gpus_enforced():
    with pytest.raises(ValueError):
        SystemConfig(n_gpus=1)


#: (sub-config, field, value) inputs a run used to crash on mid-way
#: (ZeroDivisionError, IndexError, SimulationError, "GEMM never
#: finished") or silently clamp or ignore.
_BAD_CONFIG_VALUES = [
    ("fidelity", "quantum_bytes", 0),
    ("fidelity", "quantum_bytes", -4096),
    ("fidelity", "gemm_waves_per_stage", 0),
    ("fidelity", "gemm_waves_per_stage", -3),
    ("gemm", "wfs_per_wg", 0),
    ("gemm", "macro_tile_m", 0),
    ("compute", "clock_ghz", 0),
    ("compute", "gemm_efficiency", 0),
    ("compute", "reduce_bytes_per_cu_per_cycle", 0),
    ("tracker", "n_entries", 0),
    ("memory", "n_channels", 0),
    ("memory", "nmc_ccdwl_factor", float("nan")),
    ("memory", "llc_bytes", -1),
    ("memory", "llc_hit_exponent", float("nan")),
    ("memory", "llc_input_fraction_cached_writes", -0.5),
    ("memory", "llc_input_fraction_bypassed_writes", float("nan")),
    ("memory", "llc_reuse_window_stages", -1),
    ("link", "bandwidth", 0),
    ("link", "latency_ns", float("nan")),
    ("mca", "starvation_limit_ns", float("nan")),
]


@pytest.mark.parametrize(
    "section, name, value", _BAD_CONFIG_VALUES,
    ids=[f"{s}.{n}={v}" for s, n, v in _BAD_CONFIG_VALUES])
def test_config_rejects_values_a_run_cannot_honour(section, name, value):
    """An accepted configuration must run clean, so each of these is a
    ``ValueError`` naming the field at construction time."""
    sub = getattr(table1_system(n_gpus=4), section)
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(sub, **{name: value})


def test_replace_and_with_fidelity():
    system = table1_system()
    smaller = system.with_fidelity(quantum_bytes=4096)
    assert smaller.fidelity.quantum_bytes == 4096
    assert system.fidelity.quantum_bytes != 4096  # original untouched
    sixteen = system.replace(n_gpus=16)
    assert sixteen.n_gpus == 16


def test_scaled_compute_future_hardware():
    system = table1_system()
    future = system.scaled_compute(2.0)
    assert future.compute.n_cus == 160
    assert future.link.bandwidth == system.link.bandwidth  # network unchanged


def test_configs_are_frozen():
    system = table1_system()
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.n_gpus = 4  # type: ignore[misc]


def test_channel_bandwidth_partitioning():
    memory = MemoryConfig()
    assert memory.channel_bandwidth * memory.n_channels == pytest.approx(
        memory.effective_bandwidth
    )


def test_mca_threshold_table_shape():
    system = table1_system()
    # thresholds {5, 10, 30, unlimited} from Section 6.1.3.
    assert system.mca.occupancy_thresholds == (5, 10, 30, None)
    assert len(system.mca.intensity_breakpoints) == (
        len(system.mca.occupancy_thresholds) - 1
    )
