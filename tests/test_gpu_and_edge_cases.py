"""Edge-case coverage: GPU launch bookkeeping, engine corners, memory
controller details, figure-module internals."""

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments.figure17 import TrafficSeries
from repro.gpu.gemm import GEMMKernel
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import RingTopology
from repro.memory.cache import estimate_gemm_traffic
from repro.memory.request import AccessKind, Stream
from repro.obs import MetricsRegistry
from repro.sim import Environment, Resource, SimulationError


def small_topo(n_gpus=2, quantum=8 * 1024):
    env = Environment()
    system = table1_system(n_gpus=n_gpus).with_fidelity(quantum_bytes=quantum)
    return env, RingTopology(env, system)


# --------------------------------------------------------------- GPU.launch

def test_launch_records_interval():
    env, topo = small_topo()
    env.obs = MetricsRegistry()
    env.trace = TraceRecorder()
    gpu = topo.gpus[0]
    shape = GEMMShape(256, 256, 128)
    grid = TileGrid(shape, topo.system.gemm, n_cus=2)
    traffic = estimate_gemm_traffic(grid, topo.system.memory, False)
    kernel = GEMMKernel(grid, traffic, n_cus=2)
    proc = gpu.launch(kernel, name="my-gemm")
    env.run_until_process(proc)
    compute = env.obs.get(0, "compute")
    assert compute.counter("kernels") == 1
    start, end = compute.spans("kernel").bounds()
    assert end > start
    [span] = env.trace.by_category("kernel")
    assert (span.name, span.track) == ("my-gemm", "GPU0")
    assert (span.start_ns, span.end_ns) == (start, end)


def test_launch_two_kernels_sequentially_tracked():
    env, topo = small_topo()
    env.obs = MetricsRegistry()
    gpu = topo.gpus[0]
    shape = GEMMShape(256, 256, 128)
    for i in range(2):
        grid = TileGrid(shape, topo.system.gemm, n_cus=2)
        traffic = estimate_gemm_traffic(grid, topo.system.memory, False)
        proc = gpu.launch(GEMMKernel(grid, traffic, n_cus=2), name="k")
        env.run_until_process(proc)
    compute = env.obs.get(0, "compute")
    assert compute.counter("kernels") == 2
    assert compute.spans("kernel").count == 2


# ------------------------------------------------------------ engine corners

def test_resource_handoff_preserves_capacity_accounting():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        yield res.request()
        order.append(tag)
        yield env.timeout(1)
        res.release()

    for tag in range(5):
        env.process(user(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]
    assert res.in_use == 0
    assert res.available == 1


def test_nested_process_chain_returns_through_layers():
    env = Environment()

    def leaf():
        yield env.timeout(1)
        return "leaf"

    def middle():
        value = yield env.process(leaf())
        return value + "+middle"

    def root():
        value = yield env.process(middle())
        return value + "+root"

    proc = env.process(root())
    assert env.run_until_process(proc) == "leaf+middle+root"


def test_all_of_with_already_fired_events():
    env = Environment()
    done = env.event()
    done.succeed("x")
    env.run()
    collected = []

    def proc():
        values = yield env.all_of([done, env.timeout(5, "y")])
        collected.append(values)

    env.process(proc())
    env.run()
    assert collected == [["x", "y"]]


# --------------------------------------------------------- memory controller

def test_merged_traffic_handles_missing_keys():
    env, topo = small_topo()
    mc = topo.gpus[0].mc
    merged = mc.merged_traffic(["nope.read", "also.missing"])
    assert len(merged) == 0


def test_quantum_exact_multiple_has_no_remainder_request():
    env, topo = small_topo(quantum=1024)
    mc = topo.gpus[0].mc
    events = mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 4096, "gemm")
    assert len(events) == 4
    env.run()
    assert mc.counters.get("gemm.read") == 4096


def test_fractional_bytes_round_up_to_one_request():
    env, topo = small_topo(quantum=1024)
    mc = topo.gpus[0].mc
    events = mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 0.5, "gemm")
    assert len(events) == 1


# ------------------------------------------------------------ TrafficSeries

def test_traffic_series_sparkline_shapes():
    series = TrafficSeries("x", bin_starts=[0, 1, 2, 3],
                           bytes_per_bin=[0, 10, 5, 10])
    line = series.sparkline(width=4)
    assert len(line) == 4
    assert line[0] == " "       # zero bin
    assert series.peak == 10
    assert series.total == 25


def test_traffic_series_empty():
    series = TrafficSeries("x", bin_starts=[], bytes_per_bin=[])
    assert series.sparkline() == ""
    assert series.peak == 0.0


# ------------------------------------------------------------ kernel corners

def test_gemm_with_single_wave_config():
    env, topo = small_topo()
    system = topo.system.with_fidelity(gemm_waves_per_stage=1)
    env2 = Environment()
    topo2 = RingTopology(env2, system)
    shape = GEMMShape(512, 256, 128)
    grid = TileGrid(shape, system.gemm, n_cus=2)
    traffic = estimate_gemm_traffic(grid, system.memory, False)
    proc = topo2.gpus[0].launch(GEMMKernel(grid, traffic, n_cus=2))
    result = env2.run_until_process(proc)
    assert result.duration > 0


def test_zero_launch_overhead():
    env, topo = small_topo()
    shape = GEMMShape(256, 256, 128)
    grid = TileGrid(shape, topo.system.gemm, n_cus=2)
    traffic = estimate_gemm_traffic(grid, topo.system.memory, False)
    kernel = GEMMKernel(grid, traffic, n_cus=2, launch_overhead_ns=0.0)
    proc = topo.gpus[0].launch(kernel)
    result = env.run_until_process(proc)
    assert result.start == 0.0


def test_link_lookup_error_message_names_gpus():
    env, topo = small_topo()
    with pytest.raises(SimulationError, match="GPU 0 has no link to GPU 5"):
        topo.gpus[0].link_to(5)
