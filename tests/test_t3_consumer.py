"""Tests for consumer-side fusion: AG overlapped with its consumer GEMM
(Section 7.2)."""

import pytest

from repro.config import table1_system
from repro.faults import FaultInjector, FaultPlan, TrackerPressure
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.sim import Environment, SimulationError
from repro.t3.consumer import FusedAGConsumerGEMM, sequential_ag_then_gemm


def make_topo(n_gpus=4, quantum=16 * 1024, faults=None):
    env = Environment()
    if faults is not None:
        env.faults = FaultInjector(faults)
    system = table1_system(n_gpus=n_gpus).with_fidelity(quantum_bytes=quantum)
    return env, RingTopology(env, system)


SHAPE = GEMMShape(2048, 1024, 1024, name="consumer")


def test_fused_ag_gemm_completes():
    env, topo = make_topo()
    fused = FusedAGConsumerGEMM(topo, SHAPE, n_cus=8)
    result = fused.run()
    assert result.duration > 0
    assert len(result.gemm_results) == 4


def test_consumer_ledgers_balance():
    """Every foreign input chunk arrived exactly once."""
    env, topo = make_topo()
    fused = FusedAGConsumerGEMM(topo, SHAPE, n_cus=8)
    fused.run()
    assert len(fused.ledgers) == 4
    for ledger in fused.ledgers:
        rows = ledger.summary()
        assert len(rows) == 3
        assert all(count == 1 for _cid, count, _sealed in rows)


def test_evicted_gate_region_is_a_diagnosable_error():
    """A gate whose Tracker region was evicted never opens: the consumer
    GEMM stalls, which surfaces as a diagnosable error."""
    env, topo = make_topo(faults=FaultPlan(tracker=(
        TrackerPressure(gpu_id=1, evict_every=2),)))
    with pytest.raises(SimulationError) as excinfo:
        FusedAGConsumerGEMM(topo, SHAPE, n_cus=8).run()
    message = str(excinfo.value)
    first, second = message.splitlines()[:2]
    assert first == ("fused AG->GEMM deadlocked; pending tracker regions: "
                     "[]; dropped DMA completions: []")
    # The region the fault evicted is named, not only counted in the dump.
    assert second == "evicted tracker regions: [(1, [(0, -1)], 1)]"
    assert "gpu1.tracker: live=0 programmed=3 completed=2 evicted=1; " \
        "evicted regions: (0, -1)" in message
    assert "simulation diagnostic dump" in message
    assert "blocked gpu1.gemm" in message
    assert "trigger[gpu1]: 2 fired, 1 pending (r1.chunk0)" in message


def test_all_gates_fire_in_arrival_order():
    env, topo = make_topo()
    fused = FusedAGConsumerGEMM(topo, SHAPE, n_cus=8)
    result = fused.run()
    n = topo.system.n_gpus
    for rank in range(n):
        gates = result.gate_times[rank]
        assert set(gates) == set(range(n)) - {rank}
        # Ring-arrival order: chunk rank+1 lands before rank+2, etc.
        order = [(rank + offset) % n for offset in range(1, n)]
        times = [gates[c] for c in order]
        assert times == sorted(times)


def test_fused_beats_sequential_ag_then_gemm():
    """The point of Section 7.2: a long-running consumer hides the AG."""
    env1, topo1 = make_topo()
    fused = FusedAGConsumerGEMM(topo1, SHAPE, n_cus=8).run()
    env2, topo2 = make_topo()
    sequential = sequential_ag_then_gemm(topo2, SHAPE, n_cus=8)
    speedup = sequential / fused.duration
    assert speedup > 1.1


def test_first_stage_starts_before_ag_finishes():
    """The consumer's own-chunk stages are not gated; compute starts
    immediately while the ring is still moving data."""
    env, topo = make_topo()
    fused = FusedAGConsumerGEMM(topo, SHAPE, n_cus=8)
    result = fused.run()
    for rank, kernel in enumerate(fused.kernels):
        first_stage_end = kernel.result.stage_ends[0]
        last_gate = max(result.gate_times[rank].values())
        assert first_stage_end < last_gate


def test_gemm_never_reads_unarrived_chunks():
    """A gated stage's reads are issued only after its gate fires: the
    tracker regions complete before any stage touching them computes."""
    env, topo = make_topo()
    fused = FusedAGConsumerGEMM(topo, SHAPE, n_cus=8)
    result = fused.run()
    for rank, (grid, kernel) in enumerate(zip(fused.grids, fused.kernels)):
        gates = result.gate_times[rank]
        for stage in grid.stages:
            foreign = [c for c in stage.chunk_bytes if c != rank]
            if not foreign:
                continue
            gate_time = max(gates[c] for c in foreign)
            stage_end = kernel.result.stage_ends[stage.index]
            assert stage_end >= gate_time


def test_stage_gate_length_validation():
    env, topo = make_topo()
    from repro.gpu.gemm import GEMMKernel
    from repro.memory.cache import estimate_gemm_traffic
    from repro.gpu.wavefront import TileGrid

    grid = TileGrid(SHAPE, topo.system.gemm, n_cus=8)
    traffic = estimate_gemm_traffic(grid, topo.system.memory, False)
    with pytest.raises(ValueError, match="gate slot"):
        GEMMKernel(grid, traffic, stage_gates=[None])


def test_fused_ag_gemm_eight_gpus():
    env, topo = make_topo(n_gpus=8, quantum=32 * 1024)
    fused = FusedAGConsumerGEMM(topo, GEMMShape(4096, 1024, 512), n_cus=16)
    result = fused.run()
    assert len(result.gemm_results) == 8
