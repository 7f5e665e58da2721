"""Tests for the standalone NMC reduce-scatter and the DP-overlap study."""

import pytest

from repro import units
from repro.collectives.baseline import RingReduceScatter
from repro.config import table1_system
from repro.experiments import dp_overlap
from repro.faults import (DMACompletionFault, FaultInjector, FaultPlan,
                          TrackerPressure)
from repro.interconnect.topology import RingTopology
from repro.sim import Environment, SimulationError
from repro.t3.standalone import NMCReduceScatter


def make_topo(n_gpus=4, quantum=32 * 1024, policy="compute-priority",
              faults=None):
    env = Environment()
    if faults is not None:
        env.faults = FaultInjector(faults)
    system = table1_system(n_gpus=n_gpus).with_fidelity(quantum_bytes=quantum)
    return env, RingTopology(env, system, policy_name=policy)


def test_nmc_rs_completes_on_all_ranks():
    env, topo = make_topo()
    rs = NMCReduceScatter(topo, nbytes_total=4 * units.MiB)
    result = rs.run()
    assert set(result.per_rank_terminal) == {0, 1, 2, 3}
    assert result.duration > 0


def test_nmc_rs_uses_no_compute_stream_traffic():
    """Fully DMA-driven: every access is on the communication stream."""
    env, topo = make_topo()
    NMCReduceScatter(topo, nbytes_total=4 * units.MiB).run()
    for gpu in topo.gpus:
        from repro.memory.request import Stream
        assert gpu.mc.outstanding(Stream.COMPUTE) == 0
        # Reads = N-1 chunks forwarded; updates = N-1 incoming chunks.
        chunk = units.MiB
        assert gpu.mc.counters.get("rs.read") == pytest.approx(3 * chunk)
        assert gpu.mc.counters.get("rs.update") == pytest.approx(3 * chunk)
        assert gpu.mc.counters.get("rs.write") == 0


def test_nmc_rs_moves_less_data_than_cu_rs():
    """Section 7.4 / Figure 10: NMC halves the reduce-scatter's DRAM
    traffic relative to the CU-driven kernel."""
    env1, topo1 = make_topo()
    NMCReduceScatter(topo1, nbytes_total=4 * units.MiB).run()
    nmc_bytes = topo1.gpus[0].mc.total_bytes()
    env2, topo2 = make_topo()
    RingReduceScatter(topo2, nbytes_total=4 * units.MiB).run()
    cu_bytes = topo2.gpus[0].mc.total_bytes()
    assert nmc_bytes < cu_bytes * 0.7


def test_nmc_rs_is_at_least_as_fast_as_cu_rs():
    env1, topo1 = make_topo(quantum=64 * 1024)
    nmc = NMCReduceScatter(topo1, nbytes_total=16 * units.MiB).run().duration
    env2, topo2 = make_topo(quantum=64 * 1024)
    cu = RingReduceScatter(topo2, nbytes_total=16 * units.MiB).run().duration
    assert nmc <= cu * 1.05


def test_nmc_rs_all_dmas_triggered_exactly_once():
    env, topo = make_topo()
    rs = NMCReduceScatter(topo, nbytes_total=4 * units.MiB)
    rs.run()
    n = topo.system.n_gpus
    for gpu in topo.gpus:
        assert len(gpu.dma.triggered_commands) == n - 1


def test_nmc_rs_eight_gpus():
    env, topo = make_topo(n_gpus=8)
    result = NMCReduceScatter(topo, nbytes_total=8 * units.MiB).run()
    assert len(result.per_rank_terminal) == 8


def test_nmc_rs_ledgers_balance():
    """Every tracked chunk received exactly its one incoming partial."""
    env, topo = make_topo()
    rs = NMCReduceScatter(topo, nbytes_total=4 * units.MiB)
    rs.run()
    assert len(rs.ledgers) == 4
    for ledger in rs.ledgers:
        rows = ledger.summary()
        assert len(rows) == 3
        assert all(count == 1 for _cid, count, _sealed in rows)


def test_nmc_rs_dropped_completion_is_a_diagnosable_error():
    """A lost DMA completion is a hang, not a normal finish."""
    env, topo = make_topo(faults=FaultPlan(dma=(
        DMACompletionFault(action="drop", gpu_id=1),)))
    with pytest.raises(SimulationError) as excinfo:
        NMCReduceScatter(topo, nbytes_total=4 * units.MiB).run()
    message = str(excinfo.value)
    assert "dropped DMA completions: [(1, ['nmc-rs.chunk2'])]" in message
    assert "simulation diagnostic dump" in message


def test_nmc_rs_evicted_region_is_a_diagnosable_error():
    """GPU 1 loses a region's counts, so its chunk-3 partial never moves
    on and the ranks waiting for it report their pending regions."""
    env, topo = make_topo(quantum=16 * 1024, faults=FaultPlan(tracker=(
        TrackerPressure(gpu_id=1, evict_every=2),)))
    with pytest.raises(SimulationError) as excinfo:
        NMCReduceScatter(topo, nbytes_total=4 * units.MiB).run()
    message = str(excinfo.value)
    assert message.startswith(
        "NMC reduce-scatter deadlocked; pending tracker regions: "
        "[(0, [(3, -1)], 1), (3, [(3, -1)], 1)]")
    assert message.splitlines()[1] == \
        "evicted tracker regions: [(1, [(3, -1)], 1)]"
    assert "simulation diagnostic dump" in message
    assert "gpu1.tracker: live=0 programmed=3 completed=2 evicted=1" \
        in message


# ------------------------------------------------------------- dp_overlap

@pytest.fixture(scope="module")
def dp_result():
    return dp_overlap.run(fast=True)


def test_dp_overlap_matches_recorded_constants(dp_result):
    """Makespan, GEMM slowdown and RS finish (us) of every strategy, and
    the isolated GEMM, recorded while NMC-RS had its own run loop."""
    assert dp_result.gemm_isolated_us == 211.50446914027182
    assert {r.strategy: (r.makespan_us, r.gemm_slowdown, r.rs_us)
            for r in dp_result.rows} == {
        "CU-split": (232.28869050143155, 1.0982684736906219,
                     193.34489965175845),
        "NMC-RS/RR": (212.44419450980428, 1.0044430520704941,
                      129.1091368929112),
        "NMC-RS/MCA": (212.44419450980428, 1.0044430520704941,
                       129.1091368929112),
    }


def test_dp_overlap_strategies_present(dp_result):
    assert {r.strategy for r in dp_result.rows} == {
        "CU-split", "NMC-RS/RR", "NMC-RS/MCA"}


def test_nmc_substrate_removes_cu_interference(dp_result):
    """With the RS on DMA+NMC the GEMM keeps all CUs: no slowdown from
    compute sharing, unlike the CU-split strategy."""
    cu = dp_result.row("CU-split")
    nmc = dp_result.row("NMC-RS/MCA")
    assert cu.gemm_slowdown > 1.03
    assert nmc.gemm_slowdown < cu.gemm_slowdown
    assert nmc.makespan_us <= cu.makespan_us


def test_dp_overlap_render(dp_result):
    text = dp_result.render()
    assert "NMC-RS/MCA" in text and "isolated GEMM" in text
    with pytest.raises(KeyError):
        dp_result.row("nope")
