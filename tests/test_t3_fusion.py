"""Integration tests for T3 fused GEMM-RS (repro.t3.fusion)."""

import pytest

from repro.config import table1_system
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.sim import Environment
from repro.t3.address_map import AddressSpaceConfig, ChunkRoute, RouteKind
from repro.t3.configs import CONFIGS, config_by_name
from repro.t3.fusion import FusedGEMMRS


def run_fused(n_gpus=4, m=1024, n=512, k=256, n_cus=4, quantum=8 * 1024,
              **kwargs):
    env = Environment()
    system = table1_system(n_gpus=n_gpus).with_fidelity(quantum_bytes=quantum)
    topo = RingTopology(env, system)
    fused = FusedGEMMRS(topo, GEMMShape(m, n, k), n_cus=n_cus, **kwargs)
    result = fused.run()
    return env, topo, fused, result


# -------------------------------------------------------------- address map

def test_ring_rs_routes_cover_all_chunks():
    config = AddressSpaceConfig.ring_reduce_scatter(rank=1, n_gpus=4)
    assert config.remote_chunks() == [2]          # rank+1
    assert sorted(config.dma_chunks()) == [0, 3]  # middle chunks
    assert config.route(1).kind is RouteKind.LOCAL_TERMINAL
    # DMA destination is the downstream neighbour (rank-1).
    assert config.route(3).dst_gpu == 0
    assert config.route(2).dst_gpu == 0


def test_ring_rs_expected_updates_is_two():
    """Section 4.2.1: ring-RS expects two updates per element."""
    config = AddressSpaceConfig.ring_reduce_scatter(rank=0, n_gpus=8)
    for cid in config.tracked_chunks():
        assert config.route(cid).expected_updates == 2


def test_direct_rs_routes():
    config = AddressSpaceConfig.direct_reduce_scatter(rank=2, n_gpus=4)
    assert config.remote_chunks() == [0, 1, 3]
    assert config.route(2).kind is RouteKind.LOCAL_TERMINAL
    assert config.route(2).expected_updates == 4
    assert config.route(0).dst_gpu == 0  # straight to the final owner


def test_chunk_route_validation():
    with pytest.raises(ValueError):
        ChunkRoute(0, RouteKind.REMOTE_UPDATE)  # missing dst
    with pytest.raises(ValueError):
        ChunkRoute(0, RouteKind.LOCAL_TERMINAL, dst_gpu=1)
    with pytest.raises(ValueError):
        ChunkRoute(0, RouteKind.LOCAL_UPDATE, dst_gpu=1, expected_updates=0)
    with pytest.raises(ValueError):
        AddressSpaceConfig.ring_reduce_scatter(0, 1)


# -------------------------------------------------------------------- fusion

def test_fused_run_completes_all_chunks():
    env, topo, fused, result = run_fused()
    assert result.duration > 0
    assert len(result.per_rank_terminal) == 4
    # All DMA commands fired exactly once.
    for rank, gpu in enumerate(topo.gpus):
        expected = len(fused.address_configs[rank].dma_chunks())
        assert len(gpu.dma.triggered_commands) == expected


def test_fused_reduction_invariants_hold():
    """Every tracked chunk on every rank accumulated exactly its two
    whole-chunk contributions (local + incoming)."""
    env, topo, fused, result = run_fused()
    for ledger in fused.ledgers:
        for _cid, count, _sealed in ledger.summary():
            assert count == 2


def test_fused_works_at_two_and_eight_gpus():
    for n_gpus in (2, 8):
        env, topo, fused, result = run_fused(n_gpus=n_gpus, m=2048)
        assert len(result.per_rank_terminal) == n_gpus


def test_fused_dram_accounting_matches_paper_structure():
    """Per GPU with T3: RS reads = (N-2) chunks, total updates =
    (2N-2) chunks (Figure 10b / Section 6.2 accounting)."""
    env, topo, fused, result = run_fused(n_gpus=4, m=1024, n=512)
    grid = fused.grids[0]
    chunk_bytes = grid.chunk_bytes_total(0)  # balanced chunks here
    n = 4
    for gpu in topo.gpus:
        rs_reads = gpu.mc.counters.get("rs.read")
        assert rs_reads == pytest.approx((n - 2) * chunk_bytes, rel=0.01)
        local_updates = gpu.mc.counters.get("gemm.update")
        incoming = gpu.mc.counters.get("rs.update")
        # local: N-1 chunks (one went remote); incoming: N-1 contributions.
        assert local_updates == pytest.approx((n - 1) * chunk_bytes, rel=0.01)
        assert incoming == pytest.approx((n - 1) * chunk_bytes, rel=0.01)
        # No plain GEMM writes at all: everything is an NMC update.
        assert gpu.mc.counters.get("gemm.write") == 0


def test_fused_no_cu_collective_kernel():
    """T3's whole point: communication moves without CU kernels — there is
    no 'rs' compute-stream read traffic beyond the DMA source reads."""
    env, topo, fused, result = run_fused()
    # The baseline CU kernel would have produced rs.write traffic from
    # reduce outputs; T3 produces only rs.update (NMC) traffic.
    for gpu in topo.gpus:
        assert gpu.mc.counters.get("rs.write") == 0


def test_fused_rs_tail_is_shorter_than_sequential_rs():
    """Fusion hides most of the RS behind the GEMM: the tail after GEMM
    completion must be far below a full sequential RS."""
    env, topo, fused, result = run_fused(m=2048, n=1024, k=2048, n_cus=8)
    gemm_end = max(r.end for r in result.gemm_results)
    tail = result.end - gemm_end
    from repro.collectives.api import ring_rs_time
    sequential_rs = ring_rs_time(
        fused.shape.output_bytes, topo.system)
    assert tail < 0.6 * sequential_rs


def test_stagger_disabled_still_correct():
    env, topo, fused, result = run_fused(stagger=False)
    assert len(result.per_rank_terminal) == 4
    for ledger in fused.ledgers:
        for _cid, count, _sealed in ledger.summary():
            assert count == 2


def test_stagger_helps_fused_latency():
    _env1, _t1, _f1, staggered = run_fused(m=2048, n=1024, k=512, n_cus=8)
    _env2, _t2, _f2, unstaggered = run_fused(m=2048, n=1024, k=512, n_cus=8,
                                             stagger=False)
    # Without staggering every device produces chunk 0 first and the ring
    # serializes; staggered production must not be slower.
    assert staggered.duration <= unstaggered.duration * 1.02


def test_tracker_saw_every_update():
    env, topo, fused, result = run_fused()
    for tracker, config, grid in zip(fused.trackers, fused.address_configs,
                                     fused.grids):
        assert tracker.live_regions == 0  # everything completed
        programmed = sum(
            len(grid.chunk_wgs(cid)) for cid in config.tracked_chunks())
        assert tracker.stats.regions_programmed == programmed
        assert tracker.stats.regions_completed == programmed


# -------------------------------------------------------------------- configs

def test_config_registry():
    names = [c.name for c in CONFIGS]
    assert names == ["Sequential", "T3", "T3-MCA", "Ideal-GEMM-RS-Overlap",
                     "Ideal-RS+NMC"]
    assert config_by_name("T3-MCA").mc_policy == "mca"
    assert config_by_name("Ideal-RS+NMC").nmc_rs
    with pytest.raises(ValueError):
        config_by_name("nope")


def test_config_validation():
    from repro.t3.configs import RunConfig
    with pytest.raises(ValueError):
        RunConfig("bad", fused=True, mc_policy="mca", analytic=True)
