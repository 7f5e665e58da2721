"""Unit tests for collective plan steps and analytic models."""

import pytest

from repro import units
from repro.collectives.api import (
    CollectiveOp,
    collective_time,
    ring_ag_time,
    ring_ar_time,
    ring_rs_time,
    rs_wire_bytes_per_gpu,
    rs_with_nmc_time,
)
from repro.collectives.plan import (
    all_to_all_plan,
    direct_rs_plan,
    ring_all_gather_plan,
    ring_reduce_scatter_plan,
)
from repro.config import table1_system


def sends(plan, rank):
    return [s.send_chunks[0] for s in plan.steps(rank)]


def recvs(plan, rank):
    return [s.recv_chunks[0] for s in plan.steps(rank)]


def peers(plan, rank):
    """(destination, chunk) pairs of a direct plan, sorted."""
    return sorted((s.dst, s.send_chunks[0]) for s in plan.steps(rank))


# ---------------------------------------------------------------- plan steps

def test_rs_schedule_has_n_minus_1_steps():
    steps = ring_reduce_scatter_plan(4).steps(0)
    assert [s.step for s in steps] == [1, 2, 3]


def test_rs_schedule_send_chunks_follow_ring_order():
    # Device d sends chunk (d+s) mod N at step s.
    plan = ring_reduce_scatter_plan(4)
    assert sends(plan, 1) == [2, 3, 0]
    assert recvs(plan, 1) == [3, 0, 1]


def test_rs_final_recv_is_own_chunk():
    """After N-1 steps each rank has received its own (fully-reduced) chunk."""
    for n in (2, 4, 8):
        plan = ring_reduce_scatter_plan(n)
        for rank in range(n):
            assert recvs(plan, rank)[-1] == rank


def test_rs_every_chunk_traverses_every_rank():
    """Chunk e must be touched (sent) once by every rank except e itself."""
    n = 8
    plan = ring_reduce_scatter_plan(n)
    senders_of = {c: set() for c in range(n)}
    for rank in range(n):
        for chunk in sends(plan, rank):
            senders_of[chunk].add(rank)
    for chunk, senders in senders_of.items():
        assert senders == set(r for r in range(n) if r != chunk)


def test_rs_schedule_matches_gemm_production_order():
    """The chunk a device sends at step s is exactly the s-th chunk its
    staggered GEMM produces — the co-design invariant of Section 4.4."""
    from repro.config import GEMMKernelConfig
    from repro.gpu.wavefront import GEMMShape, TileGrid

    n = 4
    plan = ring_reduce_scatter_plan(n)
    for rank in range(n):
        grid = TileGrid(GEMMShape(1024, 512, 128), GEMMKernelConfig(),
                        n_cus=2, n_chunks=n, chunk_offset=rank)
        production = grid.chunk_order()
        assert production[:-1] == sends(plan, rank)
        assert production[-1] == rank  # own chunk last, for the final reduce


def test_ag_schedule_covers_all_chunks():
    n = 4
    plan = ring_all_gather_plan(n)
    for rank in range(n):
        assert set(recvs(plan, rank)) == set(range(n)) - {rank}
        # First send is the rank's own (just-reduced) chunk.
        assert sends(plan, rank)[0] == rank


def test_ag_forwards_what_arrived_last_step():
    plan = ring_all_gather_plan(8)
    assert sends(plan, 3)[1:] == recvs(plan, 3)[:-1]


def test_all_to_all_and_direct_rs_cover_peers():
    assert peers(all_to_all_plan(4), 1) == [(0, 0), (2, 2), (3, 3)]
    assert peers(direct_rs_plan(4), 2) == [(0, 0), (1, 1), (3, 3)]


def test_schedule_validation():
    with pytest.raises(ValueError):
        ring_reduce_scatter_plan(1)
    with pytest.raises(ValueError):
        ring_reduce_scatter_plan(4).chunk_sizes(3)


def test_chunk_sizes_balanced_and_exact():
    sizes = ring_reduce_scatter_plan(3).chunk_sizes(1000)
    assert sum(sizes) == 1000
    assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------- analytic times

SYSTEM = table1_system(n_gpus=8)


def test_rs_time_is_link_bound_at_table1_scale():
    nbytes = 64 * units.MiB
    t = ring_rs_time(nbytes, SYSTEM)
    chunk = nbytes / 8
    link_step = chunk / SYSTEM.link.bandwidth
    assert t >= 7 * link_step
    assert t <= 7 * link_step * 1.2 + 50_000


def test_rs_nmc_is_faster_than_cu_rs():
    nbytes = 64 * units.MiB
    assert rs_with_nmc_time(nbytes, SYSTEM) < ring_rs_time(nbytes, SYSTEM)


def test_rs_nmc_gain_shrinks_with_more_gpus():
    """NMC only removes the final-step reduction; more ring steps dilute
    it (Section 6.1.1: 7% at TP=8 vs 3% at TP=16)."""
    nbytes = 64 * units.MiB
    gain8 = (ring_rs_time(nbytes, table1_system(8))
             / rs_with_nmc_time(nbytes, table1_system(8)))
    gain16 = (ring_rs_time(nbytes, table1_system(16))
              / rs_with_nmc_time(nbytes, table1_system(16)))
    assert gain8 > gain16 > 1.0


def test_fewer_cus_slow_down_rs():
    """Figure 6: an RS squeezed onto 8 CUs slows ~1.4x."""
    nbytes = 64 * units.MiB
    full = ring_rs_time(nbytes, SYSTEM)
    squeezed = ring_rs_time(nbytes, SYSTEM, n_cus=8)
    ratio = squeezed / full
    assert 1.25 < ratio < 1.6
    # 16 CUs nearly keep up (paper: ~7% slowdown).
    mild = ring_rs_time(nbytes, SYSTEM, n_cus=16) / full
    assert mild < 1.15


def test_ar_is_rs_plus_ag():
    nbytes = 32 * units.MiB
    assert ring_ar_time(nbytes, SYSTEM) == pytest.approx(
        ring_rs_time(nbytes, SYSTEM) + ring_ag_time(nbytes, SYSTEM))


def test_collective_time_dispatch():
    nbytes = 16 * units.MiB
    assert collective_time(CollectiveOp.REDUCE_SCATTER, nbytes, SYSTEM) == \
        pytest.approx(ring_rs_time(nbytes, SYSTEM))
    assert collective_time(CollectiveOp.ALL_GATHER, nbytes, SYSTEM) == \
        pytest.approx(ring_ag_time(nbytes, SYSTEM))
    assert collective_time(CollectiveOp.ALL_REDUCE, nbytes, SYSTEM) > 0
    assert collective_time(CollectiveOp.ALL_TO_ALL, nbytes, SYSTEM) > 0


def test_time_scales_linearly_with_size():
    t1 = ring_rs_time(16 * units.MiB, SYSTEM)
    t2 = ring_rs_time(160 * units.MiB, SYSTEM)
    # Overheads aside, 10x the bytes ~ 10x the time.
    assert 8 < (t2 - 2000) / (t1 - 2000) < 10.5


def test_wire_bytes_per_gpu():
    assert rs_wire_bytes_per_gpu(800, 8) == pytest.approx(700)


def test_analytic_validation():
    with pytest.raises(ValueError):
        ring_rs_time(0, SYSTEM)
