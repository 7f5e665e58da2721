"""Unit tests for DMA engine + topologies (repro.gpu.dma, repro.interconnect)."""

import pytest

from repro.config import table1_system
from repro.gpu.dma import DMACommand
from repro.interconnect.topology import (
    FullyConnectedTopology,
    PeriodicRingTopology,
    RingTopology,
)
from repro.memory.request import AccessKind
from repro.sim import Environment, SimulationError


def make_ring(n_gpus=4, quantum=8 * 1024):
    env = Environment()
    system = table1_system(n_gpus=n_gpus).with_fidelity(quantum_bytes=quantum)
    return env, RingTopology(env, system)


def command(dst, chunk=0, slices=((0, 32 * 1024), (1, 32 * 1024)),
            op=AccessKind.UPDATE, read=True, cid="c0"):
    return DMACommand(command_id=cid, dst_gpu_id=dst, chunk_id=chunk,
                      wg_slices=tuple(slices), op=op, read_source=read)


# ------------------------------------------------------------------ topology

def test_ring_edges_both_directions():
    env, topo = make_ring(4)
    assert topo.n_gpus == 4
    assert (0, 3) in topo.links and (3, 0) in topo.links
    assert (0, 1) in topo.links and (1, 0) in topo.links
    assert (0, 2) not in topo.links


def test_ring_neighbor_math_matches_figure7():
    env, topo = make_ring(4)
    # GPU-0 sends to GPU-3 (Figure 7).
    assert topo.next_gpu(0) == 3
    assert topo.prev_gpu(0) == 1
    assert topo.next_gpu(3) == 2


def test_fully_connected_has_all_pairs():
    env = Environment()
    system = table1_system(n_gpus=4)
    topo = FullyConnectedTopology(env, system)
    assert len(topo.links) == 4 * 3


def test_link_lookup_errors():
    env, topo = make_ring(4)
    with pytest.raises(SimulationError):
        topo.link(0, 2)
    with pytest.raises(SimulationError):
        topo.gpus[0].link_to(2)
    with pytest.raises(SimulationError):
        topo.gpus[0].peer(2)


def test_gpu_self_link_rejected():
    env, topo = make_ring(4)
    with pytest.raises(SimulationError):
        topo.gpus[0].connect(topo.gpus[0], topo.link(0, 1))


def test_periodic_ring_closes_on_its_last_simulated_rank():
    """Ranks 0-1 of an 8-rank ring: rank 0's downstream link, to virtual
    rank 7, delivers into rank 1 with ids rotated two chunks ahead."""
    env = Environment()
    system = table1_system(n_gpus=8).with_fidelity(quantum_bytes=8 * 1024)
    topo = PeriodicRingTopology(env, system, period=2, wgs_per_chunk=3)
    assert topo.n_gpus == 8 and len(topo.gpus) == 2
    assert sorted(topo.links) == [(0, 7), (1, 0)]
    assert topo.resolve(7) == (1, 2) and topo.resolve(1) == (1, 0)
    seen = []
    topo.gpus[1].mc.add_tracker_observer(
        lambda r: seen.append((r.wg_id, r.chunk_id)))
    topo.gpus[0].dma.program(command(dst=7, chunk=7,
                                     slices=((22, 16 * 1024),)))
    topo.gpus[0].dma.trigger("c0")
    env.run()
    # chunk 7 + 2 wraps to 1; WG 22 + 2 * 3 wraps to 4 of 24.
    assert seen and set(seen) == {(4, 1)}
    # One rank closes the ring on itself through virtual rank 3.
    solo = PeriodicRingTopology(Environment(), table1_system(n_gpus=4),
                                period=1, wgs_per_chunk=1)
    assert solo.gpus[0].peer(3).gpu_id == 3
    with pytest.raises(SimulationError, match="does not divide"):
        PeriodicRingTopology(Environment(), system, period=3,
                             wgs_per_chunk=1)


# ----------------------------------------------------------------------- DMA

def test_dma_program_and_trigger_moves_bytes():
    env, topo = make_ring(4)
    src, dst = topo.gpus[0], topo.gpus[3]
    cmd = command(dst=3)
    src.dma.program(cmd)
    done = src.dma.trigger("c0")
    env.run()
    assert done.fired
    assert src.dma.bytes_moved == cmd.nbytes
    # Local DMA reads + remote NMC updates were accounted.
    assert src.mc.counters.get("rs.read") == cmd.nbytes
    assert dst.mc.counters.get("rs.update") == cmd.nbytes


def test_dma_without_source_read_skips_local_reads():
    env, topo = make_ring(4)
    src, dst = topo.gpus[1], topo.gpus[0]
    cmd = command(dst=0, read=False, op=AccessKind.WRITE)
    src.dma.program(cmd)
    src.dma.trigger("c0")
    env.run()
    assert src.mc.counters.get("rs.read") == 0
    assert dst.mc.counters.get("rs.write") == cmd.nbytes


def test_dma_remote_updates_carry_wg_metadata():
    env, topo = make_ring(4)
    src, dst = topo.gpus[0], topo.gpus[3]
    seen = []
    dst.mc.add_tracker_observer(lambda r: seen.append((r.wg_id, r.chunk_id)))
    cmd = command(dst=3, chunk=2, slices=((7, 16 * 1024),))
    src.dma.program(cmd)
    src.dma.trigger("c0")
    env.run()
    assert seen and all(wg == 7 and chunk == 2 for wg, chunk in seen)


def test_dma_completion_time_includes_link_serialization():
    env, topo = make_ring(4)
    system = topo.system
    src = topo.gpus[0]
    nbytes = 1024 * 1024
    cmd = command(dst=3, slices=((0, nbytes),), read=False)
    src.dma.program(cmd)
    src.dma.trigger("c0")
    env.run()
    serialization = nbytes / system.link.bandwidth
    assert env.now >= serialization + system.link.latency_ns


def test_dma_double_trigger_rejected():
    env, topo = make_ring(4)
    src = topo.gpus[0]
    src.dma.program(command(dst=3))
    src.dma.trigger("c0")
    with pytest.raises(SimulationError, match="twice"):
        src.dma.trigger("c0")


def test_dma_unprogrammed_trigger_rejected():
    env, topo = make_ring(4)
    with pytest.raises(SimulationError, match="unprogrammed"):
        topo.gpus[0].dma.trigger("nope")


def test_dma_duplicate_program_rejected():
    env, topo = make_ring(4)
    src = topo.gpus[0]
    src.dma.program(command(dst=3))
    with pytest.raises(SimulationError, match="already"):
        src.dma.program(command(dst=3))


def test_dma_command_validation():
    with pytest.raises(ValueError):
        command(dst=1, op=AccessKind.READ)
    with pytest.raises(ValueError):
        DMACommand("x", 1, 0, wg_slices=())
    with pytest.raises(ValueError):
        command(dst=1, slices=((0, 0),))
    env, topo = make_ring(4)
    with pytest.raises(SimulationError, match="local"):
        topo.gpus[0].dma.program(command(dst=0))


def test_dma_to_self_distance_two_requires_link():
    env, topo = make_ring(4)
    src = topo.gpus[0]
    src.dma.program(command(dst=2))  # no ring link 0->2
    src.dma.trigger("c0")
    with pytest.raises(SimulationError, match="no link"):
        env.run()


def test_concurrent_dmas_share_link_bandwidth():
    env, topo = make_ring(4)
    src = topo.gpus[0]
    nbytes = 512 * 1024
    for i in range(2):
        src.dma.program(command(dst=3, cid=f"c{i}",
                                slices=((i, nbytes),), read=False))
    src.dma.trigger("c0")
    src.dma.trigger("c1")
    env.run()
    serialization = 2 * nbytes / topo.system.link.bandwidth
    assert env.now >= serialization  # serialized on the same wire
