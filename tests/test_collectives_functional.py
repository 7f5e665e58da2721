"""Functional (value-level) verification of the collective plans.

The timing simulator moves byte counts; these tests move *numbers*
through exactly the same plan steps and check the collective algebra:

* ring reduce-scatter: after N-1 steps, rank ``e`` holds the element-wise
  sum over all ranks of chunk ``e``;
* ring all-gather: every rank ends with every (reduced) chunk;
* the T3 fused dataflow (remote-map first chunk, DMA partials downstream)
  produces byte-for-byte the same result as the reference reduce-scatter;
* direct-RS and all-to-all do too.

If a plan or address map were wrong, numbers — not just byte counts —
would come out wrong here.
"""

import numpy as np
import pytest

from repro.collectives.plan import (
    all_to_all_plan,
    ring_all_gather_plan,
    ring_reduce_scatter_plan,
)
from repro.t3.address_map import AddressSpaceConfig, RouteKind


def make_inputs(n, chunk_len=4, seed=7):
    rng = np.random.default_rng(seed)
    # inputs[rank][chunk] = that rank's local partial of the chunk.
    return [
        [rng.integers(0, 100, chunk_len).astype(np.int64)
         for _chunk in range(n)]
        for _rank in range(n)
    ]


def reference_rs(inputs, n):
    """chunk e fully reduced = sum over ranks of inputs[r][e]."""
    return [sum(inputs[r][e] for r in range(n)) for e in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_ring_rs_schedule_reduces_correctly(n):
    inputs = make_inputs(n)
    # working[rank][chunk]: the partial each rank currently holds.
    working = [[chunk.copy() for chunk in row] for row in inputs]
    plan = ring_reduce_scatter_plan(n)

    for step_index in range(n - 1):
        # All sends of this step happen "simultaneously": snapshot first.
        outbox = {}
        for rank in range(n):
            step = plan.steps(rank)[step_index]
            (send_chunk,) = step.send_chunks
            outbox[rank] = (step.dst, send_chunk, working[rank][send_chunk])
        for dst, send_chunk, payload in outbox.values():
            # Receiver reduces the arriving partial into its local copy.
            working[dst][send_chunk] = working[dst][send_chunk] + payload

    expected = reference_rs(inputs, n)
    for rank in range(n):
        np.testing.assert_array_equal(working[rank][rank], expected[rank])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_ring_ag_schedule_gathers_everything(n):
    # Each rank starts with only its own (already reduced) chunk.
    reduced = [np.full(4, fill_value=rank, dtype=np.int64)
               for rank in range(n)]
    held = [{rank: reduced[rank]} for rank in range(n)]
    plan = ring_all_gather_plan(n)

    for step_index in range(n - 1):
        outbox = {}
        for rank in range(n):
            step = plan.steps(rank)[step_index]
            (chunk_id,) = step.send_chunks
            assert chunk_id in held[rank], (
                f"rank {rank} forwards chunk {chunk_id} before receiving it")
            outbox[rank] = (step.dst, chunk_id, held[rank][chunk_id])
        for dst, chunk_id, payload in outbox.values():
            held[dst][chunk_id] = payload

    for rank in range(n):
        assert set(held[rank]) == set(range(n))
        for chunk_id in range(n):
            np.testing.assert_array_equal(
                held[rank][chunk_id], reduced[chunk_id])


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_t3_fused_dataflow_matches_reference(n):
    """Replay the T3 address maps as a dataflow: local NMC updates,
    remote-mapped first chunks, and Tracker-triggered DMA forwards of the
    locally-reduced partial.  The terminal chunk must equal the reference
    reduce-scatter output."""
    inputs = make_inputs(n, seed=11)
    configs = [AddressSpaceConfig.ring_reduce_scatter(r, n)
               for r in range(n)]
    # memory[rank][chunk]: accumulated NMC value at that rank.
    chunk_len = len(inputs[0][0])
    memory = [[np.zeros(chunk_len, dtype=np.int64) for _ in range(n)]
              for _ in range(n)]

    # 1. Producers store: local chunks update local memory; the
    #    remote-mapped chunk updates the downstream neighbour's memory.
    for rank in range(n):
        for chunk_id in range(n):
            route = configs[rank].route(chunk_id)
            if route.kind is RouteKind.REMOTE_UPDATE:
                memory[route.dst_gpu][chunk_id] += inputs[rank][chunk_id]
            else:
                memory[rank][chunk_id] += inputs[rank][chunk_id]

    # 2. DMA chain: rank d forwards chunk c once its copy holds local +
    #    incoming.  Process in ring-step order (the production order):
    #    at step s, rank d's chunk (d+s+1) has just been fed by the
    #    upstream contribution and its DMA fires.
    for step in range(1, n - 1):
        snapshot = [
            memory[rank][(rank + step + 1) % n].copy() for rank in range(n)
        ]
        for rank in range(n):
            chunk_id = (rank + step + 1) % n
            dst = (rank - 1) % n
            memory[dst][chunk_id] += snapshot[rank]
            memory[rank][chunk_id][:] = 0  # forwarded away

    expected = reference_rs(inputs, n)
    for rank in range(n):
        np.testing.assert_array_equal(memory[rank][rank], expected[rank])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_direct_rs_dataflow_matches_reference(n):
    inputs = make_inputs(n, seed=3)
    configs = [AddressSpaceConfig.direct_reduce_scatter(r, n)
               for r in range(n)]
    chunk_len = len(inputs[0][0])
    memory = [np.zeros(chunk_len, dtype=np.int64) for _ in range(n)]
    for rank in range(n):
        for chunk_id in range(n):
            route = configs[rank].route(chunk_id)
            target = rank if route.dst_gpu is None else route.dst_gpu
            assert target == chunk_id  # owner-addressed
            memory[target] += inputs[rank][chunk_id]
    expected = reference_rs(inputs, n)
    for rank in range(n):
        np.testing.assert_array_equal(memory[rank], expected[rank])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_all_to_all_dataflow_exchanges_without_reduction(n):
    inputs = make_inputs(n, seed=5)
    received = [dict() for _ in range(n)]
    for rank in range(n):
        for step in all_to_all_plan(n).steps(rank):
            (chunk,) = step.send_chunks
            received[step.dst][rank] = inputs[rank][chunk]
        received[rank][rank] = inputs[rank][rank]
    for rank in range(n):
        assert set(received[rank]) == set(range(n))
        for src in range(n):
            np.testing.assert_array_equal(
                received[rank][src], inputs[src][rank])
