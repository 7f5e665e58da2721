"""Property-based tests (hypothesis) on core structures and invariants.

These cover the algebra the whole reproduction leans on: tiling/chunking
partitions, ring-plan step coverage, Tracker counting, cache-model
monotonicity, and the stats reducers.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.plan import (
    ring_all_gather_plan,
    ring_reduce_scatter_plan,
)
from repro.config import GEMMKernelConfig, MemoryConfig, TrackerConfig
from repro.gpu.wavefront import GEMMShape, TileGrid, split_evenly
from repro.memory.cache import estimate_gemm_traffic
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.sim.stats import UtilizationTracker, geomean, weighted_mean
from repro.t3.address_map import AddressSpaceConfig, RouteKind
from repro.t3.tracker import Tracker

KCFG = GEMMKernelConfig()


# ------------------------------------------------------------- split_evenly

@given(total=st.integers(1, 10_000), parts=st.integers(1, 64))
def test_split_evenly_properties(total, parts):
    if total < parts:
        with pytest.raises(ValueError):
            split_evenly(total, parts)
        return
    out = split_evenly(total, parts)
    assert sum(out) == total
    assert len(out) == parts
    assert max(out) - min(out) <= 1
    assert out == sorted(out, reverse=True)  # larger parts first


# ----------------------------------------------------------------- TileGrid

grid_strategy = st.builds(
    dict,
    m=st.integers(128, 4096),
    n=st.integers(128, 2048),
    k=st.integers(32, 1024),
    n_cus=st.integers(1, 16),
    n_chunks=st.sampled_from([1, 2, 4, 8]),
    offset=st.integers(0, 7),
    stagger=st.booleans(),
)


def _make_grid(params):
    """Build a grid, returning None when the chunking is infeasible
    (fewer WG tiles than chunks — a validated error path)."""
    from hypothesis import assume

    offset = params.pop("offset")
    shape = GEMMShape(params.pop("m"), params.pop("n"), params.pop("k"))
    n_chunks = params.pop("n_chunks")
    stagger = params.pop("stagger", True)
    tiles = (math.ceil(shape.m / KCFG.macro_tile_m)
             * math.ceil(shape.n / KCFG.macro_tile_n))
    assume(tiles >= n_chunks)
    return TileGrid(shape, KCFG, n_cus=params.pop("n_cus"),
                    n_chunks=n_chunks, chunk_offset=offset,
                    stagger=stagger), offset


@settings(max_examples=60, deadline=None)
@given(params=grid_strategy)
def test_tilegrid_partitions(params):
    grid, offset = _make_grid(params)
    # Every WG appears exactly once across the device enumeration.
    wgs = [wg for wg, *_ in grid.wg_sequence()]
    assert sorted(wgs) == list(range(grid.n_wgs))
    # Stages partition the WGs.
    stage_wgs = [wg for s in grid.stages for wg in s.wg_ids]
    assert sorted(stage_wgs) == list(range(grid.n_wgs))
    # Chunks partition the WGs and byte totals agree.
    total = sum(grid.chunk_bytes_total(c) for c in range(grid.n_chunks))
    assert total == grid.n_wgs * grid.wg_tile_bytes
    # Chunk order is a permutation ending in the device's own chunk.
    order = grid.chunk_order()
    assert sorted(order) == list(range(grid.n_chunks))
    if grid.stagger and grid.n_chunks > 1:
        assert order[-1] == offset % grid.n_chunks
    # A-row coverage: every tile row is new exactly once.
    assert sum(s.new_tile_rows for s in grid.stages) == grid.tiles_m


@settings(max_examples=40, deadline=None)
@given(params=grid_strategy)
def test_tilegrid_chunk_completion_monotonic(params):
    params["stagger"] = True
    grid, _offset = _make_grid(params)
    order = grid.chunk_order()
    completion = [grid.stage_for_chunk_completion(c) for c in order]
    assert completion == sorted(completion)


# ---------------------------------------------------------- ring plan steps

@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 33), rank=st.integers(0, 32))
def test_ring_rs_schedule_properties(n, rank):
    rank = rank % n
    steps = ring_reduce_scatter_plan(n).steps(rank)
    assert len(steps) == n - 1
    # Sends cover every chunk except the rank's own.
    assert {s.send_chunks for s in steps} == \
        {(c,) for c in range(n) if c != rank}
    # Last receive is the rank's own, fully-reduced chunk.
    assert steps[-1].recv_chunks == (rank,)
    # What arrives at step s is what gets sent at step s+1.
    for prev, cur in zip(steps, steps[1:]):
        assert cur.send_chunks == prev.recv_chunks


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 33), rank=st.integers(0, 32))
def test_ring_rs_global_consistency(n, rank):
    """At every step, what rank receives is exactly what its upstream
    neighbour (rank+1) sends."""
    rank = rank % n
    upstream = (rank + 1) % n
    plan = ring_reduce_scatter_plan(n)
    for my_step, their_step in zip(plan.steps(rank), plan.steps(upstream)):
        assert my_step.src == upstream and their_step.dst == rank
        assert my_step.recv_chunks == their_step.send_chunks


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 33), rank=st.integers(0, 32))
def test_ring_ag_covers_everything(n, rank):
    rank = rank % n
    steps = ring_all_gather_plan(n).steps(rank)
    assert {s.recv_chunks for s in steps} == \
        {(c,) for c in range(n) if c != rank}
    assert steps[0].send_chunks == (rank,)


@settings(max_examples=40, deadline=None)
@given(total=st.integers(64, 10_000_000), n=st.integers(2, 64))
def test_chunk_sizes_exact(total, n):
    if total < n:
        return
    sizes = ring_reduce_scatter_plan(n).chunk_sizes(total)
    assert sum(sizes) == total and len(sizes) == n


# ---------------------------------------------------------------- addr maps

@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 64), rank=st.integers(0, 63))
def test_ring_rs_address_map_properties(n, rank):
    rank = rank % n
    config = AddressSpaceConfig.ring_reduce_scatter(rank, n)
    assert len(config.routes) == n
    assert config.remote_chunks() == [(rank + 1) % n]
    assert config.route(rank).kind is RouteKind.LOCAL_TERMINAL
    assert len(config.dma_chunks()) == n - 2
    downstream = (rank - 1) % n
    for cid in config.dma_chunks():
        assert config.route(cid).dst_gpu == downstream
        assert config.route(cid).expected_updates == 2
    # The plan's send order equals the staggered production order.
    sends = [s.send_chunks[0]
             for s in ring_reduce_scatter_plan(n).steps(rank)]
    assert sends[0] == config.remote_chunks()[0]
    assert set(sends[1:]) == set(config.dma_chunks())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 32), rank=st.integers(0, 31))
def test_direct_rs_address_map_properties(n, rank):
    rank = rank % n
    config = AddressSpaceConfig.direct_reduce_scatter(rank, n)
    assert len(config.remote_chunks()) == n - 1
    assert config.dma_chunks() == []
    assert config.route(rank).expected_updates == n


# ------------------------------------------------------------------ Tracker

@settings(max_examples=50, deadline=None)
@given(
    expected=st.integers(1, 1 << 20),
    pieces=st.lists(st.integers(1, 1 << 16), min_size=1, max_size=40),
)
def test_tracker_completes_exactly_at_threshold(expected, pieces):
    tracker = Tracker(TrackerConfig())
    tracker.program_region(0, -1, expected)
    fired = []
    tracker.add_completion_listener(fired.append)
    delivered = 0
    for piece in pieces:
        if delivered >= expected:
            break
        tracker.observe(MemRequest(AccessKind.UPDATE, Stream.COMPUTE,
                                   piece, "gemm", wg_id=0))
        delivered += piece
        assert bool(fired) == (delivered >= expected)
    if delivered >= expected:
        assert fired == [(0, -1)]
        assert tracker.live_regions == 0


@settings(max_examples=30, deadline=None)
@given(wgs=st.lists(st.integers(0, 2047), min_size=1, max_size=200,
                    unique=True))
def test_tracker_regions_independent(wgs):
    """Completing one WG region never disturbs another."""
    tracker = Tracker(TrackerConfig())
    for wg in wgs:
        tracker.program_region(wg, -1, 100)
    target = wgs[0]
    tracker.observe(MemRequest(AccessKind.UPDATE, Stream.COMPUTE, 100,
                               "gemm", wg_id=target))
    assert not tracker.is_tracked(target)
    for wg in wgs[1:]:
        assert tracker.is_tracked(wg)


# --------------------------------------------------------------- cache model

@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(256, 4096),
    n=st.integers(256, 4096),
    k=st.integers(64, 4096),
)
def test_cache_model_monotone_in_budget(m, n, k):
    grid = TileGrid(GEMMShape(m, n, k), KCFG, n_cus=16)
    mem = MemoryConfig()
    base = estimate_gemm_traffic(grid, mem, bypass_writes=False)
    bypass = estimate_gemm_traffic(grid, mem, bypass_writes=True)
    # More cache for inputs never increases DRAM reads.
    assert bypass.total_read_bytes <= base.total_read_bytes + 1e-6
    # Reads are never below the compulsory A+B footprint...
    shape = grid.shape
    assert bypass.total_read_bytes >= (shape.a_bytes + shape.b_bytes) * 0.99
    # ...and writes always equal the tile-granular output exactly.
    for traffic in (base, bypass):
        assert traffic.total_write_bytes == pytest.approx(
            grid.n_wgs * grid.wg_tile_bytes)


# -------------------------------------------------------------------- stats

@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=30))
def test_geomean_bounds(values):
    g = geomean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    weights=st.lists(st.floats(0.01, 100), min_size=1, max_size=20),
)
def test_weighted_mean_bounds(values, weights):
    k = min(len(values), len(weights))
    values, weights = values[:k], weights[:k]
    wm = weighted_mean(values, weights)
    assert min(values) - 1e-6 <= wm <= max(values) + 1e-6


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.1, 10.0),
       values=st.lists(st.floats(0.01, 1e4), min_size=1, max_size=10))
def test_geomean_homogeneous(scale, values):
    scaled = [v * scale for v in values]
    assert geomean(scaled) == pytest.approx(geomean(values) * scale,
                                            rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 25)),
                      max_size=25))
def test_utilization_tracker_matches_interval_union(spans):
    """Busy time equals the measure of the union of spans, regardless of
    arrival order (integer spans make the union exactly countable)."""
    tracker = UtilizationTracker()
    covered = set()
    for start, duration in spans:
        tracker.busy(start, duration)
        covered.update(range(start, start + duration))
    assert tracker.busy_time == len(covered)


# ------------------------------------------------ collective plan cross-rank

from repro.collectives.plan import (  # noqa: E402
    hierarchical_rs_plan,
    ring_production_order,
)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), split_k=st.integers(1, 4))
def test_plan_cross_rank_send_recv_symmetry(n, split_k):
    """Every send in the plan has the matching receive on the downstream
    rank at the same (stage, step) — the event-matching property the
    plan-driven executor keys on."""
    plan = ring_reduce_scatter_plan(n, split_k=split_k)
    plan.validate()
    recvs = {(r, s.stage, s.step, c)
             for r in range(n) for s in plan.steps(r)
             for c in s.recv_chunks}
    sends = {(s.dst, s.stage, s.step, c)
             for r in range(n) for s in plan.steps(r)
             for c in s.send_chunks}
    assert sends == recvs


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16))
def test_plan_every_chunk_reduced_exactly_once(n):
    """Each chunk has exactly one terminal owner, and the total update
    contributions flowing into it equal its expected count (validate()
    re-derives this mechanically from the routes)."""
    plan = ring_reduce_scatter_plan(n)
    plan.validate()
    owners = [r for r in range(n) for c in plan.rank_plan(r).terminal_chunks()]
    assert sorted(owners) == list(range(n))
    for c in range(n):
        assert plan.terminal_rank(c) == c


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from([(2, 2), (2, 4), (4, 2), (2, 8), (4, 4),
                              (3, 4), (2, 3), (3, 2)]),
       split_k=st.integers(1, 3))
def test_hierarchical_plan_cross_rank_consistency(shape, split_k):
    nodes, per = shape
    plan = hierarchical_rs_plan(nodes, per, split_k=split_k)
    plan.validate()
    n = nodes * per
    recvs = {(r, s.stage, s.step, c)
             for r in range(n) for s in plan.steps(r)
             for c in s.recv_chunks}
    sends = {(s.dst, s.stage, s.step, c)
             for r in range(n) for s in plan.steps(r)
             for c in s.send_chunks}
    assert sends == recvs
    assert sorted(c for r in range(n)
                  for c in plan.rank_plan(r).terminal_chunks()) == \
        list(range(n))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), rank=st.integers(0, 15))
def test_plan_views_agree_across_layers(n, rank):
    """Address-map routes, TileGrid production order and the ring-RS
    plan steps must tell the same story."""
    rank = rank % n
    sends = [s.send_chunks[0]
             for s in ring_reduce_scatter_plan(n).steps(rank)]
    order = ring_production_order(n, rank)
    assert order == sends + [rank]
    config = AddressSpaceConfig.ring_reduce_scatter(rank, n)
    assert config.remote_chunks() == sends[:1]
    assert set(config.dma_chunks()) == set(sends[1:])
    grid = TileGrid(GEMMShape(m=4096, n=2048, k=256, element_bytes=2),
                    KCFG, n_cus=8, n_chunks=n, chunk_offset=rank,
                    stagger=True)
    assert grid.chunk_order() == order


# ------------------------------------------------------------ plan repair

from repro.collectives.plan import (  # noqa: E402
    direct_rs_plan,
    hierarchical_rs_plan,
)
from repro.resilience.repair import (  # noqa: E402
    demote_rank,
    exclude_rank,
    reroute_off_link,
)


def _plan_edges(plan):
    """Every directed (src, dst) edge the plan's DMA steps use."""
    return sorted({(rank_plan.rank, step.dst)
                   for rank_plan in plan.ranks
                   for step in rank_plan.steps})


@given(n=st.integers(2, 16), pick=st.integers(0, 10**6))
def test_ring_reroute_repair_always_validates(n, pick):
    plan = ring_reduce_scatter_plan(n)
    edges = _plan_edges(plan)
    src, dst = edges[pick % len(edges)]
    result = reroute_off_link(plan, src, dst)
    result.plan.validate()          # never returns an invalid plan
    assert result.plan.n_ranks == n
    assert result.action in ("reversed", "unchanged")
    if result.action == "reversed":
        assert (src, dst) not in _plan_edges(result.plan)


@given(n_nodes=st.integers(2, 4), per=st.integers(2, 4),
       pick=st.integers(0, 10**6))
def test_hierarchical_reroute_repair_always_validates(n_nodes, per, pick):
    plan = hierarchical_rs_plan(n_nodes, per)
    edges = _plan_edges(plan)
    src, dst = edges[pick % len(edges)]
    result = reroute_off_link(plan, src, dst)
    result.plan.validate()
    assert result.plan.n_ranks == n_nodes * per
    assert result.action in ("reversed", "unchanged")
    if result.action == "reversed":
        assert (src, dst) not in _plan_edges(result.plan)


@given(n=st.integers(2, 16), pick=st.integers(0, 10**6))
def test_direct_reroute_is_honest_unchanged(n, pick):
    """Direct plans use every pairwise edge; repair must not pretend."""
    plan = direct_rs_plan(n)
    routes = sorted({(rank_plan.rank, route.dst_gpu)
                     for rank_plan in plan.ranks
                     for route in rank_plan.routes.values()
                     if route.dst_gpu is not None
                     and route.dst_gpu != rank_plan.rank})
    if not routes:
        return
    src, dst = routes[pick % len(routes)]
    result = reroute_off_link(plan, src, dst)
    result.plan.validate()
    assert result.action == "unchanged"


@given(n=st.integers(3, 16), chunks_off=st.integers(1, 14),
       gpu=st.integers(0, 15))
def test_demote_repair_always_validates(n, chunks_off, gpu):
    n_chunks = max(2, n - (chunks_off % (n - 1)))
    plan = ring_reduce_scatter_plan(n, n_chunks=n_chunks)
    result = demote_rank(plan, gpu % n)
    result.plan.validate()
    assert result.plan.n_ranks == n
    assert result.plan.n_chunks == plan.n_chunks
    if n_chunks >= n:
        assert result.action == "unchanged"


@given(n=st.integers(3, 16), gpu=st.integers(0, 15))
def test_exclude_repair_always_validates(n, gpu):
    plan = ring_reduce_scatter_plan(n)
    result = exclude_rank(plan, gpu % n)
    result.plan.validate()
    assert result.action == "rebuilt"
    assert result.plan.n_ranks == n - 1


@given(n_nodes=st.integers(2, 4), per=st.integers(2, 4),
       gpu=st.integers(0, 15))
def test_hierarchical_exclude_repair_always_validates(n_nodes, per, gpu):
    plan = hierarchical_rs_plan(n_nodes, per)
    n = n_nodes * per
    result = exclude_rank(plan, gpu % n)
    result.plan.validate()
    assert result.action == "rebuilt"
    assert result.plan.n_ranks == n - 1
