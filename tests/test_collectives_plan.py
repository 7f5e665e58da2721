"""Tests for the CollectivePlan IR and its consumers.

The plan layer is the single source of truth for ring arithmetic: the
baseline executor, address maps and stagger orders all consume it.  These
tests pin the flat-ring convention (Figure 7), the hierarchical
multi-node plan, graceful small-shape chunking, and the plan-walking CU
baseline executor.
"""

import pytest

from repro.collectives.api import (
    CollectiveOp,
    all_to_all_time,
    collective_time,
    ring_ag_time,
)
from repro.collectives.baseline import (
    PlannedReduceScatter,
    RingAllGather,
    RingReduceScatter,
)
from repro.collectives.plan import (
    RouteKind,
    all_to_all_plan,
    direct_rs_plan,
    hierarchical_rs_plan,
    plan_for,
    ring_all_gather_plan,
    ring_production_order,
    ring_reduce_scatter_plan,
    rotation_period,
)
from repro.config import table1_system
from repro.experiments import scaleout
from repro.experiments.sublayer_sweep import FAST_SCALE, case_shape
from repro.faults import InvariantChecker
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import (
    FullyConnectedTopology,
    HierarchicalRingTopology,
    RingTopology,
)
from repro.models import zoo
from repro.sim import Environment
from repro.t3.fusion import FusedGEMMRS


# ------------------------------------------------------------ flat ring plan

def test_flat_plan_matches_ring_convention():
    n = 8
    plan = ring_reduce_scatter_plan(n)
    plan.validate()
    for rank in range(n):
        for step in plan.steps(rank):
            assert step.dst == (rank - 1) % n
        routes = plan.routes(rank)
        assert routes[rank].kind is RouteKind.LOCAL_TERMINAL
        assert routes[(rank + 1) % n].kind is RouteKind.REMOTE_UPDATE
        assert routes[(rank + 1) % n].dst_gpu == (rank - 1) % n
        assert plan.production_order(rank) == ring_production_order(n, rank)


def test_flat_plan_split_k_expected_updates():
    plan = ring_reduce_scatter_plan(8, split_k=4)
    routes = plan.routes(2)
    # remote-fed chunk gets split_k incoming partial-sums, others one DMA.
    assert routes[4].expected_updates == 8   # 4 local + 4 incoming
    assert routes[5].expected_updates == 5   # 4 local + 1 incoming
    assert routes[2].expected_updates == 5   # own terminal chunk


def test_ag_plan_arrival_order_is_ring_order():
    plan = ring_all_gather_plan(8)
    plan.validate()
    for rank in range(8):
        assert plan.arrival_order(rank) == [(rank + i) % 8 for i in range(8)]


def test_direct_and_a2a_plans_validate():
    for n in (2, 4, 8):
        direct_rs_plan(n).validate()
        all_to_all_plan(n).validate()
    plan = direct_rs_plan(4)
    assert plan.routes(1)[1].expected_updates == 4
    assert plan.routes(1)[3].dst_gpu == 3


# --------------------------------------------------- graceful small payloads

def test_plan_clamps_chunks_for_small_payloads():
    plan = ring_reduce_scatter_plan(8, max_chunks=3)
    plan.validate()
    assert plan.n_chunks == 3
    # only owners of live chunks terminate anything
    terminal = {r: plan.rank_plan(r).terminal_chunks() for r in range(8)}
    assert terminal[0] == [0] and terminal[2] == [2]
    assert terminal[5] == []


def _period(n_gpus, shape, **plan_kwargs):
    system = table1_system(n_gpus=n_gpus)
    grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
    plan = ring_reduce_scatter_plan(n_gpus, max_chunks=grid.n_wgs,
                                    **plan_kwargs)
    return rotation_period(plan, grid.n_wgs, grid.tiles_n,
                           shape.output_bytes)


@pytest.mark.parametrize("model, tp, period", [
    (zoo.t_nlg, 8, 1),    # 34-WG chunks, each one whole 34-WG tile row
    (zoo.t_nlg, 16, 2),   # 17-WG chunks: half a row, so two ranks a row
    (zoo.palm, 32, 16),   # 9-WG chunks in 144-WG rows
])
def test_rotation_period_of_fast_paper_cases(model, tp, period):
    sub = model().sublayer("OP", tp)
    shape = case_shape(sub, FAST_SCALE, table1_system(n_gpus=tp))
    assert _period(tp, shape) == period


def test_rotation_period_falls_back_to_the_full_ring():
    # 3 x 2 tiles cut 4 ways: chunks of 2, 2, 1 and 1 WGs.
    assert _period(4, GEMMShape(m=384, n=256, k=64)) == 4
    # 2 x 2 tiles in 2 one-row chunks, but 255 x 129 one-byte elements
    # do not split into 2 equal byte counts; one more row of M does.
    assert _period(2, GEMMShape(m=255, n=129, k=64, element_bytes=1)) == 2
    assert _period(2, GEMMShape(m=256, n=129, k=64, element_bytes=1)) == 1
    # Unstaggered plans are not rotations; nor are fewer-chunk plans.
    shape = GEMMShape(m=1024, n=256, k=64)
    assert _period(4, shape) == 1
    assert _period(4, shape, stagger=False) == 4
    assert rotation_period(ring_reduce_scatter_plan(8, max_chunks=4),
                           16, 2, 1 << 20) == 8


def test_fused_gemm_rs_small_shape_falls_back_to_fewer_chunks():
    """A GEMM with fewer output tiles than ranks used to raise inside
    split_evenly mid-sweep; the plan layer now clamps the chunk count."""
    env = Environment()
    system = table1_system(n_gpus=8)
    topo = RingTopology(env, system)
    # 256x128 output on 256x128 macro-tiles = 2 WG tiles < 8 ranks.
    shape = GEMMShape(m=256, n=128, k=512, element_bytes=2)
    fused = FusedGEMMRS(topo, shape)
    assert fused.plan.n_chunks == 2
    result = fused.run()
    assert result.duration > 0
    assert len(result.per_rank_terminal) == 2  # only live-chunk owners


# --------------------------------------------------------- hierarchical plan

@pytest.mark.parametrize("nodes,per", [(2, 2), (2, 4), (4, 2), (3, 4)])
def test_hierarchical_plan_validates_and_terminates_at_owner(nodes, per):
    plan = hierarchical_rs_plan(nodes, per)
    plan.validate()
    assert plan.stage_names == ("intra", "inter")
    for rank in range(nodes * per):
        assert plan.rank_plan(rank).terminal_chunks() == [rank]


def test_hierarchical_plan_degenerates_to_flat_ring():
    flat = ring_reduce_scatter_plan(8)
    for plan in (hierarchical_rs_plan(1, 8), hierarchical_rs_plan(8, 1)):
        for rank in range(8):
            assert plan.steps(rank) == flat.steps(rank)
            assert plan.routes(rank) == flat.routes(rank)


def test_plan_for_dispatches_on_topology():
    system = table1_system(n_gpus=8)
    assert plan_for(RingTopology(Environment(), system)).n_chunks == 8
    hier = HierarchicalRingTopology(Environment(), system, gpus_per_node=4)
    assert plan_for(hier).stage_names == ("intra", "inter")
    flat = HierarchicalRingTopology(Environment(), system, gpus_per_node=8)
    assert plan_for(flat).stage_names == ("ring",)
    full = FullyConnectedTopology(Environment(), system)
    assert plan_for(full, "direct-rs").collective == "direct-rs"


def test_fused_t3_runs_multi_node():
    """The headline capability: fused GEMM-RS across 2 nodes x 4 GPUs,
    with the invariant checker clean."""
    env = Environment()
    env.invariants = InvariantChecker(env)
    system = table1_system(n_gpus=8)
    topo = HierarchicalRingTopology(env, system, gpus_per_node=4,
                                    policy_name="mca")
    shape = GEMMShape(m=1024, n=1024, k=512, element_bytes=2)
    fused = FusedGEMMRS(topo, shape, calibrate_mca=True)
    assert fused.plan.stage_names == ("intra", "inter")
    result = fused.run()
    env.invariants.check_all()
    assert len(result.per_rank_terminal) == 8
    assert result.duration > 0


# ---------------------------------------------- plan-walking CU baseline

#: (duration ns, events fired) of the 16 MiB collectives on a fresh 8-GPU
#: table1 ring, recorded with the hard-wired ring kernels this executor
#: replaced.
RING_RS_16MIB = (227054.03319727848, 34857)
RING_AG_16MIB = (213111.68644688601, 27801)


def _run_on_fresh_ring(make, n_gpus=8):
    env = Environment()
    topo = RingTopology(env, table1_system(n_gpus=n_gpus))
    result = make(topo).run()
    return result, env, topo


def test_planned_rs_matches_ring_rs_on_flat_ring():
    for cls in (RingReduceScatter, PlannedReduceScatter):
        result, env, _ = _run_on_fresh_ring(
            lambda topo: cls(topo, nbytes_total=16 * 1024 * 1024))
        assert (result.duration, env.events_fired) == RING_RS_16MIB
        assert result.per_rank_end == {r: result.duration for r in range(8)}


def test_ring_ag_matches_recorded_fingerprint():
    result, env, _ = _run_on_fresh_ring(
        lambda topo: RingAllGather(topo, nbytes_total=16 * 1024 * 1024))
    assert (result.duration, env.events_fired) == RING_AG_16MIB
    assert result.per_rank_end == {r: result.duration for r in range(8)}


def test_all_gather_plan_runs_the_all_gather_cost_model():
    """An all-gather plan is priced as an all-gather (one copy read per
    forward, no terminal reduction), even through PlannedReduceScatter."""
    nbytes = 8 * 1024 * 1024

    def run(make):
        result, _, topo = _run_on_fresh_ring(make, n_gpus=4)
        return result.duration, [gpu.mc.counters.as_dict()
                                 for gpu in topo.gpus]

    planned = run(lambda topo: PlannedReduceScatter(
        topo, nbytes, plan=ring_all_gather_plan(4)))
    assert planned == run(lambda topo: RingAllGather(topo, nbytes))


def test_executor_rejects_ops_it_does_not_model():
    env = Environment()
    topo = FullyConnectedTopology(env, table1_system(n_gpus=4))
    with pytest.raises(ValueError, match="all-to-all"):
        PlannedReduceScatter(topo, 8 * 1024 * 1024, plan=all_to_all_plan(4))


def test_executor_rejects_plans_the_topology_cannot_route():
    env = Environment()
    topo = RingTopology(env, table1_system(n_gpus=4))
    with pytest.raises(ValueError, match="no such link"):
        PlannedReduceScatter(topo, 8 * 1024 * 1024, plan=direct_rs_plan(4))
    assert env.events_fired == 0


def test_planned_rs_completes_on_hierarchical_topology():
    env = Environment()
    topo = HierarchicalRingTopology(env, table1_system(n_gpus=8),
                                    gpus_per_node=4)
    rs = PlannedReduceScatter(topo, nbytes_total=16 * 1024 * 1024)
    res = rs.run()
    assert len(res.per_rank_end) == 8
    assert res.duration > 0


# -------------------------------------------------- all-to-all closed form

def test_all_to_all_time_own_closed_form():
    """The a2a model must price the pairwise exchange, not alias the ring
    all-gather (which forwards N-1 chunk-steps of the whole payload)."""
    system = table1_system(n_gpus=8)
    nbytes = 64 * 1024 * 1024
    a2a = collective_time(CollectiveOp.ALL_TO_ALL, nbytes, system)
    assert a2a == all_to_all_time(nbytes, system)
    assert a2a != ring_ag_time(nbytes, system)
    # n_cus is accepted (and ignored) like the other dispatches.
    assert collective_time(CollectiveOp.ALL_TO_ALL, nbytes, system,
                           n_cus=32) == a2a


def test_all_to_all_time_scales_with_bisection():
    """Pairwise shards crossing the ring cut make a2a *worse* with more
    devices at fixed payload — the opposite of ring-AG, whose per-step
    chunk shrinks.  The old alias (a2a priced as ring-AG) got this
    backwards."""
    nbytes = 64 * 1024 * 1024
    a2a_8 = all_to_all_time(nbytes, table1_system(n_gpus=8))
    a2a_16 = all_to_all_time(nbytes, table1_system(n_gpus=16))
    assert a2a_16 > a2a_8
    ag_growth = (ring_ag_time(nbytes, table1_system(n_gpus=16))
                 / ring_ag_time(nbytes, table1_system(n_gpus=8)))
    assert a2a_16 / a2a_8 > ag_growth  # bisection dominates, AG ~flat
    # payload monotonicity
    assert all_to_all_time(2 * nbytes, table1_system(n_gpus=8)) > a2a_8


# ------------------------------------------------------ scaleout experiment

def test_scaleout_experiment_t3_beats_sequential():
    result = scaleout.run(fast=True)
    labels = [row.label for row in result.rows]
    assert labels == ["1 node x 8 GPUs", "2 nodes x 4 GPUs"]
    for row in result.rows:
        assert row.speedup > 1.0, row.label
    hier = result.row("2 nodes x 4 GPUs")
    assert hier.stage_names == ["intra", "inter"]
    stages = {span.stage for span in hier.plan_stages}
    assert stages == {"intra", "inter"}
    rendered = result.render()
    assert "scale-out" in rendered and "intra" in rendered
