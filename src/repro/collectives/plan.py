"""CollectivePlan: one IR for schedules, address maps and stagger.

Historically the ring convention — device ``d`` sends downstream to
``(d-1) mod N`` and at step ``s`` forwards chunk ``(d+s) mod N`` — was
re-derived independently by four layers (the per-rank schedules, the
address-space configuration, the staggered ``TileGrid`` production order
and the fused driver).  Following GC3's factoring (one declarative
collective program, per-rank schedules derived from it), this module is
now the **only** place that arithmetic lives.  Everything else consumes a
:class:`CollectivePlan`:

* :mod:`repro.collectives.baseline` — the CU-driven baseline executor
  walks the per-rank steps, with chunk sizes from :meth:`chunk_sizes`;
* :class:`repro.t3.address_map.AddressSpaceConfig` — compiled from the
  plan's :class:`ChunkRoute` table (``remote_map`` / ``dma_map`` /
  terminal, with split-K-aware expected-update counts);
* :class:`repro.gpu.wavefront.TileGrid` — takes its chunk production
  order from the plan (the paper's staggered schedule, Section 4.4);
* :class:`repro.t3.fusion.FusedGEMMRS` — programs Trackers, DMA command
  tables and trigger blocks straight from the routes, on *any* topology.

Two capabilities exist only at this layer:

* **graceful chunking** — a payload too small to cut ``N`` ways falls
  back to fewer chunks (every rank still forwards every chunk around the
  full ring, ranks beyond the chunk count simply own no terminal chunk)
  instead of raising mid-sweep;
* **hierarchical plans** — intra-node ring-RS over chunk *groups*
  followed by per-position inter-node rings (the "rail" links of
  :class:`~repro.interconnect.topology.HierarchicalRingTopology`), which
  is what lets fused T3 run multi-node (Section 7.8 / ROADMAP scale-out).

``validate()`` mechanically re-derives every expected-update count from
the other ranks' routes and checks send/receive step symmetry, so a new
plan builder cannot silently disagree with the Tracker programming.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collectives.api import CollectiveOp
from repro.gpu.wavefront import split_evenly


class RouteKind(enum.Enum):
    REMOTE_UPDATE = "remote_update"   # remote_map: store-over-link
    LOCAL_UPDATE = "local_update"     # dma_map: local NMC + triggered DMA
    LOCAL_TERMINAL = "local_terminal"  # own chunk, no DMA


@dataclass(frozen=True)
class ChunkRoute:
    """Where one output chunk of this device's GEMM goes."""

    chunk_id: int
    kind: RouteKind
    #: destination GPU for REMOTE_UPDATE (immediate) or LOCAL_UPDATE (DMA).
    dst_gpu: Optional[int] = None
    #: total whole-chunk update contributions this device's copy expects
    #: before its DMA/terminal trigger (ring-RS: 2, Section 4.2.1).
    expected_updates: int = 1
    #: whether stores reduce in memory ("update", reduction collectives)
    #: or overwrite ("store", data-exchange collectives like all-to-all).
    op: str = "update"
    #: plan stage this route belongs to (profiler attribution).
    stage: str = "ring"

    def __post_init__(self) -> None:
        needs_dst = self.kind in (RouteKind.REMOTE_UPDATE,
                                  RouteKind.LOCAL_UPDATE)
        if needs_dst and self.dst_gpu is None:
            raise ValueError(f"{self.kind} route needs a destination GPU")
        if self.kind is RouteKind.LOCAL_TERMINAL and self.dst_gpu is not None:
            raise ValueError("terminal chunks stay local")
        if self.expected_updates < 1:
            raise ValueError("expected_updates must be >= 1")
        if self.op not in ("update", "store"):
            raise ValueError("route op must be 'update' or 'store'")

    @property
    def dma_command_id(self) -> Optional[str]:
        if self.kind is RouteKind.LOCAL_UPDATE:
            return f"dma.chunk{self.chunk_id}"
        return None


@dataclass(frozen=True)
class PlanStep:
    """One communication step of one rank.

    ``step`` indices are stage-local and 1-based; the sender's
    ``(stage, step)`` matches the receiver's, which is what the executor
    keys arrival events on.
    """

    step: int
    stage: str
    dst: int                      # rank the send goes to
    src: int                      # rank the receive comes from
    send_chunks: Tuple[int, ...]
    recv_chunks: Tuple[int, ...]


@dataclass
class RankPlan:
    """One rank's complete view of the collective."""

    rank: int
    steps: List[PlanStep] = field(default_factory=list)
    routes: Dict[int, ChunkRoute] = field(default_factory=dict)
    #: chunk ids in GEMM production order (staggered schedule).
    production_order: List[int] = field(default_factory=list)

    def terminal_chunks(self) -> List[int]:
        return sorted(cid for cid, route in self.routes.items()
                      if route.kind is RouteKind.LOCAL_TERMINAL)


@dataclass
class CollectivePlan:
    """Per-rank steps + routes + production orders for one collective."""

    op: CollectiveOp
    #: address-space pattern label ("ring-rs", "hier-rs", "direct-rs",
    #: "all-to-all", "all-gather") — what the fused driver dispatches on.
    collective: str
    n_ranks: int
    n_chunks: int
    #: stage names in execution order (("ring",) for flat plans).
    stage_names: Tuple[str, ...]
    split_k: int = 1
    ranks: List[RankPlan] = field(default_factory=list)

    # -- per-rank accessors -------------------------------------------------

    def rank_plan(self, rank: int) -> RankPlan:
        return self.ranks[rank]

    def steps(self, rank: int) -> List[PlanStep]:
        return self.ranks[rank].steps

    def routes(self, rank: int) -> Dict[int, ChunkRoute]:
        return self.ranks[rank].routes

    def production_order(self, rank: int) -> List[int]:
        return list(self.ranks[rank].production_order)

    def arrival_order(self, rank: int) -> List[int]:
        """Chunk ids in the order they become resident on ``rank`` (the
        consumer-fusion gating order): local chunks first, then receives
        in step order."""
        order = list(self.ranks[rank].terminal_chunks())
        seen = set(order)
        for step in self.ranks[rank].steps:
            for cid in step.recv_chunks:
                if cid not in seen:
                    seen.add(cid)
                    order.append(cid)
        return order

    def terminal_rank(self, chunk_id: int) -> int:
        """The rank on which ``chunk_id`` ends fully reduced."""
        for plan in self.ranks:
            if chunk_id in plan.terminal_chunks():
                return plan.rank
        raise ValueError(f"chunk {chunk_id} has no terminal owner")

    def chunk_sizes(self, nbytes_total: int) -> List[int]:
        """Byte count per chunk (balanced, summing to the payload)."""
        return split_evenly(nbytes_total, self.n_chunks)

    # -- repair / rebuild ---------------------------------------------------

    def relabeled(self, mapping: Dict[int, int]) -> "CollectivePlan":
        """A physically-relabelled copy: logical rank ``r``'s schedule
        runs on physical rank ``mapping[r]``.

        ``mapping`` must be a permutation of ``range(n_ranks)``.  Chunk
        ids are untouched — a chunk's terminal owner moves with its
        logical rank — and each rank's production order (chunk ids) is
        preserved, so the relabelled plan programs the same Tracker
        regions and DMA byte counts, just onto different physical links.
        This is the repair layer's core primitive: a ring *reversal*
        (``r -> -r mod N``) moves the whole collective onto the backward
        ring links (avoiding one degraded forward edge), and a *rotation*
        (``r -> r+c mod N``) re-seats which physical rank plays which
        logical role (straggler demotion).  Callers must re-``validate()``
        the result; relabelling preserves validity by construction.
        """
        n = self.n_ranks
        if sorted(mapping) != list(range(n)) \
                or sorted(mapping.values()) != list(range(n)):
            raise ValueError(
                f"relabel mapping must be a permutation of range({n}), "
                f"got {mapping!r}")
        new_ranks: List[Optional[RankPlan]] = [None] * n
        for plan in self.ranks:
            steps = [
                PlanStep(step=s.step, stage=s.stage, dst=mapping[s.dst],
                         src=mapping[s.src], send_chunks=s.send_chunks,
                         recv_chunks=s.recv_chunks)
                for s in plan.steps
            ]
            routes = {
                cid: ChunkRoute(
                    chunk_id=route.chunk_id, kind=route.kind,
                    dst_gpu=(None if route.dst_gpu is None
                             else mapping[route.dst_gpu]),
                    expected_updates=route.expected_updates,
                    op=route.op, stage=route.stage)
                for cid, route in plan.routes.items()
            }
            new_ranks[mapping[plan.rank]] = RankPlan(
                rank=mapping[plan.rank], steps=steps, routes=routes,
                production_order=list(plan.production_order))
        return CollectivePlan(
            op=self.op, collective=self.collective, n_ranks=n,
            n_chunks=self.n_chunks, stage_names=self.stage_names,
            split_k=self.split_k, ranks=list(new_ranks))

    # -- consistency --------------------------------------------------------

    def validate(self) -> None:
        """Cross-rank consistency: every send has a matching receive, every
        chunk is reduced exactly once, and every tracked expected-update
        count equals local split-K updates plus the contributions the
        *other* ranks' routes actually deliver here."""
        self._check_step_symmetry()
        if self.op is not CollectiveOp.ALL_GATHER:
            self._check_route_conservation()

    def _check_step_symmetry(self) -> None:
        recv_index: Dict[Tuple[int, str, int, int], Tuple[int, ...]] = {}
        for plan in self.ranks:
            for step in plan.steps:
                if step.recv_chunks:
                    key = (plan.rank, step.stage, step.step, step.src)
                    if key in recv_index:
                        raise AssertionError(
                            f"rank {plan.rank} receives twice at {key}")
                    recv_index[key] = step.recv_chunks
        for plan in self.ranks:
            for step in plan.steps:
                if not step.send_chunks:
                    continue
                key = (step.dst, step.stage, step.step, plan.rank)
                received = recv_index.get(key)
                if received is None or set(received) != set(step.send_chunks):
                    raise AssertionError(
                        f"rank {plan.rank} sends chunks {step.send_chunks} "
                        f"to rank {step.dst} at {step.stage} step "
                        f"{step.step}, but the receiver expects {received}")

    def _check_route_conservation(self) -> None:
        # Contributions each (rank, chunk) copy receives, re-derived from
        # every *other* rank's routes: a remote_map streams split_k
        # fine-grained updates, a dma_map delivers one reduced DMA.
        incoming: Dict[Tuple[int, int], int] = {}
        terminal_owner: Dict[int, int] = {}
        for plan in self.ranks:
            for cid, route in plan.routes.items():
                if route.op != "update":
                    # Plain stores (all-to-all) land in disjoint per-source
                    # buffers and are not Tracker-counted.
                    if route.kind is RouteKind.LOCAL_TERMINAL:
                        terminal_owner.setdefault(cid, plan.rank)
                    continue
                if route.kind is RouteKind.REMOTE_UPDATE:
                    key = (route.dst_gpu, cid)
                    incoming[key] = incoming.get(key, 0) + self.split_k
                elif route.kind is RouteKind.LOCAL_UPDATE:
                    key = (route.dst_gpu, cid)
                    incoming[key] = incoming.get(key, 0) + 1
                else:
                    if cid in terminal_owner:
                        raise AssertionError(
                            f"chunk {cid} reduced twice (ranks "
                            f"{terminal_owner[cid]} and {plan.rank})")
                    terminal_owner[cid] = plan.rank
        if self.collective != "all-to-all" and \
                set(terminal_owner) != set(range(self.n_chunks)):
            raise AssertionError(
                f"chunks {sorted(set(range(self.n_chunks)) - set(terminal_owner))} "
                "never reduced")
        for plan in self.ranks:
            for cid, route in plan.routes.items():
                if route.kind is RouteKind.REMOTE_UPDATE or \
                        route.op != "update":
                    continue
                expected = self.split_k + incoming.get((plan.rank, cid), 0)
                if route.expected_updates != expected:
                    raise AssertionError(
                        f"rank {plan.rank} chunk {cid} expects "
                        f"{route.expected_updates} updates but the other "
                        f"ranks' routes deliver {expected}")


# -- the ring convention (the only module allowed to spell it out) ----------


def ring_production_order(n_chunks: int, rank: int,
                          stagger: bool = True) -> List[int]:
    """Device ``rank``'s staggered chunk production order: the chunk its
    downstream neighbour needs first (``rank+1``) first, its own last."""
    if not stagger or n_chunks == 1:
        return list(range(n_chunks))
    order = [(rank + s) % n_chunks for s in range(1, n_chunks)]
    order.append(rank % n_chunks)
    return order


def rotation_period(plan: CollectivePlan, n_wgs: int, tiles_n: int,
                    payload_bytes: int) -> int:
    """Rank period of a fused flat ring-RS over an ``n_wgs``-tile GEMM
    output that is ``tiles_n`` tiles wide.

    A staggered ring plan is a rotation: rank ``r`` runs rank 0's steps,
    routes and production order with every chunk id shifted by ``r``.
    When the output cuts into ``n_ranks`` chunks of ``w`` whole WG tiles
    and equal byte counts, a shift by ``p`` chunks moves the WG
    enumeration by ``p * w`` tiles.  If that is a whole number of tile
    rows, every stage of rank ``r + p`` touches as many new rows and
    columns as the same stage of rank ``r``, so the two ranks run the
    same simulation with chunk ids ``p`` apart.  Returns the smallest
    such ``p`` that divides ``n_ranks``, or ``n_ranks`` when the case is
    not rank-symmetric (unequal chunks, graceful fewer-chunk plans,
    unstaggered or non-ring plans).
    """
    n = plan.n_ranks
    if plan.collective != "ring-rs" or plan.n_chunks != n \
            or payload_bytes % n:
        return n
    if [(cid + 1) % n for cid in plan.production_order(0)] \
            != plan.production_order(1):
        return n
    widths = set(split_evenly(n_wgs, n))
    if len(widths) != 1:
        return n
    (wgs_per_chunk,) = widths
    return next(p for p in range(1, n + 1)
                if n % p == 0 and p * wgs_per_chunk % tiles_n == 0)


def _clamped_chunks(n_ranks: int, n_chunks: Optional[int],
                    max_chunks: Optional[int]) -> int:
    """Graceful chunk count: at most one chunk per rank, clamped to what
    the payload can actually be cut into (``max_chunks``)."""
    chunks = n_ranks if n_chunks is None else n_chunks
    if max_chunks is not None:
        chunks = min(chunks, max_chunks)
    if chunks < 1:
        raise ValueError("plans need at least one chunk")
    if chunks > n_ranks:
        raise ValueError(
            f"{chunks} chunks over {n_ranks} ranks: ring plans label "
            "chunks by final owner, so n_chunks <= n_ranks")
    return chunks


def _validate_ranks(n_ranks: int) -> None:
    if n_ranks < 2:
        raise ValueError("ring collectives need at least 2 devices")


def ring_reduce_scatter_plan(n_ranks: int, n_chunks: Optional[int] = None,
                             max_chunks: Optional[int] = None,
                             split_k: int = 1,
                             stagger: bool = True) -> CollectivePlan:
    """Flat ring reduce-scatter (Figures 7/11/12).

    With fewer chunks than ranks (graceful small-payload fallback) every
    chunk still traverses the full ring — every rank contributes its
    partial — but ranks ``>= n_chunks`` own no terminal chunk.
    """
    _validate_ranks(n_ranks)
    if split_k < 1:
        raise ValueError("split_k must be >= 1")
    chunks = _clamped_chunks(n_ranks, n_chunks, max_chunks)
    plan = CollectivePlan(op=CollectiveOp.REDUCE_SCATTER,
                          collective="ring-rs", n_ranks=n_ranks,
                          n_chunks=chunks, stage_names=("ring",),
                          split_k=split_k)
    for rank in range(n_ranks):
        downstream = (rank - 1) % n_ranks
        upstream = (rank + 1) % n_ranks
        steps: List[PlanStep] = []
        for s in range(1, n_ranks):
            send = (rank + s) % n_ranks
            recv = (rank + s + 1) % n_ranks
            sends = (send,) if send < chunks else ()
            recvs = (recv,) if recv < chunks else ()
            if sends or recvs:
                steps.append(PlanStep(step=s, stage="ring", dst=downstream,
                                      src=upstream, send_chunks=sends,
                                      recv_chunks=recvs))
        first = (rank + 1) % n_ranks       # remote-mapped downstream
        remote_fed = (rank + 2) % n_ranks  # receives upstream's remote_map

        def expected_for(cid: int) -> int:
            incoming = split_k if cid == remote_fed else 1
            return split_k + incoming

        routes: Dict[int, ChunkRoute] = {}
        for cid in range(chunks):
            if cid == first:
                routes[cid] = ChunkRoute(cid, RouteKind.REMOTE_UPDATE,
                                         dst_gpu=downstream)
            elif cid == rank % n_ranks:
                routes[cid] = ChunkRoute(cid, RouteKind.LOCAL_TERMINAL,
                                         expected_updates=expected_for(cid))
            else:
                routes[cid] = ChunkRoute(cid, RouteKind.LOCAL_UPDATE,
                                         dst_gpu=downstream,
                                         expected_updates=expected_for(cid))
        if stagger:
            order = sorted(range(chunks),
                           key=lambda c: (c - rank - 1) % n_ranks)
        else:
            order = list(range(chunks))
        plan.ranks.append(RankPlan(rank=rank, steps=steps, routes=routes,
                                   production_order=order))
    return plan


def ring_all_gather_plan(n_ranks: int) -> CollectivePlan:
    """Flat ring all-gather: forward the newest chunk each step; no
    routes (nothing reduces — the plan carries steps + arrival order)."""
    _validate_ranks(n_ranks)
    plan = CollectivePlan(op=CollectiveOp.ALL_GATHER,
                          collective="all-gather", n_ranks=n_ranks,
                          n_chunks=n_ranks, stage_names=("ring",))
    for rank in range(n_ranks):
        downstream = (rank - 1) % n_ranks
        upstream = (rank + 1) % n_ranks
        steps = [
            PlanStep(step=s, stage="ring", dst=downstream, src=upstream,
                     send_chunks=((rank + s - 1) % n_ranks,),
                     recv_chunks=((rank + s) % n_ranks,))
            for s in range(1, n_ranks)
        ]
        routes = {rank: ChunkRoute(rank, RouteKind.LOCAL_TERMINAL,
                                   op="store")}
        plan.ranks.append(RankPlan(rank=rank, steps=steps, routes=routes,
                                   production_order=list(range(n_ranks))))
    return plan


def direct_rs_plan(n_ranks: int) -> CollectivePlan:
    """Fully-connected direct reduce-scatter (Section 7.1): every foreign
    chunk is remote-mapped straight to its final owner."""
    if n_ranks < 2:
        raise ValueError("direct-RS needs at least 2 GPUs")
    plan = CollectivePlan(op=CollectiveOp.REDUCE_SCATTER,
                          collective="direct-rs", n_ranks=n_ranks,
                          n_chunks=n_ranks, stage_names=("direct",))
    for rank in range(n_ranks):
        steps = []
        for s in range(1, n_ranks):
            dst = (rank + s) % n_ranks
            src = (rank - s) % n_ranks
            steps.append(PlanStep(step=s, stage="direct", dst=dst, src=src,
                                  send_chunks=(dst,), recv_chunks=(rank,)))
        routes: Dict[int, ChunkRoute] = {}
        for cid in range(n_ranks):
            if cid == rank:
                routes[cid] = ChunkRoute(cid, RouteKind.LOCAL_TERMINAL,
                                         expected_updates=n_ranks,
                                         stage="direct")
            else:
                routes[cid] = ChunkRoute(cid, RouteKind.REMOTE_UPDATE,
                                         dst_gpu=cid, stage="direct")
        plan.ranks.append(RankPlan(rank=rank, steps=steps, routes=routes,
                                   production_order=list(range(n_ranks))))
    return plan


def all_to_all_plan(n_ranks: int) -> CollectivePlan:
    """Expert-parallel data exchange (Section 7.2): chunk ``c`` belongs to
    device ``c``; remote-mapped there as a plain store (no reduction)."""
    if n_ranks < 2:
        raise ValueError("all-to-all needs at least 2 GPUs")
    plan = CollectivePlan(op=CollectiveOp.ALL_TO_ALL,
                          collective="all-to-all", n_ranks=n_ranks,
                          n_chunks=n_ranks, stage_names=("direct",))
    for rank in range(n_ranks):
        steps = []
        for s in range(1, n_ranks):
            dst = (rank + s) % n_ranks
            src = (rank - s) % n_ranks
            steps.append(PlanStep(step=s, stage="direct", dst=dst, src=src,
                                  send_chunks=(dst,), recv_chunks=(rank,)))
        routes: Dict[int, ChunkRoute] = {}
        for cid in range(n_ranks):
            if cid == rank:
                routes[cid] = ChunkRoute(cid, RouteKind.LOCAL_TERMINAL,
                                         expected_updates=1, op="store",
                                         stage="direct")
            else:
                routes[cid] = ChunkRoute(cid, RouteKind.REMOTE_UPDATE,
                                         dst_gpu=cid, op="store",
                                         stage="direct")
        plan.ranks.append(RankPlan(rank=rank, steps=steps, routes=routes,
                                   production_order=list(range(n_ranks))))
    return plan


def hierarchical_rs_plan(n_nodes: int, gpus_per_node: int,
                         split_k: int = 1,
                         stagger: bool = True) -> CollectivePlan:
    """Two-phase reduce-scatter for a multi-node hierarchical ring.

    Chunks are labelled by final owner (chunk ``c`` ends on rank ``c``)
    and grouped by intra-node position: *group* ``j`` is the set of chunks
    ``{m*gpus_per_node + j}`` over all nodes ``m``.

    * **intra** phase — a ring-RS *within each node* over the groups as
      units: rank ``(k, g)`` forwards group ``(g+s) mod per`` at step
      ``s`` to its intra-node downstream neighbour ``(k, g-1)``.  Group
      ``g+1`` is remote-mapped (fine-grained producer stores over the
      link), later groups are dma-mapped.  After ``per-1`` steps rank
      ``(k, g)`` holds the node-local reduction of every position-``g``
      chunk.
    * **inter** phase — per-position rings *across the nodes* (the rail
      links): rank ``(k, g)`` forwards the chunk of node ``(k+s)`` at
      step ``s`` to rail-downstream ``(k-1, g)``.  After ``n_nodes-1``
      steps its own chunk is globally reduced.

    Degenerate shapes collapse to the flat ring plan: one node, or one
    GPU per node (where the ring over nodes *is* the flat ring).
    """
    if n_nodes < 1 or gpus_per_node < 1:
        raise ValueError("need at least one node and one GPU per node")
    n = n_nodes * gpus_per_node
    _validate_ranks(n)
    if split_k < 1:
        raise ValueError("split_k must be >= 1")
    if n_nodes == 1 or gpus_per_node == 1:
        return ring_reduce_scatter_plan(n, split_k=split_k, stagger=stagger)

    per = gpus_per_node
    plan = CollectivePlan(op=CollectiveOp.REDUCE_SCATTER,
                          collective="hier-rs", n_ranks=n, n_chunks=n,
                          stage_names=("intra", "inter"), split_k=split_k)

    def group(j: int, first_node: int) -> Tuple[int, ...]:
        """Position-``j`` chunks, rotated to start at ``first_node``."""
        return tuple(((first_node + m) % n_nodes) * per + j
                     for m in range(n_nodes))

    for rank in range(n):
        k, g = divmod(rank, per)
        intra_down = k * per + (g - 1) % per
        intra_up = k * per + (g + 1) % per
        rail_down = ((k - 1) % n_nodes) * per + g
        rail_up = ((k + 1) % n_nodes) * per + g

        steps: List[PlanStep] = []
        for s in range(1, per):
            steps.append(PlanStep(
                step=s, stage="intra", dst=intra_down, src=intra_up,
                send_chunks=group((g + s) % per, k),
                recv_chunks=group((g + s + 1) % per, k)))
        for s in range(1, n_nodes):
            steps.append(PlanStep(
                step=s, stage="inter", dst=rail_down, src=rail_up,
                send_chunks=(((k + s) % n_nodes) * per + g,),
                recv_chunks=(((k + s + 1) % n_nodes) * per + g,)))

        remote_group = (g + 1) % per       # remote-mapped intra-downstream
        remote_fed_group = (g + 2) % per   # fed by intra-upstream's remote_map

        def intra_in(j: int) -> int:
            return split_k if j == remote_fed_group else 1

        routes: Dict[int, ChunkRoute] = {}
        for j in range(per):
            for m in range(n_nodes):
                cid = m * per + j
                if j == remote_group:
                    routes[cid] = ChunkRoute(
                        cid, RouteKind.REMOTE_UPDATE, dst_gpu=intra_down,
                        stage="intra")
                elif j != g:
                    routes[cid] = ChunkRoute(
                        cid, RouteKind.LOCAL_UPDATE, dst_gpu=intra_down,
                        expected_updates=split_k + intra_in(j),
                        stage="intra")
                elif m == k:
                    # Own chunk: node-local reduction + the rail ring's
                    # final reduced DMA terminate here.
                    routes[cid] = ChunkRoute(
                        cid, RouteKind.LOCAL_TERMINAL,
                        expected_updates=split_k + intra_in(g) + 1,
                        stage="inter")
                elif m == (k + 1) % n_nodes:
                    # First inter-node hop of node (k+1)'s chunk: only the
                    # local node's reduction has landed when it fires.
                    routes[cid] = ChunkRoute(
                        cid, RouteKind.LOCAL_UPDATE, dst_gpu=rail_down,
                        expected_updates=split_k + intra_in(g),
                        stage="inter")
                else:
                    routes[cid] = ChunkRoute(
                        cid, RouteKind.LOCAL_UPDATE, dst_gpu=rail_down,
                        expected_updates=split_k + intra_in(g) + 1,
                        stage="inter")

        if stagger:
            # Groups in intra-ring consumption order, own group last; within
            # the own group, the chunk forwarded first (node k+1's) first.
            order: List[int] = []
            for s in range(1, per):
                order.extend(group((g + s) % per, k + 1))
            order.extend(group(g, k + 1))
        else:
            order = list(range(n))
        plan.ranks.append(RankPlan(rank=rank, steps=steps, routes=routes,
                                   production_order=order))
    return plan


def plan_for(topology, collective: str = "ring-rs",
             n_chunks: Optional[int] = None,
             max_chunks: Optional[int] = None,
             split_k: int = 1, stagger: bool = True) -> CollectivePlan:
    """Build the plan matching a live topology: hierarchical rings get the
    two-phase plan, everything else the flat pattern for ``collective``."""
    from repro.interconnect.topology import HierarchicalRingTopology

    n = topology.n_gpus
    if collective == "direct-rs":
        return direct_rs_plan(n)
    if collective == "all-to-all":
        return all_to_all_plan(n)
    if collective == "all-gather":
        return ring_all_gather_plan(n)
    if collective != "ring-rs":
        raise ValueError(f"unsupported fused collective {collective!r}")
    if isinstance(topology, HierarchicalRingTopology) \
            and 1 < topology.gpus_per_node < n:
        if max_chunks is not None and max_chunks < n:
            raise ValueError(
                f"hierarchical ring-RS over {n} ranks needs {n} chunks but "
                f"the payload only splits {max_chunks} ways — shrink the "
                "node count or enlarge the output")
        return hierarchical_rs_plan(n // topology.gpus_per_node,
                                    topology.gpus_per_node,
                                    split_k=split_k, stagger=stagger)
    return ring_reduce_scatter_plan(n, n_chunks=n_chunks,
                                    max_chunks=max_chunks,
                                    split_k=split_k, stagger=stagger)
