"""Baseline CU-driven collective kernels (what T3 replaces).

These model today's GPU collectives (Figure 10a): GPU compute units read
operand copies from DRAM, reduce them, and stream results over the ring —
competing with any concurrent kernel for CUs and memory bandwidth.

One executor walks a :class:`~repro.collectives.plan.CollectivePlan`,
co-simulated across the topology's simulated GPUs, and takes its cost
model from the plan's op:

* **reduce-scatter** — a forward reads every copy the rank holds of the
  chunk (its local partial plus each partial received so far) and reduces
  one more copy's worth of bytes on the CUs; each terminal chunk is
  reduced locally at the end;
* **all-gather** — a forward reads one copy and moves twice its bytes
  through the CUs; there is no terminal step.

Synchronization is by data arrival: a send waits until every chunk it
forwards has fully landed in the rank's DRAM.  Within a send, reads, CU
work, link serialization and remote writes are pipelined at the
simulation quantum, one :class:`~repro.interconnect.transfer.Transfer`
per quantum, so each step's duration converges to its bottleneck
(link, DRAM or CU throughput) — the property the Figure 6 CU-sharing
study depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collectives.api import CollectiveOp, DEFAULT_LAUNCH_OVERHEAD_NS
from repro.collectives.plan import (
    CollectivePlan,
    PlanStep,
    plan_for,
    ring_all_gather_plan,
    ring_reduce_scatter_plan,
)
from repro.interconnect.topology import Topology
from repro.interconnect.transfer import Hop, Transfer
from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent, Process
from repro.sim.machines import CompletionGroup
from repro.sim.primitives import Resource

#: traffic-accounting label of each op the executor models.
_LABELS = {CollectiveOp.REDUCE_SCATTER: "rs", CollectiveOp.ALL_GATHER: "ag"}


@dataclass
class CollectiveResult:
    """Timing of one co-simulated collective."""

    start: float = 0.0
    end: float = 0.0
    per_rank_end: Dict[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _PlanExecutor:
    """Runs one reduce-scatter or all-gather :class:`CollectivePlan` on
    every simulated rank of a topology with the CU-driven cost model."""

    def __init__(self, topology: Topology, nbytes_total: int,
                 plan: CollectivePlan, n_cus: Optional[int] = None):
        if plan.n_ranks != topology.n_gpus:
            raise ValueError(
                f"plan covers {plan.n_ranks} ranks but the topology has "
                f"{topology.n_gpus}")
        if plan.op not in _LABELS:
            raise ValueError(
                f"the baseline executor runs reduce-scatter and all-gather "
                f"plans, not {plan.op.value}")
        for rank in range(topology.n_simulated):
            for step in plan.steps(rank):
                if step.send_chunks and \
                        (rank, step.dst) not in topology.links:
                    raise ValueError(
                        f"{plan.collective} plan sends from rank {rank} to "
                        f"rank {step.dst}, but the topology has no such "
                        "link")
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.nbytes_total = nbytes_total
        self.n_cus = n_cus
        self.plan = plan
        self.label = _LABELS[plan.op]
        self.chunks = plan.chunk_sizes(nbytes_total)
        #: arrival[(rank, stage, step, chunk)] fires when that chunk has
        #: fully landed in ``rank``'s DRAM.
        self._arrivals: Dict[Tuple[int, str, int, int], BaseEvent] = {}
        for rank in range(topology.n_simulated):
            for step in plan.steps(rank):
                for cid in step.recv_chunks:
                    self._arrivals[(rank, step.stage, step.step, cid)] = \
                        BaseEvent(self.env)
        self.result = CollectiveResult()

    def _quanta(self, nbytes: int) -> List[int]:
        quantum = self.system.fidelity.quantum_bytes
        full, rem = divmod(nbytes, quantum)
        sizes = [quantum] * full
        if rem:
            sizes.append(rem)
        return sizes

    def _send(self, rank: int, step: PlanStep, read_factor: int,
              reduce_unit: Resource, cu_bw: float):
        """Pipeline one step's chunks to ``step.dst``; returns once they
        have fully landed there, then fires the receiver's arrivals.

        The receiver is the simulated GPU that plays ``step.dst``; each
        chunk lands there under that GPU's id for it (its ``tag``)."""
        group = CompletionGroup(self.env)
        dst, shift = self.topo.resolve(step.dst)
        src = self.topo.gpus[rank]
        # Arriving writes are tagged with the chunk they deliver (in the
        # receiver's labels), so a T3 Tracker at the receiver can gate
        # consumers on chunk arrival (Section 7.2).
        hop = Hop(src.link_to(step.dst), self.topo.gpus[dst].mc,
                  AccessKind.WRITE, self.label, src_mc=src.mc,
                  reads=read_factor, read_stream=Stream.COMPUTE,
                  reduce_unit=reduce_unit, cu_bw=cu_bw, gpu_id=src.gpu_id)
        tags = [(cid + shift) % self.plan.n_chunks
                for cid in step.send_chunks]
        for cid, tag in zip(step.send_chunks, tags):
            for q in self._quanta(self.chunks[cid]):
                group.expect()
                Transfer(hop, q, tag, tag, group).start()
        yield group
        for tag in tags:
            self._arrivals[(dst, step.stage, step.step, tag)].succeed()

    def _rank_proc(self, rank: int):
        env = self.env
        rank_plan = self.plan.rank_plan(rank)
        reduces = self.plan.op is CollectiveOp.REDUCE_SCATTER
        yield env.timeout(DEFAULT_LAUNCH_OVERHEAD_NS)
        reduce_unit = Resource(env, 1, name=f"{self.label}.cu.{rank}")
        cu_bw = self.system.compute.reduce_bandwidth(self.n_cus)

        #: copies held per chunk (1 local + received partials): what a
        #: reduce-scatter forward reads, as in Figure 10a.
        copies = [1] * self.plan.n_chunks
        pending: Dict[int, List[BaseEvent]] = {}
        for step in rank_plan.steps:
            if step.send_chunks:
                deps = [ev for cid in step.send_chunks
                        for ev in pending.pop(cid, ())]
                # A lone arrival is awaited as itself: an AllOf around it
                # would only add an engine event.
                if deps:
                    yield deps[0] if len(deps) == 1 else env.all_of(deps)
                read_factor = copies[step.send_chunks[0]] if reduces else 1
                yield from self._send(rank, step, read_factor,
                                      reduce_unit, cu_bw)
            for cid in step.recv_chunks:
                pending.setdefault(cid, []).append(
                    self._arrivals[(rank, step.stage, step.step, cid)])
                copies[cid] += 1

        if reduces:
            # Final local reduction of every chunk that terminates here.
            mc = self.topo.gpus[rank].mc
            for cid in rank_plan.terminal_chunks():
                deps = pending.pop(cid, ())
                if deps:
                    yield deps[0] if len(deps) == 1 else env.all_of(deps)
                own = self.chunks[cid]
                held = copies[cid]
                reads = mc.submit_bulk(
                    AccessKind.READ, Stream.COMPUTE, held * own, self.label)
                yield env.all_of(reads)
                yield from reduce_unit.acquire(hold=(held + 1) * own / cu_bw)
                writes = mc.submit_bulk(
                    AccessKind.WRITE, Stream.COMPUTE, own, self.label)
                yield env.all_of(writes)
        self.result.per_rank_end[rank] = env.now

    def launch(self) -> List[Process]:
        self.result.start = self.env.now
        return [
            self.env.process(self._rank_proc(rank),
                             name=f"{self.label}.rank{rank}")
            for rank in range(self.topo.n_simulated)
        ]

    def run(self) -> CollectiveResult:
        """Launch on all ranks and simulate to completion."""
        procs = self.launch()
        done = self.env.all_of(procs)
        self.env.run()
        if not done.fired:
            raise RuntimeError(
                f"{self.label} deadlocked: some rank never finished")
        self.result.end = self.env.now
        return self.result


class RingReduceScatter(_PlanExecutor):
    """Baseline flat-ring reduce-scatter (Figures 3 and 10a), on any
    topology that wires the ring."""

    def __init__(self, topology: Topology, nbytes_total: int,
                 n_cus: Optional[int] = None):
        super().__init__(topology, nbytes_total,
                         ring_reduce_scatter_plan(topology.n_gpus), n_cus)


class RingAllGather(_PlanExecutor):
    """Baseline flat-ring all-gather: pure forwarding, no reduction."""

    def __init__(self, topology: Topology, nbytes_total: int,
                 n_cus: Optional[int] = None):
        super().__init__(topology, nbytes_total,
                         ring_all_gather_plan(topology.n_gpus), n_cus)


class PlannedReduceScatter(_PlanExecutor):
    """The baseline executor on an explicit plan, by default the one
    :func:`~repro.collectives.plan.plan_for` builds for the topology — the
    two-phase plan on a multi-node ring, which makes this the Sequential
    baseline of the scale-out experiments."""

    def __init__(self, topology: Topology, nbytes_total: int,
                 plan: Optional[CollectivePlan] = None,
                 n_cus: Optional[int] = None):
        super().__init__(topology, nbytes_total,
                         plan or plan_for(topology, "ring-rs"), n_cus)


class RingAllReduce:
    """Baseline all-reduce = ring-RS followed by ring-AG (Section 2.3)."""

    label = "ar"

    def __init__(self, topology: Topology, nbytes_total: int,
                 n_cus: Optional[int] = None):
        self.topo = topology
        self.nbytes_total = nbytes_total
        self.n_cus = n_cus
        self.rs_result: Optional[CollectiveResult] = None
        self.ag_result: Optional[CollectiveResult] = None

    def run(self) -> CollectiveResult:
        start = self.topo.env.now
        self.rs_result = RingReduceScatter(
            self.topo, self.nbytes_total, n_cus=self.n_cus).run()
        self.ag_result = RingAllGather(
            self.topo, self.nbytes_total, n_cus=self.n_cus).run()
        return CollectiveResult(start=start, end=self.topo.env.now)
