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
simulation quantum, so each step's duration converges to its bottleneck
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
from repro.memory.controller import MemoryController
from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent, Process
from repro.sim.machines import CallbackMachine, CompletionGroup
from repro.sim.primitives import Pipe, Resource

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


class _QuantumMachine(CallbackMachine):
    """Callback state machine for one pipelined quantum: operand reads →
    CU reduction → link serialization → remote writes.

    The event-driven replacement for the former ``_quantum_proc``
    generator process — by far the most-instantiated process in the
    simulator.  The machine subclasses :class:`BaseEvent` and re-arms
    *itself* for every stage boundary (boot, reads-complete,
    writes-complete, completion) and for the CU hold interval, so one
    recycled object replaces the process + boot event + two ``AllOf``
    composites + per-child closures the generator version allocated per
    quantum.  Every boundary is scheduled at exactly the slot the
    generator version's event occupied (see ``repro.sim.machines``), so
    firing order — and therefore every DRAM arbitration decision — is
    bit-identical to the process version (the recorded fingerprints in
    ``tests/test_engine_regressions.py`` enforce this).

    Callers guarantee ``read_bytes`` and ``cu_bytes`` are positive (every
    forward reads at least the local copy and moves it through the CUs).
    """

    __slots__ = ("coll", "rank", "link", "dst_mc", "nbytes", "read_bytes",
                 "cu_bytes", "reduce_unit", "cu_bw", "chunk_id", "group",
                 "_stage", "_pending", "_hold")

    def __init__(self, coll: "_PlanExecutor", rank: int, link: Pipe,
                 dst_mc: MemoryController, nbytes: int, read_bytes: int,
                 cu_bytes: int, reduce_unit: Resource, cu_bw: float,
                 chunk_id: int, group: CompletionGroup):
        super().__init__(coll.env)
        self.coll = coll
        self.rank = rank
        self.link = link
        self.dst_mc = dst_mc
        self.nbytes = nbytes
        self.read_bytes = read_bytes
        self.cu_bytes = cu_bytes
        self.reduce_unit = reduce_unit
        self.cu_bw = cu_bw
        self.chunk_id = chunk_id
        self.group = group
        self._stage = 0
        self._pending = 0
        self._hold = 0.0

    def _advance(self, _event: Optional[BaseEvent] = None) -> None:
        stage = self._stage
        if stage == 0:
            # Booted: issue the operand reads.
            self._stage = 1
            coll = self.coll
            reads = coll.topo.gpus[self.rank].mc.submit_bulk(
                AccessKind.READ, Stream.COMPUTE, self.read_bytes, coll.label)
            self._pending = len(reads)
            cb = self._read_done
            for ev in reads:
                ev.add_callback(cb)
        elif stage == 1:
            # Reads landed: queue for the CU reduce unit.
            self._stage = 2
            env = self.env
            hold = self.cu_bytes / self.cu_bw
            if env.faults is not None and env.faults.has_compute_faults:
                # Straggler seam: the CU reduction of a slowed GPU paces
                # its ring step exactly like a slowed GEMM wave.
                hold *= env.faults.compute_factor(
                    self.coll.topo.gpus[self.rank].gpu_id, env._now)
            self._hold = hold
            self.reduce_unit.request().add_callback(self._granted)
        elif stage == 2:
            # CU hold elapsed: release the unit, go on the wire.
            self.reduce_unit.release()
            self.link.transfer(self.nbytes).add_callback(self._arrived)
        elif stage == 3:
            # Writes landed (the slot the writes-AllOf used to fire in).
            self._stage = 4
            self._arm()
        else:
            # Completion slot (the former process-completion event).
            self.group.done_one()

    def _read_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._arm()

    def _granted(self, _event: BaseEvent) -> None:
        self._arm(self._hold)

    def _arrived(self, _event: BaseEvent) -> None:
        # Arriving writes are tagged with the chunk they deliver (in the
        # receiver's labels), so a T3 Tracker at the receiver can gate
        # consumers on chunk arrival (Section 7.2).
        writes = self.dst_mc.submit_bulk(
            AccessKind.WRITE, Stream.COMM, self.nbytes, self.coll.label,
            wg_id=self.chunk_id, chunk_id=self.chunk_id)
        self._pending = len(writes)
        cb = self._write_done
        for ev in writes:
            ev.add_callback(cb)

    def _write_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._stage = 3
            self._arm()


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
        link = self.topo.gpus[rank].link_to(step.dst)
        dst_mc = self.topo.gpus[dst].mc
        tags = [(cid + shift) % self.plan.n_chunks
                for cid in step.send_chunks]
        for cid, tag in zip(step.send_chunks, tags):
            for q in self._quanta(self.chunks[cid]):
                group.expect()
                _QuantumMachine(
                    self, rank, link, dst_mc, q, read_factor * q,
                    (read_factor + 1) * q, reduce_unit, cu_bw, tag,
                    group).start()
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
