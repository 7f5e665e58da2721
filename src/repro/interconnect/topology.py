"""Node topologies: wire GPUs together with bandwidth/latency links.

The paper evaluates the ring topology (intra-node tensor parallelism,
Section 2.3); the fully-connected topology supports the direct-RS
discussion of Section 7.1.  A topology owns the :class:`GPU` instances and
the directed :class:`~repro.sim.primitives.Pipe` links between them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.config import SystemConfig
from repro.sim.engine import Environment, SimulationError
from repro.sim.primitives import Pipe

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.gpu.gpu import GPU


class Topology:
    """Base: a set of GPUs plus directed links.

    ``n_gpus`` is the rank count plans are built for; ``gpus`` holds the
    simulated GPUs, which is every rank except on a
    :class:`PeriodicRingTopology`.
    """

    def __init__(self, env: Environment, system: SystemConfig,
                 policy_name: str = "compute-priority"):
        # Imported here: the GPU's DMA engine runs on this package's
        # transfer machine, so a module-level import would be a cycle.
        from repro.gpu.gpu import GPU

        self.env = env
        self.system = system
        self.gpus: List[GPU] = [
            GPU(env, gpu_id, system, policy_name=policy_name)
            for gpu_id in range(self.n_simulated)
        ]
        self.links: Dict[Tuple[int, int], Pipe] = {}
        self._wire()

    @property
    def n_simulated(self) -> int:
        return self.system.n_gpus

    # subclasses define which directed edges exist
    def edges(self) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def resolve(self, rank: int) -> Tuple[int, int]:
        """The simulated GPU that plays ring rank ``rank``, and the shift
        that carries ``rank``'s chunk ids into that GPU's."""
        return rank, 0

    def peer(self, rank: int):
        """What a link into ring rank ``rank`` delivers to."""
        return self.gpus[rank]

    def _make_pipe(self, src: int, dst: int, bandwidth: float,
                   latency_ns: float, suffix: str = "") -> Pipe:
        """Build + register one directed link, applying any static link
        degradation from ``env.faults`` (bandwidth factor, extra latency)."""
        nominal_bandwidth, nominal_latency = bandwidth, latency_ns
        if self.env.faults is not None:
            bandwidth, latency_ns = self.env.faults.link_parameters(
                src, dst, bandwidth, latency_ns)
        pipe = Pipe(self.env, bandwidth_bytes_per_ns=bandwidth,
                    latency_ns=latency_ns,
                    name=f"link.{src}->{dst}{suffix}")
        pipe.endpoints = (src, dst)
        pipe.nominal_bandwidth = nominal_bandwidth
        pipe.nominal_latency_ns = nominal_latency
        self.links[(src, dst)] = pipe
        self.gpus[src].connect(self.peer(dst), pipe)
        return pipe

    def _wire(self) -> None:
        link_cfg = self.system.link
        for src, dst in self.edges():
            self._make_pipe(src, dst, link_cfg.bandwidth,
                            link_cfg.latency_ns)

    def link(self, src: int, dst: int) -> Pipe:
        if (src, dst) not in self.links:
            raise SimulationError(f"no link {src}->{dst} in this topology")
        return self.links[(src, dst)]

    @property
    def n_gpus(self) -> int:
        return self.system.n_gpus

    def total_bytes_on_wire(self) -> float:
        return sum(pipe.bytes_sent for pipe in self.links.values())


class RingTopology(Topology):
    """Bidirectional ring; ring collectives send "downstream" to
    ``(rank - 1) mod N`` as in the paper's Figure 7 (GPU-0 sends to
    GPU-3)."""

    def edges(self) -> List[Tuple[int, int]]:
        n = self.system.n_gpus
        forward = [(i, (i - 1) % n) for i in range(n)]
        backward = [(i, (i + 1) % n) for i in range(n)]
        return forward + backward

    def next_gpu(self, rank: int) -> int:
        """Downstream neighbour (the one ``rank`` sends chunks to)."""
        return (rank - 1) % self.system.n_gpus

    def prev_gpu(self, rank: int) -> int:
        """Upstream neighbour (the one ``rank`` receives chunks from)."""
        return (rank + 1) % self.system.n_gpus


class _RotatedController:
    """A memory controller written through a ring's closing link: chunk
    and WG ids are rotated into the receiving GPU's labels."""

    __slots__ = ("mc", "shift", "n_chunks", "wg_shift", "n_wgs")

    def __init__(self, mc, shift: int, n_chunks: int, wgs_per_chunk: int):
        self.mc = mc
        self.shift = shift
        self.n_chunks = n_chunks
        self.wg_shift = shift * wgs_per_chunk
        self.n_wgs = n_chunks * wgs_per_chunk

    def submit_bulk(self, kind, stream, nbytes, label, wg_id=None,
                    wf_id=None, chunk_id=None):
        if wg_id is not None:
            wg_id = (wg_id + self.wg_shift) % self.n_wgs
        if chunk_id is not None:
            chunk_id = (chunk_id + self.shift) % self.n_chunks
        return self.mc.submit_bulk(kind, stream, nbytes, label, wg_id,
                                   wf_id, chunk_id)


class _RotatedPeer:
    """A virtual ring rank as its upstream neighbour sees it: an id to
    link to and a memory controller to store into."""

    __slots__ = ("gpu_id", "mc")

    def __init__(self, gpu_id: int, mc: _RotatedController):
        self.gpu_id = gpu_id
        self.mc = mc


class PeriodicRingTopology(RingTopology):
    """An ``N``-rank ring of which only ranks ``0..period-1`` are simulated.

    In a rank-symmetric case
    (:func:`~repro.collectives.plan.rotation_period`), rank ``r + period``
    runs rank ``r``'s simulation with every chunk id ``period`` ahead, so
    ranks ``period..N-1`` are copies.  Ranks ``1..period-1`` send
    downstream as on the full ring.  Rank 0's downstream link, to virtual
    rank ``N-1``, delivers into rank ``period-1`` with chunk ``c``
    relabelled ``c + period`` and WG ``w`` relabelled
    ``w + period * wgs_per_chunk``: exactly what rank ``period-1``
    receives from virtual rank ``period``.  Plans are built for all
    ``n_gpus`` ranks; the fused GEMM-RS and the collective executors
    program and launch only the simulated ``gpus``.  Only the downstream
    ring is wired.
    """

    def __init__(self, env: Environment, system: SystemConfig, period: int,
                 wgs_per_chunk: int, policy_name: str = "compute-priority"):
        if period < 1 or system.n_gpus % period:
            raise SimulationError(
                f"period {period} does not divide the {system.n_gpus}-rank "
                "ring")
        self.period = period
        self.wgs_per_chunk = wgs_per_chunk
        super().__init__(env, system, policy_name=policy_name)

    @property
    def n_simulated(self) -> int:
        return self.period

    def edges(self) -> List[Tuple[int, int]]:
        n = self.system.n_gpus
        return [(rank, (rank - 1) % n) for rank in range(self.period)]

    def resolve(self, rank: int) -> Tuple[int, int]:
        simulated = rank % self.period
        return simulated, (simulated - rank) % self.system.n_gpus

    def peer(self, rank: int):
        simulated, shift = self.resolve(rank)
        if not shift:
            return self.gpus[simulated]
        return _RotatedPeer(rank, _RotatedController(
            self.gpus[simulated].mc, shift, self.system.n_gpus,
            self.wgs_per_chunk))


class FullyConnectedTopology(Topology):
    """All-to-all dedicated links (direct-RS substrate, Section 7.1)."""

    def edges(self) -> List[Tuple[int, int]]:
        n = self.system.n_gpus
        return [(i, j) for i in range(n) for j in range(n) if i != j]


class HierarchicalRingTopology(RingTopology):
    """A ring spanning multiple nodes (Section 7.8).

    GPUs are grouped into nodes of ``gpus_per_node``; ring edges that
    cross a node boundary use slower inter-node links
    (``inter_node_fraction`` of the intra-node bandwidth, plus extra
    latency).  Ring collectives and T3 fusion work unchanged — the slow
    hops simply pace the affected steps, exposing the paper's
    "communication costs can be much larger than GEMM execution"
    inter-node regime.

    Beyond the flat ring, the topology wires **rail links**: for each
    intra-node position ``g``, GPU ``(k, g)`` connects to ``(k±1, g)`` on
    the neighbouring nodes.  These per-position inter-node rings carry
    the ``inter`` phase of the hierarchical collective plan
    (:func:`repro.collectives.plan.hierarchical_rs_plan`), which is what
    lets fused T3 reduce across nodes.  Rail links cross nodes, so they
    get the slow inter-node parameters automatically.
    """

    def __init__(self, env: Environment, system: SystemConfig,
                 gpus_per_node: int, inter_node_fraction: float = 0.25,
                 inter_node_extra_latency_ns: float = 1500.0,
                 policy_name: str = "compute-priority"):
        if gpus_per_node < 1 or system.n_gpus % gpus_per_node:
            raise SimulationError(
                f"{system.n_gpus} GPUs cannot be grouped into nodes of "
                f"{gpus_per_node}")
        if not 0 < inter_node_fraction <= 1:
            raise SimulationError("inter_node_fraction must be in (0, 1]")
        self.gpus_per_node = gpus_per_node
        self.inter_node_fraction = inter_node_fraction
        self.inter_node_extra_latency_ns = inter_node_extra_latency_ns
        super().__init__(env, system, policy_name=policy_name)

    @property
    def n_nodes(self) -> int:
        return self.system.n_gpus // self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank % self.system.n_gpus // self.gpus_per_node

    def edges(self) -> List[Tuple[int, int]]:
        base = super().edges()
        per = self.gpus_per_node
        if self.n_nodes <= 1 or per <= 1:
            return base  # the flat ring already is the node ring
        seen = set(base)
        extra: List[Tuple[int, int]] = []

        def add(src: int, dst: int) -> None:
            if dst != src and (src, dst) not in seen:
                seen.add((src, dst))
                extra.append((src, dst))

        for k in range(self.n_nodes):
            # Close each node's ring: the flat ring supplies the in-node
            # hops, but position 0 <-> position per-1 wraps through the
            # next node — the intra phase needs the direct link.
            add(k * per, k * per + per - 1)
            add(k * per + per - 1, k * per)
        for g in range(per):
            for k in range(self.n_nodes):
                src = k * per + g
                for dk in (-1, 1):
                    add(src, ((k + dk) % self.n_nodes) * per + g)
        return base + extra

    def is_inter_node(self, src: int, dst: int) -> bool:
        return self.node_of(src) != self.node_of(dst)

    def _wire(self) -> None:
        link_cfg = self.system.link
        for src, dst in self.edges():
            crossing = self.is_inter_node(src, dst)
            bandwidth = link_cfg.bandwidth * (
                self.inter_node_fraction if crossing else 1.0)
            latency = link_cfg.latency_ns + (
                self.inter_node_extra_latency_ns if crossing else 0.0)
            self._make_pipe(src, dst, bandwidth, latency,
                            suffix=".xnode" if crossing else "")
