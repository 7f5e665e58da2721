"""The assembled GPU: memory controller + DMA engine + link endpoints.

A :class:`GPU` owns no global knowledge; multi-GPU structure (ring /
fully-connected wiring) is assembled by :mod:`repro.interconnect.topology`.
T3's Tracker is attached by the driver step (:mod:`repro.t3.driver`) as a
memory-controller observer — a baseline GPU simply has none, mirroring
the paper's "T3 enhancements in orange" framing of Figure 8.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import SystemConfig
from repro.gpu.dma import DMAEngine
from repro.memory.controller import MemoryController
from repro.sim.engine import Environment, Process, SimulationError
from repro.sim.primitives import Pipe


class GPU:
    """One simulated GPU."""

    def __init__(self, env: Environment, gpu_id: int, system: SystemConfig,
                 policy_name: str = "compute-priority"):
        self.env = env
        self.gpu_id = gpu_id
        self.system = system
        self.mc = MemoryController(env, system, policy_name=policy_name,
                                   gpu_id=gpu_id)
        self.dma = DMAEngine(self)
        self._links: Dict[int, Pipe] = {}
        self._peers: Dict[int, "GPU"] = {}

    # -- wiring -----------------------------------------------------------------

    def connect(self, peer: "GPU", pipe: Pipe) -> None:
        """Register an *outgoing* link to ``peer``."""
        if peer.gpu_id == self.gpu_id:
            raise SimulationError("cannot link a GPU to itself")
        self._links[peer.gpu_id] = pipe
        self._peers[peer.gpu_id] = peer

    def link_to(self, gpu_id: int) -> Pipe:
        if gpu_id not in self._links:
            raise SimulationError(
                f"GPU {self.gpu_id} has no link to GPU {gpu_id}")
        return self._links[gpu_id]

    def peer(self, gpu_id: int) -> "GPU":
        if gpu_id not in self._peers:
            raise SimulationError(
                f"GPU {self.gpu_id} has no peer GPU {gpu_id}")
        return self._peers[gpu_id]

    @property
    def neighbors(self) -> Dict[int, "GPU"]:
        return dict(self._peers)

    # -- kernel launch --------------------------------------------------------------

    def launch(self, kernel, name: Optional[str] = None) -> Process:
        """Run ``kernel.execute(self)`` as a process, recording its span
        into ``env.obs`` and ``env.trace`` when they are attached."""
        label = name or getattr(kernel, "label", type(kernel).__name__)

        def _wrapper():
            start = self.env.now
            result = yield self.env.process(
                kernel.execute(self), name=f"gpu{self.gpu_id}.{label}")
            if self.env.obs is not None:
                scope = self.env.obs.scope(self.gpu_id, "compute")
                scope.span("kernel", start, self.env.now)
                scope.count("kernels")
            if self.env.trace is not None:
                self.env.trace.span(
                    name=label, category="kernel", start_ns=start,
                    end_ns=self.env.now, track=f"GPU{self.gpu_id}",
                    group="compute")
            return result

        return self.env.process(_wrapper(), name=f"gpu{self.gpu_id}.{label}.outer")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPU {self.gpu_id} links={sorted(self._links)}>"
