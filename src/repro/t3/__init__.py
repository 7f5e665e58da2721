"""T3: the paper's contribution — transparent track & trigger.

* :mod:`repro.t3.tracker` — the lightweight set-associative Tracker at the
  memory controller (Section 4.2.1).
* :mod:`repro.t3.trigger` — region->DMA-block bookkeeping and triggering
  (Section 4.2.2).
* :mod:`repro.t3.address_map` — ``remote_map`` / ``dma_map`` address-space
  configuration (Section 4.4, Figures 11/12).
* :mod:`repro.t3.driver` — the driver step (Figure 12) and run loop
  every T3 collective shares.
* :mod:`repro.t3.fusion` — the fused GEMM-collective orchestration
  (Figure 7); :mod:`repro.t3.standalone` (zero-CU NMC reduce-scatter) and
  :mod:`repro.t3.consumer` (all-gather -> consumer GEMM) reuse the same
  driver step (Section 7.2).
* :mod:`repro.t3.configs` — the evaluation configurations of Section 5.3.
"""

from repro.t3.tracker import Tracker, TrackerStats
from repro.t3.trigger import DMABlock, TriggerController
from repro.t3.address_map import AddressSpaceConfig, ChunkRoute, RouteKind
from repro.t3.driver import T3Result
from repro.t3.fusion import FusedGEMMRS
from repro.t3.standalone import NMCReduceScatter
from repro.t3.consumer import FusedAGConsumerGEMM, sequential_ag_then_gemm
from repro.t3.configs import RunConfig, CONFIGS

__all__ = [
    "AddressSpaceConfig",
    "CONFIGS",
    "ChunkRoute",
    "DMABlock",
    "FusedAGConsumerGEMM",
    "FusedGEMMRS",
    "NMCReduceScatter",
    "sequential_ag_then_gemm",
    "RouteKind",
    "RunConfig",
    "T3Result",
    "Tracker",
    "TrackerStats",
    "TriggerController",
]
