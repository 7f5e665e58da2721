"""Region -> DMA-block bookkeeping and triggering (Section 4.2.2).

The Tracker completes *regions* (WF/WG output tiles); DMA transfers move
*blocks* (a ring chunk, or a slice of one).  The
:class:`TriggerController` maps completed regions to their block, counts
down the block's remaining regions, and when a block is fully updated
either:

* fires the block's pre-programmed DMA command (steady-state chunks), or
* fires a plain *terminal* event (the device's own chunk — the final,
  fully-reduced reduce-scatter output that stays local).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.gpu.dma import DMAEngine
from repro.sim.engine import BaseEvent, Environment
from repro.t3.tracker import RegionKey, Tracker


@dataclass
class DMABlock:
    """One triggerable unit: a chunk's worth of tracked regions."""

    block_id: str
    regions: Set[RegionKey]
    #: DMA command to fire on completion; None for terminal blocks.
    dma_command_id: Optional[str] = None
    completed: Set[RegionKey] = field(default_factory=set)
    fired: bool = False

    @property
    def remaining(self) -> int:
        return len(self.regions) - len(self.completed)

    @property
    def is_terminal(self) -> bool:
        return self.dma_command_id is None


class TriggerController:
    """Connects a Tracker's region completions to DMA block triggers."""

    def __init__(self, env: Environment, tracker: Tracker, dma: DMAEngine):
        self.env = env
        self.tracker = tracker
        self.dma = dma
        self._blocks: Dict[str, DMABlock] = {}
        self._region_to_block: Dict[RegionKey, str] = {}
        self._terminal_events: Dict[str, BaseEvent] = {}
        self._first_complete: Dict[str, float] = {}
        tracker.add_completion_listener(self._on_region_complete)
        env.add_diagnostic(self._diagnostic)

    # -- programming -------------------------------------------------------------

    def program_block(self, block: DMABlock) -> Optional[BaseEvent]:
        """Register a block.  Returns the terminal event for terminal
        blocks (None for DMA blocks — use the DMA completion instead)."""
        if block.block_id in self._blocks:
            raise ValueError(f"block {block.block_id!r} programmed twice")
        if not block.regions:
            raise ValueError(f"block {block.block_id!r} has no regions")
        if block.dma_command_id is not None and not self.dma.is_programmed(
                block.dma_command_id):
            raise ValueError(
                f"block {block.block_id!r} references unprogrammed DMA "
                f"command {block.dma_command_id!r}"
            )
        for region in block.regions:
            if region in self._region_to_block:
                raise ValueError(
                    f"region {region} already owned by block "
                    f"{self._region_to_block[region]!r}"
                )
            self._region_to_block[region] = block.block_id
        self._blocks[block.block_id] = block
        if block.is_terminal:
            event = BaseEvent(self.env)
            self._terminal_events[block.block_id] = event
            return event
        return None

    # -- runtime ---------------------------------------------------------------------

    def _on_region_complete(self, region: RegionKey) -> None:
        block_id = self._region_to_block.get(region)
        if block_id is None:
            return
        block = self._blocks[block_id]
        if region in block.completed:
            raise RuntimeError(f"region {region} completed twice")
        if not block.completed:
            self._first_complete[block_id] = self.env.now
        block.completed.add(region)
        if block.remaining == 0 and not block.fired:
            block.fired = True
            # Trigger eagerness is an overlap-policy decision: the paper
            # fires eagerly (delay 0, the inline path below); a policy
            # may hold the fire briefly to batch DMA traffic.
            overlap = self.env.overlap
            delay = 0.0
            if overlap is not None:
                delay = overlap.trigger_fire_delay(self.dma.gpu.gpu_id,
                                                   block)
            if delay > 0.0:
                self.env.call_later(
                    delay, lambda _ev, b=block: self._fire(b))
            else:
                self._fire(block)

    def _fire(self, block: DMABlock) -> None:
        """Deliver a completed block's trigger (DMA or terminal event)."""
        block_id = block.block_id
        if self.env.invariants is not None:
            self.env.invariants.on_trigger_fired(
                f"trigger block {block_id}")
        if self.env.obs is not None:
            scope = self.env.obs.scope(self.dma.gpu.gpu_id, "trigger")
            scope.count("terminal_fires" if block.is_terminal
                        else "dma_fires")
            first = self._first_complete.get(block_id, self.env.now)
            # Gather window: first region done -> block fully updated.
            scope.observe("block_gather_ns", self.env.now - first)
        if block.is_terminal:
            self._terminal_events[block_id].succeed(self.env.now)
        else:
            self.dma.trigger(block.dma_command_id)

    # -- introspection ------------------------------------------------------------------

    def _diagnostic(self) -> str:
        """One line of block state for the engine's hang dump."""
        pending = sorted(
            block_id for block_id, block in self._blocks.items()
            if not block.fired)
        line = (f"trigger[gpu{self.dma.gpu.gpu_id}]: "
                f"{self.blocks_fired} fired, {self.blocks_pending} pending")
        if pending:
            shown = ", ".join(pending[:5])
            more = f" +{len(pending) - 5} more" if len(pending) > 5 else ""
            line += f" ({shown}{more})"
        return line

    @property
    def blocks_fired(self) -> int:
        return sum(1 for b in self._blocks.values() if b.fired)

    @property
    def blocks_pending(self) -> int:
        return sum(1 for b in self._blocks.values() if not b.fired)
