"""One transfer across a link: the state machine every data mover shares.

The CU-driven baseline collective (Figure 10a), a Tracker-triggered DMA
command (Section 4.2.2) and a fused GEMM's fine-grained remote store
(Figure 7) all move bytes the same way, and all run :class:`Transfer`:
optional source reads, an optional CU reduce-unit hold, link
serialization, the landing writes or NMC updates at the receiver, then
a writes-landed slot and a completion slot.  Each boundary is armed in
the slot the generator process it replaced used (the slot-parity
contract of :mod:`repro.sim.machines`), so the event order, and with it
every DRAM arbitration decision, is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent
from repro.sim.machines import CallbackMachine, CompletionGroup

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.memory.controller import MemoryController
    from repro.sim.primitives import Pipe, Resource


class Hop(NamedTuple):
    """The path every transfer of one send takes.

    A transfer first reads ``reads`` copies of its bytes from ``src_mc``
    on ``read_stream``, tagged ``read_chunk`` (none: it goes on the wire
    in its boot slot).  With a ``reduce_unit`` it then holds that unit
    while the copies read plus the one sent pass through at ``cu_bw``
    bytes/ns, scaled by GPU ``gpu_id``'s straggler factor.  It crosses
    ``link`` and lands in ``dst_mc`` as ``op`` under traffic ``label``.
    """

    link: "Pipe"
    dst_mc: "MemoryController"
    op: AccessKind
    label: str
    src_mc: Optional["MemoryController"] = None
    reads: int = 0
    read_stream: Stream = Stream.COMM
    read_chunk: Optional[int] = None
    reduce_unit: Optional["Resource"] = None
    cu_bw: float = 0.0
    gpu_id: int = 0


class Transfer(CallbackMachine):
    """``nbytes`` (positive) over ``hop``, landing tagged ``wg_id`` and
    ``chunk_id``.

    Stage map: 0 = boot, 1 = reads landed, 2 = CU hold elapsed, 3 =
    writes landed, 4 = completion, which reports to ``group``; a stage
    with nothing to do runs on in the slot it was reached in.  With no
    ``group`` nobody waits, and the completion slot is a bare event that
    fires no callback.
    """

    __slots__ = ("hop", "nbytes", "wg_id", "chunk_id", "group", "_stage",
                 "_pending", "_hold")

    def __init__(self, hop: Hop, nbytes: int, wg_id: Optional[int],
                 chunk_id: Optional[int],
                 group: Optional[CompletionGroup]):
        super().__init__(hop.link.env)
        self.hop = hop
        self.nbytes = nbytes
        self.wg_id = wg_id
        self.chunk_id = chunk_id
        self.group = group
        self._stage = 0
        self._pending = 0
        self._hold = 0.0

    def _advance(self, _event: Optional[BaseEvent] = None) -> None:
        stage = self._stage
        hop = self.hop
        if stage == 0:
            self._stage = 1
            if hop.reads:
                reads = hop.src_mc.submit_bulk(
                    AccessKind.READ, hop.read_stream, hop.reads * self.nbytes,
                    hop.label, chunk_id=hop.read_chunk)
                self._pending = len(reads)
                cb = self._read_done
                for ev in reads:
                    ev.add_callback(cb)
                return
            stage = 1
        if stage == 1:
            if hop.reduce_unit is not None:
                self._stage = 2
                env = self.env
                hold = (hop.reads + 1) * self.nbytes / hop.cu_bw
                if env.faults is not None and env.faults.has_compute_faults:
                    # Straggler seam: the CU reduction of a slowed GPU
                    # paces its ring step exactly like a slowed GEMM wave.
                    hold *= env.faults.compute_factor(hop.gpu_id, env._now)
                self._hold = hold
                hop.reduce_unit.request().add_callback(self._granted)
                return
            stage = 2
        if stage == 2:
            if hop.reduce_unit is not None:
                hop.reduce_unit.release()
            hop.link.transfer(self.nbytes).add_callback(self._arrived)
        elif stage == 3:
            self._stage = 4
            if self.group is None:
                BaseEvent(self.env).succeed()
            else:
                self._arm()
        else:
            self.group.done_one()

    def _read_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._arm()

    def _granted(self, _event: BaseEvent) -> None:
        self._arm(self._hold)

    def _arrived(self, _event: BaseEvent) -> None:
        hop = self.hop
        writes = hop.dst_mc.submit_bulk(
            hop.op, Stream.COMM, self.nbytes, hop.label, wg_id=self.wg_id,
            chunk_id=self.chunk_id)
        self._pending = len(writes)
        cb = self._write_done
        for ev in writes:
            ev.add_callback(cb)

    def _write_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._stage = 3
            self._arm()
