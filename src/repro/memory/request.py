"""Typed memory transactions.

Every DRAM access in the simulator is a :class:`MemRequest`.  Requests
carry:

* an :class:`AccessKind` — ``READ``, ``WRITE``, or ``UPDATE`` (the NMC
  op-and-store of Section 4.3, serviced at CCDWL = 2x CCDL);
* a :class:`Stream` — ``COMPUTE`` (producer kernel) or ``COMM``
  (collective/DMA), the two streams the memory controller arbitrates
  between (Section 4.5);
* a ``label`` used for the paper's traffic accounting (Figures 17/18),
  e.g. ``"gemm"``, ``"rs"``, ``"ag"``, ``"dma"``;
* optional Tracker metadata ``(wg_id, wf_id)`` — the paper adds exactly
  this metadata to memory accesses so the Tracker can attribute updates
  to WF output tiles (Section 4.2.1).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.sim.engine import BaseEvent


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    #: near-memory op-and-store (atomic reduce at the DRAM banks).
    UPDATE = "update"


class Stream(enum.Enum):
    COMPUTE = "compute"
    COMM = "comm"


_request_ids = itertools.count()

#: memoized ``label.kind`` accounting keys — one f-string per distinct
#: (label, kind) pair instead of one per request (tens of thousands of
#: requests per simulation share a handful of keys).
_counter_keys: dict = {}


def accounting_key(label: str, kind: AccessKind) -> str:
    """The ``label.kind`` traffic-counter key (e.g. ``"gemm.read"``)."""
    key = (label, kind)
    counter_key = _counter_keys.get(key)
    if counter_key is None:
        counter_key = _counter_keys[key] = f"{label}.{kind.value}"
    return counter_key


class MemRequest:
    """A single memory transaction of ``nbytes`` (one simulation quantum).

    A plain slotted class: hundreds of thousands are built per simulated
    case.  :meth:`MemoryController.submit_bulk` fills the slots directly
    instead of calling ``__init__`` (one accounting-key lookup per bulk
    call instead of one per quantum), so a new slot must be set there too.

    ``done`` is the completion event, attached on submit.  It fires with
    the request as its value, and the channel drops ``done`` once the
    request is serviced so that a finished request and its event do not
    form a reference cycle.
    """

    __slots__ = ("kind", "stream", "nbytes", "label", "wg_id", "wf_id",
                 "chunk_id", "req_id", "done", "issued_at", "serviced_at",
                 "counter_key", "__weakref__")

    def __init__(self, kind: AccessKind, stream: Stream, nbytes: int,
                 label: str, wg_id: Optional[int] = None,
                 wf_id: Optional[int] = None, chunk_id: Optional[int] = None,
                 req_id: Optional[int] = None,
                 done: Optional[BaseEvent] = None,
                 issued_at: Optional[float] = None,
                 serviced_at: Optional[float] = None):
        if nbytes <= 0:
            raise ValueError("memory request must move a positive byte count")
        self.kind = kind
        self.stream = stream
        self.nbytes = nbytes
        self.label = label
        self.wg_id = wg_id
        self.wf_id = wf_id
        self.chunk_id = chunk_id
        self.req_id = next(_request_ids) if req_id is None else req_id
        self.done = done
        self.issued_at = issued_at
        self.serviced_at = serviced_at
        #: accounting key, computed once — read on every service completion.
        self.counter_key = accounting_key(label, kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemRequest(#{self.req_id} {self.counter_key} "
                f"{self.stream.value} {self.nbytes}B)")

    @property
    def has_tracker_metadata(self) -> bool:
        return self.wg_id is not None and self.wf_id is not None
