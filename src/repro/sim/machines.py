"""Building blocks for event-driven callback state machines.

The model layer originally expressed pipelined work (operand reads → CU
reduction → link transfer → remote writes) as generator *processes*.  A
process costs a boot event, a generator frame, an ``AllOf`` composite
plus one closure per awaited sub-event, and a generator resume per
firing — the machinery PR 5's profile showed dominating the hot path
once the DRAM channels had been converted.

A :class:`CallbackMachine` replaces all of that with one recycled
object: the machine *is* an event, and re-arms itself on the schedule
for every stage boundary.  The conversion contract is **slot parity**:
each boundary is armed at exactly the point in the event order where
the generator version's event (boot, ``AllOf`` completion, process
completion) was scheduled, so the firing order — and therefore every
queue length any arbitration policy observes — is bit-identical to the
process version.  ``scripts/smoke_engine.py`` and the golden results
files enforce this.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import BaseEvent, Environment, SimulationError


class CallbackMachine(BaseEvent):
    """An event that re-arms itself: the chassis of a state machine.

    Subclasses implement ``_advance(event=None)`` — the single callback
    fired at every self-armed stage boundary — and call :meth:`_arm` to
    schedule the next boundary (``delay=0`` lands in the engine's
    same-time FIFO lane, elsewhere the heap).  A machine sleeps at most
    once at a time; re-arming while pending is a bug and raises.

    Re-arming allocates nothing: the callback tuple is built once per
    class and holds the plain ``_advance`` function, which the engine
    calls with the fired event — the machine itself — as ``self``.  A
    per-instance tuple of the bound method would tie every machine into
    a reference cycle and keep finished machines alive until a
    cycle-collector pass.  The tuple also means a pending machine takes
    no extra subscribers.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._rearm = (cls._advance,)

    def __init__(self, env: Environment):
        self.env = env
        self._callbacks = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._fired = False

    def start(self) -> None:
        """Boot the machine: the slot a generator process booted in."""
        self._arm()

    def _arm(self, delay: float = 0.0) -> None:
        if self._callbacks is not None:
            raise SimulationError(
                f"{type(self).__name__} re-armed while pending")
        self._callbacks = self._rearm
        self._triggered = True
        self._fired = False
        # Inlined Environment.schedule() zero-delay fast path.
        if delay == 0.0:
            self.env._now_q.append(self)
        else:
            self.env.schedule(self, delay)

    def _advance(self, event: Optional[BaseEvent] = None) -> None:
        raise NotImplementedError  # pragma: no cover


class CompletionGroup(BaseEvent):
    """Counting barrier over a batch of callback machines.

    The event-driven replacement for ``AllOf`` over *processes*: each
    machine reports in (at the slot its process-completion event used to
    occupy) via :meth:`done_one`, and the group fires once all have —
    the same slot the composite's completion event used.  The count may
    be topped up with :meth:`expect` while launching, as long as no
    started machine can have reported yet (they cannot before their boot
    event fires, so launch loops are safe).
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: Environment, remaining: int = 0):
        super().__init__(env)
        self._remaining = remaining

    def expect(self, count: int = 1) -> None:
        self._remaining += count

    def done_one(self) -> None:
        self._remaining -= 1
        if not self._remaining:
            self.succeed()
