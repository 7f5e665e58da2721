"""Core discrete-event engine: the event loop and process machinery.

Simulation time is a ``float`` in *nanoseconds* throughout this repository
(see :mod:`repro.units`).  Events scheduled at the same timestamp are fired
in FIFO order of scheduling, which keeps runs deterministic.

One ordering rule, kept by every loop that fires events (``run()``'s
unbounded and bounded loops, :meth:`Environment.step`): the schedule is
a heap of ``(time, seq, event)`` with a monotonically increasing ``seq``
as the FIFO tie-break, fronted by a plain FIFO deque for events landing
at the *current* timestamp, and it is drained as same-time heap entries
first, then the deque, then the clock advances to the next heap entry.

The deque fast path is safe because of a structural invariant: any heap
entry at time ``T`` was pushed *before* the clock reached ``T`` (time
only moves forward), so it always precedes — in seq order — every
zero-delay event scheduled once the clock arrived at ``T``.  Draining
same-time heap entries first, then the deque, reproduces exactly the
order the single heap produced, while ~70% of all events (zero-delay
wakes, completions, boots) skip tuple construction and heap
percolation entirely.  Recorded per-case fingerprints (suite payloads,
event counts, final times, telemetry snapshots) in
``tests/test_engine_regressions.py`` pin that order.
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

# Resolved lazily to avoid a circular import (primitives imports engine).
_Timeout = None
_AllOf = None
_AnyOf = None


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (double triggers, deadlock...)."""


class BaseEvent:
    """An occurrence at a point in simulated time.

    Callbacks attached via :meth:`add_callback` run when the event fires.
    Events carry a ``value`` that is delivered to any process yielding on
    them; if the value is an exception instance flagged via :meth:`fail`,
    it is *thrown* into the waiting process instead.

    ``_callbacks`` is ``None`` once the event has fired — the sentinel
    doubles as the "late subscription" signal and saves a list swap on
    every firing.
    """

    __slots__ = ("env", "_callbacks", "_value", "_ok", "_triggered", "_fired",
                 "__weakref__")

    def __init__(self, env: "Environment"):
        self.env = env
        self._callbacks: Optional[list] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._fired = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run."""
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def add_callback(self, fn: Callable[["BaseEvent"], None]) -> None:
        callbacks = self._callbacks
        if callbacks is None:
            # Late subscription: run immediately (still at current sim time).
            fn(self)
            return
        callbacks.append(fn)

    def succeed(self, value: Any = None, delay: float = 0.0) -> "BaseEvent":
        """Trigger the event successfully, delivering ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        env = self.env
        if delay == 0.0:
            # Inlined Environment.schedule() zero-delay fast path: the
            # completion lands at the current timestamp, behind every
            # same-time event already pending (FIFO).
            env._now_q.append(self)
        else:
            env.schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "BaseEvent":
        """Trigger the event as a failure; waiters get ``exc`` thrown."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exc
        self._ok = False
        self.env.schedule(self, delay)
        return self

    def _fire(self) -> None:
        self._fired = True
        callbacks = self._callbacks
        self._callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def _abandon(self) -> None:
        """Hook: the last waiter detached before the event fired.

        :meth:`Process.interrupt` calls this when removing its resume
        callback leaves the event without subscribers, so stateful events
        (queued resource grants) can cancel themselves instead of leaking.
        The base event has no state to reclaim.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.1f}>"


class Process(BaseEvent):
    """A running simulation coroutine.

    A process is itself an event: it fires (with the generator's return
    value) when the generator finishes, so processes can wait on each other
    simply by yielding the other process.
    """

    __slots__ = ("_generator", "_send", "_throw", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        self._generator = generator
        # Bound methods cached once: the resume path runs per fired event.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        env._live_processes.add(self)
        # Kick off on the next event-loop iteration at the current time.
        # The boot event is tracked as _waiting_on so interrupt() can
        # detach from it — a just-created process would otherwise be
        # resumed normally *and* thrown Interrupt (double-step bug).
        boot = BaseEvent(env)
        boot._callbacks.append(self._resume)
        boot.succeed()
        self._waiting_on: Optional[BaseEvent] = boot

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.sim.primitives.Interrupt` into the process,
        delivered by a zero-delay kick event failed with it."""
        from repro.sim.primitives import Interrupt

        if self._triggered:
            return
        self._detach()
        kick = BaseEvent(self.env)
        kick._callbacks.append(self._kick)
        kick.fail(Interrupt(cause))

    def _detach(self) -> None:
        """Drop the wait on ``_waiting_on`` (boot event included)."""
        target = self._waiting_on
        if target is None:
            return
        self._waiting_on = None
        callbacks = target._callbacks
        if callbacks is not None:
            try:
                callbacks.remove(self._resume)
            except ValueError:
                pass
            if not callbacks and not target._fired:
                # Nobody is listening any more: let stateful events
                # (queued resource grants) cancel themselves.
                target._abandon()

    def _kick(self, kick: BaseEvent) -> None:
        # Detach again: an earlier kick delivered since interrupt() may have
        # left the generator waiting on a new event, which must not resume it.
        self._detach()
        self._resume(kick)

    def _resume(self, event: BaseEvent) -> None:
        # The single resume path: one call per fired event.
        self._waiting_on = None
        if self._triggered:
            return
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self._callbacks:
                self.fail(exc)
                return
            raise
        if not isinstance(target, BaseEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield events (Timeout, Event, Process, resource requests...)"
            )
        callbacks = target._callbacks
        if callbacks is None:
            # Already fired: resume immediately (late subscription).
            self._resume(target)
            return
        self._waiting_on = target
        callbacks.append(self._resume)


class Environment:
    """The simulation clock plus the pending-event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, BaseEvent]] = []
        #: events scheduled at exactly the current timestamp — the
        #: array-backed fast lane of the schedule (see module docstring).
        self._now_q: deque[BaseEvent] = deque()
        self._seq = 0
        self.active_processes = 0
        #: optional repro.analysis.trace.TraceRecorder; components record
        #: execution spans into it when set.
        self.trace = None
        #: optional repro.faults.FaultInjector; components consult it at
        #: their injection seams when set.
        self.faults = None
        #: optional repro.faults.InvariantChecker; components report
        #: observations into it when set.
        self.invariants = None
        #: optional repro.obs.MetricsRegistry; components publish
        #: counters/gauges/spans into it when set.  Recording is passive
        #: (never schedules events), so simulation results are identical
        #: with the registry attached or absent.
        self.obs = None
        #: optional repro.resilience.ResilienceRuntime; components report
        #: progress into it and it may schedule deadline timers — but only
        #: once a fault has actually manifested (armed), so healthy runs
        #: stay bit-identical with the runtime attached or absent.
        self.resilience = None
        #: optional repro.policy.OverlapPolicy; components consult it at
        #: their overlap decision points when set (resolved lazily from
        #: SystemConfig.policy by the memory controller).  When None,
        #: components take their built-in static paths unchanged.
        self.overlap = None
        #: watchdog limits (None = unbounded); see configure_watchdog.
        self.max_events: Optional[int] = None
        self.max_sim_ns: Optional[float] = None
        #: events fired so far (the watchdog's progress measure).
        self.events_fired = 0
        self._diagnostics: list[Callable[[], str]] = []
        self._live_processes: "weakref.WeakSet[Process]" = weakref.WeakSet()

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- construction helpers -------------------------------------------------

    def event(self) -> BaseEvent:
        return BaseEvent(self)

    def timeout(self, delay: float, value: Any = None) -> BaseEvent:
        global _Timeout
        if _Timeout is None:
            from repro.sim.primitives import Timeout as _Timeout_cls
            _Timeout = _Timeout_cls
        return _Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[BaseEvent]) -> BaseEvent:
        global _AllOf
        if _AllOf is None:
            from repro.sim.primitives import AllOf as _AllOf_cls
            _AllOf = _AllOf_cls
        return _AllOf(self, list(events))

    def any_of(self, events: Iterable[BaseEvent]) -> BaseEvent:
        global _AnyOf
        if _AnyOf is None:
            from repro.sim.primitives import AnyOf as _AnyOf_cls
            _AnyOf = _AnyOf_cls
        return _AnyOf(self, list(events))

    # -- scheduling & the main loop -------------------------------------------

    def schedule(self, event: BaseEvent, delay: float = 0.0) -> None:
        """The single scheduling seam: everything that puts an event on
        the calendar — ``succeed``/``fail``, ``Timeout`` construction,
        process boots, timers — lands here.

        Zero-delay events (and delays small enough to round to the
        current float timestamp) go to the FIFO ``_now_q``; genuinely
        future events go to the ``(time, seq, event)`` heap.  See the
        module docstring for why this preserves the single-heap firing
        order exactly.
        """
        if not delay >= 0:  # also rejects NaN, which would corrupt the clock
            raise SimulationError(f"invalid event delay {delay} ns (must be >= 0)")
        when = self._now + delay
        if when == self._now:
            self._now_q.append(event)
        else:
            self._seq += 1
            heappush(self._heap, (when, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')``."""
        if self._now_q:
            # Same-time heap entries (if any) fire first, but they carry
            # the same timestamp, so the peeked time is identical.
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Fire the single next event (watchdog limits enforced here)."""
        heap = self._heap
        if heap and heap[0][0] <= self._now:
            # Same-time heap entries predate (seq-wise) everything in the
            # now-queue: they were pushed before the clock reached now.
            event = heappop(heap)[2]
        elif self._now_q:
            event = self._now_q.popleft()
        elif heap:
            when, _seq, event = heappop(heap)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        when = self._now
        self.events_fired += 1
        if self.max_events is not None and self.events_fired > self.max_events:
            raise SimulationError(
                f"watchdog: {self.events_fired} events fired without the "
                f"simulation finishing (limit {self.max_events})\n"
                + self.diagnostic_dump())
        if self.max_sim_ns is not None and when > self.max_sim_ns:
            raise SimulationError(
                f"watchdog: simulated time reached {when:.1f} ns "
                f"(limit {self.max_sim_ns:.1f} ns)\n" + self.diagnostic_dump())
        event._fire()

    def call_later(self, delay: float,
                   fn: Callable[["BaseEvent"], None]) -> BaseEvent:
        """Schedule ``fn`` to run once, ``delay`` ns from now.

        A deadline timer: the resilience runtime arms these against DMA
        completions so a lost notification is noticed and re-issued
        instead of draining the schedule into a watchdog hang.  Returns
        the timer event (``fn`` receives it when it fires).
        """
        timer = BaseEvent(self)
        timer._callbacks.append(fn)
        timer.succeed(delay=delay)
        return timer

    # -- watchdog & diagnostics ------------------------------------------------

    def configure_watchdog(self, max_events: Optional[int] = None,
                           max_sim_ns: Optional[float] = None) -> None:
        """Bound the run: exceeding either limit raises
        :class:`SimulationError` carrying :meth:`diagnostic_dump`, turning
        a hung event loop into a diagnosable failure."""
        if max_events is not None and max_events < 1:
            raise SimulationError("watchdog max_events must be >= 1")
        if max_sim_ns is not None and max_sim_ns <= 0:
            raise SimulationError("watchdog max_sim_ns must be positive")
        self.max_events = max_events
        self.max_sim_ns = max_sim_ns

    def add_diagnostic(self, fn: Callable[[], str]) -> None:
        """Register a component state reporter for the diagnostic dump."""
        self._diagnostics.append(fn)

    def diagnostic_dump(self, max_pending: int = 10) -> str:
        """Multi-line snapshot of engine + component state for hang triage:
        pending events, blocked processes, then every registered component
        diagnostic (tracker occupancy, queue depths, ...)."""
        pending = len(self._heap) + len(self._now_q)
        lines = [
            "--- simulation diagnostic dump ---",
            f"sim time: {self._now:.1f} ns; events fired: "
            f"{self.events_fired}; pending events: {pending}",
        ]
        shown = 0
        for event in list(self._now_q)[:max_pending]:
            name = getattr(event, "name", type(event).__name__)
            lines.append(f"  pending t={self._now:.1f} (now-queue) {name}")
            shown += 1
        for when, seq, event in sorted(self._heap)[:max_pending - shown]:
            name = getattr(event, "name", type(event).__name__)
            lines.append(f"  pending t={when:.1f} #{seq} {name}")
            shown += 1
        if pending > shown:
            lines.append(f"  ... and {pending - shown} more")
        blocked = sorted(
            (p.name for p in self._live_processes if p.is_alive))
        lines.append(f"unfinished processes: {len(blocked)}")
        for name in blocked[:max_pending]:
            lines.append(f"  blocked {name}")
        if len(blocked) > max_pending:
            lines.append(f"  ... and {len(blocked) - max_pending} more")
        for fn in self._diagnostics:
            lines.append(fn())
        return "\n".join(lines)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains, or until simulated time ``until``.

        Returns the final simulation time.
        """
        if until is not None and until < self._now:
            raise SimulationError("run(until=...) target is in the past")
        if until is None and self.max_events is None and self.max_sim_ns is None:
            return self._run_fast()
        return self._run_bounded(until)

    def _run_fast(self) -> float:
        """The unbounded hot loop: no watchdog, no time limit.

        Pop/fire is inlined (no step() or _fire() calls per event) with
        the heap, the now-queue, heappop, and the fired counter
        localized.  Identical firing order to :meth:`_run_bounded` and
        :meth:`step` by construction: all three follow the drain rule of
        the module docstring.
        """
        heap = self._heap
        now_q = self._now_q
        pop = heappop
        popleft = now_q.popleft
        fired = self.events_fired
        now = self._now
        try:
            while True:
                # 1. Heap entries at the current time: scheduled before
                #    the clock got here, so they precede the now-queue.
                while heap and heap[0][0] == now:
                    event = pop(heap)[2]
                    fired += 1
                    event._fired = True
                    callbacks = event._callbacks
                    event._callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                # 2. The now-queue (FIFO).  Firing these can only append
                #    to the now-queue or push *future* heap entries, so
                #    no same-time heap entry can appear mid-drain.
                while now_q:
                    event = popleft()
                    fired += 1
                    event._fired = True
                    callbacks = event._callbacks
                    event._callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                # 3. Advance the clock to the next future event.
                if not heap:
                    break
                when, _seq, event = pop(heap)
                self._now = now = when
                fired += 1
                event._fired = True
                callbacks = event._callbacks
                event._callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
        finally:
            self.events_fired = fired
            self._now = now
        return now

    def _run_bounded(self, until: Optional[float]) -> float:
        """The limited hot loop: honors ``until`` and the watchdog.

        Same inlined pop/fire cycle as :meth:`_run_fast`, with the limit
        checks of :meth:`step` performed per event (the counter is kept
        on ``self`` so a watchdog raise carries an accurate dump).
        """
        heap = self._heap
        now_q = self._now_q
        pop = heappop
        max_events = self.max_events
        max_sim_ns = self.max_sim_ns
        while heap or now_q:
            # Same drain rule as _run_fast (same-time heap entries, then
            # the now-queue, then advance), one event per iteration so
            # every firing passes the watchdog checks.
            if heap and heap[0][0] <= self._now:
                event = pop(heap)[2]
            elif now_q:
                event = now_q.popleft()
            else:
                when = heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    return self._now
                when, _seq, event = pop(heap)
                self._now = when
            when = self._now
            self.events_fired += 1
            if max_events is not None and self.events_fired > max_events:
                raise SimulationError(
                    f"watchdog: {self.events_fired} events fired without the "
                    f"simulation finishing (limit {max_events})\n"
                    + self.diagnostic_dump())
            if max_sim_ns is not None and when > max_sim_ns:
                raise SimulationError(
                    f"watchdog: simulated time reached {when:.1f} ns "
                    f"(limit {max_sim_ns:.1f} ns)\n" + self.diagnostic_dump())
            event._fired = True
            callbacks = event._callbacks
            event._callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)
        if until is not None:
            self._now = until
        return self._now

    def run_until_process(self, process: Process) -> Any:
        """Run until ``process`` finishes; returns the process return value."""
        while not process.triggered:
            if not self._heap and not self._now_q:
                raise SimulationError(
                    f"deadlock: schedule drained but process {process.name!r} "
                    "never finished\n" + self.diagnostic_dump()
                )
            self.step()
        # Drain same-time callbacks so the process's own callbacks fire.
        while self._now_q or (self._heap and self._heap[0][0] <= self._now):
            self.step()
        if not process.ok:
            raise process.value
        return process.value
