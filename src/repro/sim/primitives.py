"""Waitable primitives built on the engine: timeouts, composites, resources.

These are the concurrency vocabulary the GPU / memory / interconnect models
are written in:

* :class:`Timeout` — fixed-delay event (service times, link latency).
* :class:`Event` — manually-triggered event (Tracker thresholds, barriers).
* :class:`AllOf` / :class:`AnyOf` — composite waits.
* :class:`Resource` — counted resource with FIFO queueing (CUs, DMA engines).
* :class:`Store` — FIFO of items between producer/consumer processes
  (memory-controller queues, link packet queues).
* :class:`Pipe` — bandwidth/latency-modelled byte stream (inter-GPU links).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, List, Optional

from repro.sim.engine import BaseEvent, Environment, SimulationError

# Public alias: a bare, manually-triggered event.
Event = BaseEvent


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout(BaseEvent):
    """An event that fires ``delay`` nanoseconds after creation.

    Timeouts are the single most-constructed event type (every service
    interval in the simulator is one), so construction writes the slots
    and pushes onto the schedule directly instead of going through
    ``BaseEvent.__init__`` + ``succeed``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None):
        # A negative or NaN delay is rejected by env.schedule() below.
        self.env = env
        self._callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._fired = False
        self.delay = delay
        env.schedule(self, delay)


class ReusableTimer(BaseEvent):
    """A recyclable single-callback timer owned by one state machine.

    The callback state machines (DRAM channels, GEMM wavefront, DMA
    slices) sleep at most once per machine at a time, so each machine
    can own its timer objects and re-arm them instead of allocating a
    fresh ``Timeout`` (plus callback list) per tick.  ``arm()`` resets
    the event slots and puts the timer back on the schedule with a
    callback tuple built once, so a re-arm allocates nothing; firing
    happens through the ordinary engine loop, so recycling is invisible
    to the firing order.  A timer therefore takes no extra subscribers.

    The tuple holds ``fn``, usually a bound method of the owner, so an
    owner and its timer form a reference cycle that only the cycle
    collector reclaims: give timers to long-lived owners (a DRAM channel
    lives as long as its simulation).

    Arming a timer that is still pending is a bug (the schedule holds a
    reference to it); the guard raises instead of corrupting the run.
    """

    __slots__ = ("_rearm",)

    def __init__(self, env: Environment, fn):
        self.env = env
        self._rearm = (fn,)
        self._callbacks = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._fired = False

    def arm(self, delay: float = 0.0, value: Any = None) -> None:
        if self._callbacks is not None:
            raise SimulationError("ReusableTimer re-armed while pending")
        self._callbacks = self._rearm
        self._value = value
        self._triggered = True
        self._fired = False
        # Inlined Environment.schedule() zero-delay fast path (ticks are
        # overwhelmingly zero-delay wakes/chains).
        if delay == 0.0:
            self.env._now_q.append(self)
        else:
            self.env.schedule(self, delay)


class AllOf(BaseEvent):
    """Fires when every child event has fired; value is the list of values.

    On the first child *failure* the composite fails and detaches its
    callbacks from every still-pending child, so a long-lived child event
    does not accumulate dead closures for the rest of the run.
    """

    __slots__ = ("_remaining", "_values", "_children")

    def __init__(self, env: Environment, events: List[BaseEvent]):
        super().__init__(env)
        self._values: list[Any] = [None] * len(events)
        self._remaining = len(events)
        self._children: list = []
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            callback = self._make_child_callback(index)
            self._children.append((event, callback))
            event.add_callback(callback)

    def _make_child_callback(self, index: int):
        def _on_child(event: BaseEvent) -> None:
            if self._triggered:
                return
            if not event._ok:
                self.fail(event.value)
                self._detach_pending()
                return
            self._values[index] = event.value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))
                self._children = []

        return _on_child

    def _detach_pending(self) -> None:
        """Remove our callbacks from children that have not fired yet."""
        children, self._children = self._children, []
        for child, callback in children:
            callbacks = child._callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(callback)
                except ValueError:
                    pass


class AnyOf(BaseEvent):
    """Fires when the first child fires; value is ``(index, value)``.

    The winning child detaches the composite's callbacks from every
    losing child, so losers (which may live arbitrarily long) do not
    carry dead closures that every later subscriber scan walks over.
    """

    __slots__ = ("_children",)

    def __init__(self, env: Environment, events: List[BaseEvent]):
        super().__init__(env)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        self._children: list = []
        for index, event in enumerate(events):
            callback = self._make_child_callback(index)
            self._children.append((event, callback))
            event.add_callback(callback)

    def _make_child_callback(self, index: int):
        def _on_child(event: BaseEvent) -> None:
            if self._triggered:
                return
            if not event._ok:
                self.fail(event.value)
            else:
                self.succeed((index, event.value))
            self._detach_losers(event)

        return _on_child

    def _detach_losers(self, winner: BaseEvent) -> None:
        children, self._children = self._children, []
        for child, callback in children:
            if child is winner:
                continue
            callbacks = child._callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(callback)
                except ValueError:
                    pass


class _ResourceGrant(BaseEvent):
    """The event returned by :meth:`Resource.request`.

    Knows its resource so an interrupted waiter can cancel the request:
    a queued grant removes itself from the wait queue; a granted-but-not-
    yet-collected grant returns its unit.  Without cancellation the unit
    would be handed to a waiter that no longer exists, permanently
    shrinking the resource and deadlocking everyone behind it.
    """

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        super().__init__(env)
        self.resource = resource

    def _abandon(self) -> None:
        if self._triggered:
            # The unit was granted but the waiter vanished before
            # collecting it: hand it back (or straight to the next waiter).
            self.resource.release()
        else:
            try:
                self.resource._waiters.remove(self)
            except ValueError:
                pass


class Resource:
    """A counted resource with a FIFO wait queue.

    ``request()`` returns an event that fires once a unit is granted; the
    holder must later call ``release()``.  The convenience generator
    :meth:`acquire` wraps request/hold/release when used with
    ``yield from``.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[_ResourceGrant] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> BaseEvent:
        grant = _ResourceGrant(self.env, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            grant = self._waiters.popleft()
            grant.succeed(self)  # hand the unit straight to the next waiter
        else:
            self._in_use -= 1

    def acquire(self, hold: float):
        """``yield from`` helper: wait for a unit, hold it, release it."""
        yield self.request()
        try:
            yield self.env.timeout(hold)
        finally:
            self.release()


class Store:
    """An unbounded (or bounded) FIFO of items between processes."""

    def __init__(self, env: Environment, capacity: Optional[int] = None,
                 name: str = "store"):
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[BaseEvent] = deque()
        self._putters: deque[tuple[BaseEvent, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Iterable[Any]:
        return tuple(self._items)

    def put(self, item: Any) -> BaseEvent:
        done = BaseEvent(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            done.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> BaseEvent:
        got = BaseEvent(self.env)
        if self._items:
            got.succeed(self._items.popleft())
            if self._putters:
                done, item = self._putters.popleft()
                self._items.append(item)
                done.succeed()
        else:
            self._getters.append(got)
        return got

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            done, queued = self._putters.popleft()
            self._items.append(queued)
            done.succeed()
        return item


class Pipe:
    """A serialized byte stream with finite bandwidth and fixed latency.

    Models a point-to-point interconnect link: transfers are serialized on
    the sender side at ``bandwidth_bytes_per_ns`` and each transfer incurs
    ``latency_ns`` propagation delay after its last byte is on the wire.
    The completion event fires when the payload has fully arrived at the
    receiver.
    """

    def __init__(self, env: Environment, bandwidth_bytes_per_ns: float,
                 latency_ns: float = 0.0, name: str = "pipe"):
        if bandwidth_bytes_per_ns <= 0:
            raise SimulationError("Pipe bandwidth must be positive")
        if latency_ns < 0:
            raise SimulationError("Pipe latency must be >= 0")
        self.env = env
        self.bandwidth = bandwidth_bytes_per_ns
        self.latency = latency_ns
        self.name = name
        #: (src_gpu_id, dst_gpu_id) when wired by a topology; lets the
        #: fault injector target transient stalls at this link.
        self.endpoints: Optional[tuple[int, int]] = None
        #: healthy (pre-fault-degradation) parameters; the topology
        #: overwrites these when wiring under a fault plan so resilience
        #: monitors can compare observed service against the *intended*
        #: link model rather than the degraded one.
        self.nominal_bandwidth = bandwidth_bytes_per_ns
        self.nominal_latency_ns = latency_ns
        self._wire_free_at = 0.0
        self.bytes_sent = 0
        self.busy_time = 0.0
        self.stall_time = 0.0
        # Obs counter keys, built once: transfer() runs per chunk-quantum
        # and an f-string per call is measurable at that rate.
        self._obs_key_bytes = f"{name}.bytes"
        self._obs_key_stall = f"{name}.stall_ns"

    def transfer(self, nbytes: float) -> BaseEvent:
        """Start a transfer; returns an event firing on arrival.

        The passive seams (faults / obs / trace) are resolved once into
        locals; a run with none attached pays three ``is None`` checks
        and nothing else.
        """
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        env = self.env
        now = env._now
        endpoints = self.endpoints
        start = now if now >= self._wire_free_at else self._wire_free_at
        faults = env.faults
        stall = 0.0
        if (faults is not None and endpoints is not None
                and faults.has_link_faults):
            stall = faults.transfer_stall(endpoints[0], endpoints[1], now)
            if stall:
                start += stall
                self.stall_time += stall
        serialization = nbytes / self.bandwidth
        self._wire_free_at = start + serialization
        self.bytes_sent += nbytes
        self.busy_time += serialization
        resilience = env.resilience
        if resilience is not None and endpoints is not None:
            # Passive link-health feed: service time excluding queueing
            # (contention is not degradation) vs the nominal link model.
            resilience.observe_link_service(
                endpoints[0], endpoints[1],
                observed_ns=stall + serialization + self.latency,
                expected_ns=(self.nominal_latency_ns
                             + nbytes / self.nominal_bandwidth))
        obs = env.obs
        if obs is not None:
            src = endpoints[0] if endpoints is not None else -1
            scope = obs.scope(src, "link")
            scope.span(self.name, start, start + serialization)
            scope.count(self._obs_key_bytes, nbytes)
            if stall:
                scope.count(self._obs_key_stall, stall)
        trace = env.trace
        if trace is not None:
            trace.span(
                name=f"{nbytes / 1024:.0f}KiB", category="link",
                start_ns=start, end_ns=start + serialization,
                track=self.name, group="interconnect",
                args={"bytes": nbytes})
        done = BaseEvent(env)
        done.succeed(nbytes, delay=(start - now) + serialization + self.latency)
        return done

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` the wire was busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)
