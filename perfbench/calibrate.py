"""Host-speed calibration: reference seconds from a fixed stdlib loop.

CPU speed on small shared hosts drifts by tens of percent over minutes,
which swamps the changes the benchmark has to resolve.  Every timed batch
of ops is therefore bracketed by runs of :func:`measure`, a fixed amount of
interpreter work, and reported in *reference seconds*::

    ref_s = raw_s * CAL_REF_S / cal_s

where ``cal_s`` is the mean of the calibrations taken just before and
just after the batch.  A host running uniformly slower makes ``raw_s`` and
``cal_s`` grow by the same factor, so the reference time stays put.

The loop imports nothing from the simulator, so a change to the code under
test can never change the yardstick.  It is a miniature event loop (heap,
FIFO lane, callbacks, generator resumes, slotted objects, dict counters),
so host drift moves it the way it moves the simulator's own hot path.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from typing import Callable, List, Tuple

#: median of :func:`measure` on the reference host (2-core x86_64 VM,
#: CPython 3.11) while that host was quiet.  Changing it rescales every
#: recorded reference time, so it is fixed once, never re-measured per run.
CAL_REF_S = 0.050

#: an op at least this long closes its calibration batch by itself ...
LONG_OP_S = 0.25
#: ... shorter ops share one batch until it holds this much raw time.
MIN_BATCH_S = 0.5

#: what the loop returns; anything else means the yardstick changed.
_EXPECTED = 58064640


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value: int):
        self.callbacks: List[int] = []
        self.value = value


def _worker(n_steps: int):
    total = 0
    for step in range(n_steps):
        total += yield step % 7 + 1
    return total


def _loop(n_workers: int = 96, n_steps: int = 550) -> int:
    heap: list = []
    now_q: deque = deque()
    counters: dict = {}
    seq = 0
    workers = [_worker(n_steps) for _ in range(n_workers)]
    for index, gen in enumerate(workers):
        seq += 1
        heapq.heappush(heap, (next(gen), seq, index))
    finished = 0
    while heap:
        now, _, index = heapq.heappop(heap)
        event = _Event(now)
        event.callbacks.append(index)
        now_q.append(event)
        while now_q:
            fired = now_q.popleft()
            for who in fired.callbacks:
                key = who & 15
                counters[key] = counters.get(key, 0) + fired.value
                try:
                    delay = workers[who].send(fired.value & 3)
                except StopIteration as stop:
                    finished += stop.value
                    continue
                seq += 1
                heapq.heappush(heap, (now + delay, seq, who))
    return finished + sum(counters.values())


def measure() -> float:
    """Seconds this host takes for the fixed calibration work right now."""
    started = time.perf_counter()
    result = _loop()
    elapsed = time.perf_counter() - started
    if result != _EXPECTED:
        raise RuntimeError(f"calibration loop returned {result}, "
                           f"expected {_EXPECTED}")
    return elapsed


def to_ref(raw_s: float, cal_s: float) -> float:
    """Convert host seconds to reference seconds."""
    if cal_s <= 0:
        raise ValueError(f"calibration time must be positive, got {cal_s}")
    return raw_s * CAL_REF_S / cal_s


class Calibrated:
    """Times ops and converts them to reference seconds in batches.

    ``time_op(fn)`` runs ``fn`` and returns its result; the op's raw time
    joins the open batch.  A batch closes when one op in it took at least
    :data:`LONG_OP_S` or the batch holds :data:`MIN_BATCH_S` of raw time;
    closing it collects garbage and takes one calibration, which also
    opens the next batch.  ``close()`` flushes the last batch.
    ``samples`` then holds one ``(raw_s, ref_s)`` pair per op, in op order.

    The collection keeps one batch's cyclic garbage from being collected
    inside a later batch's timed ops, and makes the process's peak RSS the
    largest op's footprint instead of depending on op order.
    """

    def __init__(self, measure_fn: Callable[[], float] = measure,
                 clock: Callable[[], float] = time.perf_counter):
        self._measure = measure_fn
        self._clock = clock
        self._before = measure_fn()
        self._batch: List[float] = []
        self.samples: List[Tuple[float, float]] = []
        self.calibrations: List[float] = [self._before]

    def time_op(self, fn: Callable[[], object]) -> object:
        started = self._clock()
        result = fn()
        raw = self._clock() - started
        self._batch.append(raw)
        if raw >= LONG_OP_S or sum(self._batch) >= MIN_BATCH_S:
            self._flush()
        return result

    def close(self) -> List[Tuple[float, float]]:
        if self._batch:
            self._flush()
        return self.samples

    def _flush(self) -> None:
        gc.collect()
        after = self._measure()
        self.calibrations.append(after)
        cal = (self._before + after) / 2
        self.samples.extend((raw, to_ref(raw, cal)) for raw in self._batch)
        self._batch = []
        self._before = after
