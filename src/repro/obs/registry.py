"""The metrics registry: the simulator's unified telemetry substrate.

Attach a :class:`MetricsRegistry` to an
:class:`~repro.sim.engine.Environment` (``env.obs = MetricsRegistry()``)
*before* building the topology, exactly like ``env.trace`` and
``env.faults``.  Hot components then publish into per-``(gpu, component)``
:class:`Scope`\\ s at their natural seams:

========== ============ ====================================================
component  published by metrics
========== ============ ====================================================
compute    GPU.launch   kernel execution spans
gemm       GEMMKernel   WG/WF retirement counters + per-stage series
tracker    Tracker      live-region gauge (occupancy high-water),
                        trigger-fire latency observations
trigger    TriggerCtrl  blocks fired, first-region-to-fire gather time
dma        DMAEngine    in-flight command/byte gauges, trigger counters
link       Pipe         serialization spans, bytes, stall time
dram       HBMChannel   queue-occupancy gauge (time-weighted), NMC
                        op-and-store vs plain-write counts, comm service
                        spans
arbiter    HBMChannel   per-threshold comm grants/deferrals,
                        anti-starvation fires
mc         MemoryCtrl   stream-drain waits and stall durations
faults     FaultInjector observed fault incidence counters
========== ============ ====================================================

Every publishing site is guarded by ``env.obs is None`` — with the
registry disabled the only cost is one attribute check, and with it
enabled recording is strictly passive (no events are ever scheduled), so
simulation results are bit-identical either way.  The transparency table
in ``tests/test_engine_regressions.py`` asserts exactly that.
"""

from __future__ import annotations

import bisect
import copy
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.stats import TimeSeries

#: scope key: (gpu id, component name).  ``gpu = -1`` means "no single
#: GPU" (e.g. a link whose endpoints were never wired).
ScopeKey = Tuple[int, str]


class Gauge:
    """A sampled level (queue depth, live regions, in-flight bytes).

    Every :meth:`set` records a ``(time, value)`` sample (the Perfetto
    counter track) and accumulates the *previous* level time-weighted, so
    :meth:`time_weighted_mean` and :meth:`time_at_level` answer "how deep
    was the queue, for how long" — not just "what values did it visit".
    """

    __slots__ = ("name", "samples", "last_value", "last_time",
                 "high_water", "low_water", "_weighted_sum", "_level_time")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self.last_value = 0.0
        self.last_time: Optional[float] = None
        self.high_water = float("-inf")
        self.low_water = float("inf")
        self._weighted_sum = 0.0
        self._level_time: Dict[float, float] = {}

    def set(self, now: float, value: float) -> None:
        # Branchy spelling instead of max()/min() builtins: a DRAM
        # occupancy gauge is set twice per serviced request, so two
        # function calls per sample are measurable.
        last_time = self.last_time
        if last_time is not None:
            if now < last_time:
                raise ValueError(
                    f"gauge {self.name!r} must be set in time order "
                    f"({now} < {last_time})")
            dt = now - last_time
            if dt > 0:
                last_value = self.last_value
                self._weighted_sum += last_value * dt
                level_time = self._level_time
                level_time[last_value] = level_time.get(last_value, 0.0) + dt
        self.samples.append((now, value))
        self.last_value = value
        self.last_time = now
        if value > self.high_water:
            self.high_water = value
        if value < self.low_water:
            self.low_water = value

    def add(self, now: float, delta: float) -> None:
        self.set(now, self.last_value + delta)

    def elapsed(self, until: Optional[float] = None) -> float:
        if self.last_time is None or not self.samples:
            return 0.0
        end = self.last_time if until is None else until
        return max(0.0, end - self.samples[0][0])

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        """Mean level over the observed window (tail extends to ``until``)."""
        if self.last_time is None:
            return 0.0
        span = self.elapsed(until)
        if span <= 0:
            return self.last_value
        tail = 0.0
        if until is not None and until > self.last_time:
            tail = self.last_value * (until - self.last_time)
        return (self._weighted_sum + tail) / span

    def time_at_level(self) -> Dict[float, float]:
        """Time spent at each recorded level — the time-weighted
        histogram (the open tail after the last sample is not counted)."""
        return dict(self._level_time)

    def to_dict(self, until: Optional[float] = None) -> Dict[str, Any]:
        return {
            "last": self.last_value,
            "high_water": self.high_water if self.samples else 0.0,
            "low_water": self.low_water if self.samples else 0.0,
            "time_weighted_mean": self.time_weighted_mean(until),
            "n_samples": len(self.samples),
        }


class TimeWeightedHistogram:
    """Time spent in fixed value buckets: ``bounds`` are the inclusive
    upper edges of all but the last (unbounded) bucket."""

    def __init__(self, bounds: Iterable[float]):
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_time = [0.0] * (len(self.bounds) + 1)

    def observe(self, value: float, duration: float) -> None:
        if duration < 0:
            raise ValueError("durations cannot be negative")
        self.bucket_time[bisect.bisect_left(self.bounds, value)] += duration

    @classmethod
    def from_gauge(cls, gauge: Gauge,
                   bounds: Iterable[float]) -> "TimeWeightedHistogram":
        hist = cls(bounds)
        for level, duration in gauge.time_at_level().items():
            hist.observe(level, duration)
        return hist

    def to_dict(self) -> Dict[str, float]:
        labels = [f"le_{bound:g}" for bound in self.bounds] + ["inf"]
        return dict(zip(labels, self.bucket_time))


class ValueStats:
    """Summary statistics of point observations (latencies, sizes)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}


class SpanList:
    """Busy intervals kept merged (sorted, disjoint, coalesced).

    Producers usually append in start order (each component's activity
    advances with simulation time), which hits the O(1) fast path;
    out-of-order adds (e.g. overlapping kernels recorded at *end* time)
    insert-and-merge.  :meth:`busy_time` therefore never double-counts
    overlap within one component.
    """

    __slots__ = ("name", "spans", "count")

    def __init__(self, name: str):
        self.name = name
        self.spans: List[Tuple[float, float]] = []
        self.count = 0

    def add(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"span {self.name!r} ends before it starts")
        self.count += 1
        spans = self.spans
        if not spans or start >= spans[-1][0]:
            if spans and start <= spans[-1][1]:
                last_start, last_end = spans[-1]
                spans[-1] = (last_start, max(last_end, end))
            else:
                spans.append((start, end))
            return
        index = bisect.bisect_left(spans, (start, end))
        spans.insert(index, (start, end))
        merge_at = index - 1 if (index > 0
                                 and spans[index - 1][1] >= start) else index
        while (merge_at + 1 < len(spans)
               and spans[merge_at + 1][0] <= spans[merge_at][1]):
            nxt = spans.pop(merge_at + 1)
            spans[merge_at] = (spans[merge_at][0],
                               max(spans[merge_at][1], nxt[1]))

    def busy_time(self) -> float:
        return sum(end - start for start, end in self.spans)

    def bounds(self) -> Optional[Tuple[float, float]]:
        if not self.spans:
            return None
        return self.spans[0][0], self.spans[-1][1]

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count, "n_merged": len(self.spans),
                "busy_ns": self.busy_time()}


class Scope:
    """All metrics of one ``(gpu, component)`` pair."""

    def __init__(self, gpu: int, component: str):
        self.gpu = gpu
        self.component = component
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.observations: Dict[str, ValueStats] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._spans: Dict[str, SpanList] = {}

    @property
    def key(self) -> ScopeKey:
        return (self.gpu, self.component)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(f"{self.component}.{name}")
        return gauge

    def observe(self, name: str, value: float) -> None:
        stats = self.observations.get(name)
        if stats is None:
            stats = self.observations[name] = ValueStats()
        stats.observe(value)

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                f"{self.component}.{name}")
        return series

    def span(self, name: str, start: float, end: float) -> None:
        self.spans(name).add(start, end)

    def spans(self, name: str) -> SpanList:
        spans = self._spans.get(name)
        if spans is None:
            spans = self._spans[name] = SpanList(f"{self.component}.{name}")
        return spans

    def span_names(self) -> List[str]:
        return sorted(self._spans)

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def get_series(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def replica(self, gpu: int,
                rename: Callable[[str], str] = lambda name: name) -> "Scope":
        """This scope's metrics as GPU ``gpu`` records them, every metric
        name mapped through ``rename`` (a rotated rank's copy, see
        :mod:`repro.obs.rotation`).  Every container is copied; the
        samples and intervals they hold are immutable and shared."""
        component = self.component
        scope = Scope(gpu, component)
        scope.counters = {rename(name): value
                          for name, value in self.counters.items()}
        for name, gauge in self.gauges.items():
            clone = scope.gauges[rename(name)] = copy.copy(gauge)
            clone.name = f"{component}.{rename(name)}"
            clone.samples = list(gauge.samples)
            clone._level_time = dict(gauge._level_time)
        scope.observations = {rename(name): copy.copy(stats)
                              for name, stats in self.observations.items()}
        for name, series in self._series.items():
            clone = scope._series[rename(name)] = TimeSeries(
                f"{component}.{rename(name)}")
            clone.times = list(series.times)
            clone.values = list(series.values)
        for name, spans in self._spans.items():
            clone = scope._spans[rename(name)] = SpanList(
                f"{component}.{rename(name)}")
            clone.spans = list(spans.spans)
            clone.count = spans.count
        return scope

    def to_dict(self, until: Optional[float] = None) -> Dict[str, Any]:
        return {
            "gpu": self.gpu,
            "component": self.component,
            "counters": dict(self.counters),
            "gauges": {name: gauge.to_dict(until)
                       for name, gauge in sorted(self.gauges.items())},
            "observations": {name: stats.to_dict()
                             for name, stats in
                             sorted(self.observations.items())},
            "series": {name: {"n": len(series), "total": series.total()}
                       for name, series in sorted(self._series.items())},
            "spans": {name: spans.to_dict()
                      for name, spans in sorted(self._spans.items())},
        }


class MetricsRegistry:
    """All scopes of one simulation run.

    Purely passive: it owns no events, schedules nothing, and is safe to
    attach or ignore per-run.  The registry is the input both to the
    overlap profiler (:mod:`repro.obs.profiler`) and the Perfetto counter
    export (:mod:`repro.obs.perfetto`).
    """

    def __init__(self):
        self._scopes: Dict[ScopeKey, Scope] = {}

    def scope(self, gpu: int, component: str) -> Scope:
        key = (gpu, component)
        scope = self._scopes.get(key)
        if scope is None:
            scope = self._scopes[key] = Scope(gpu, component)
        return scope

    def get(self, gpu: int, component: str) -> Optional[Scope]:
        return self._scopes.get((gpu, component))

    def add(self, scope: Scope) -> None:
        """Register a scope built elsewhere (a :meth:`Scope.replica`)."""
        if scope.key in self._scopes:
            raise ValueError(f"scope {scope.key} is already registered")
        self._scopes[scope.key] = scope

    def scopes(self, component: Optional[str] = None) -> List[Scope]:
        selected = [
            scope for key, scope in sorted(self._scopes.items())
            if component is None or key[1] == component
        ]
        return selected

    def components(self) -> List[str]:
        return sorted({key[1] for key in self._scopes})

    def gpus(self) -> List[int]:
        return sorted({key[0] for key in self._scopes})

    def __len__(self) -> int:
        return len(self._scopes)

    def end_time(self) -> float:
        """Latest timestamp any metric has seen (snapshot horizon)."""
        end = 0.0
        for scope in self._scopes.values():
            for gauge in scope.gauges.values():
                if gauge.last_time is not None:
                    end = max(end, gauge.last_time)
            for name in scope.span_names():
                bounds = scope.spans(name).bounds()
                if bounds is not None:
                    end = max(end, bounds[1])
            for name in scope.series_names():
                series = scope.get_series(name)
                if series is not None and len(series):
                    end = max(end, series.times[-1])
        return end

    def counter_total(self, component: str, name: str) -> float:
        """Sum one counter across every GPU's scope for ``component``."""
        return sum(scope.counter(name) for scope in self.scopes(component))

    def snapshot(self, until: Optional[float] = None) -> Dict[str, Any]:
        horizon = self.end_time() if until is None else until
        return {
            "until_ns": horizon,
            "scopes": [scope.to_dict(horizon)
                       for _key, scope in sorted(self._scopes.items())],
        }
