"""Measurement helpers: time series, counters, utilization.

Every figure in the paper's evaluation is ultimately a reduction over the
quantities recorded here (DRAM reads/writes over time for Fig. 17, access
breakdowns for Fig. 18...).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class TimeSeries:
    """Append-only ``(time, value)`` samples with binned aggregation."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be recorded in time order "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def total(self) -> float:
        return sum(self.values)

    def binned(self, bin_ns: float, start: Optional[float] = None,
               end: Optional[float] = None) -> Tuple[List[float], List[float]]:
        """Sum values into fixed-width time bins.

        Returns ``(bin_start_times, bin_sums)``.  Used to build the
        traffic-vs-time curves of Figure 17.
        """
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        if not self.times:
            return [], []
        lo = self.times[0] if start is None else start
        hi = self.times[-1] if end is None else end
        if hi < lo:
            raise ValueError("end of binning window precedes its start")
        nbins = max(1, int(math.ceil((hi - lo) / bin_ns)) or 1)
        sums = [0.0] * nbins
        for t, v in zip(self.times, self.values):
            if t < lo or t > hi:
                continue
            idx = min(nbins - 1, int((t - lo) / bin_ns))
            sums[idx] += v
        starts = [lo + i * bin_ns for i in range(nbins)]
        return starts, sums


class Counter:
    """A named bag of monotonically-increasing counters."""

    def __init__(self):
        self._counts: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def get(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def total(self, prefix: str = "") -> float:
        return sum(v for k, v in self._counts.items() if k.startswith(prefix))


class UtilizationTracker:
    """Tracks busy time of a unit with possibly-overlapping busy intervals.

    Overlapping busy spans are merged, so utilization never exceeds 1.0.
    Spans may arrive in any time order: the tracker keeps a sorted list of
    disjoint merged intervals, with an O(1) fast path for the common
    in-order case.  (A previous version kept only a high-water mark, which
    silently discarded the non-overlapping part of any span that started
    before an already-recorded end — out-of-order reporters undercounted.)
    """

    def __init__(self):
        #: sorted, pairwise-disjoint ``[start, end]`` spans.
        self._intervals: List[List[float]] = []
        self._busy_time = 0.0
        self._first_busy: Optional[float] = None

    def busy(self, start: float, duration: float) -> None:
        if duration < 0:
            raise ValueError("busy duration must be >= 0")
        if self._first_busy is None or start < self._first_busy:
            self._first_busy = start
        end = start + duration
        intervals = self._intervals
        if not intervals:
            if end > start:
                intervals.append([start, end])
                self._busy_time += end - start
            return
        last = intervals[-1]
        if start >= last[1]:
            # In-order: the span begins at or after the latest recorded end.
            if end > start:
                intervals.append([start, end])
                self._busy_time += end - start
            return
        if start >= last[0]:
            # Overlaps only the most recent span: extend it.
            if end > last[1]:
                self._busy_time += end - last[1]
                last[1] = end
            return
        # Out-of-order: merge into the sorted disjoint list (rare, O(n)).
        # The busy-time delta is the span's length minus its overlap with
        # existing coverage; overlaps are computed against the original
        # span since existing intervals are pairwise disjoint.
        delta = end - start
        new_start, new_end = start, end
        keep: List[List[float]] = []
        for interval in intervals:
            if interval[1] < new_start or interval[0] > new_end:
                keep.append(interval)
                continue
            overlap = min(end, interval[1]) - max(start, interval[0])
            if overlap > 0:
                delta -= overlap
            if interval[0] < new_start:
                new_start = interval[0]
            if interval[1] > new_end:
                new_end = interval[1]
        index = 0
        while index < len(keep) and keep[index][0] < new_start:
            index += 1
        keep.insert(index, [new_start, new_end])
        self._intervals = keep
        self._busy_time += delta

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; the paper reports all aggregate speedups this way."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    pairs = list(zip(values, weights))
    if not pairs:
        raise ValueError("weighted_mean of empty sequence")
    wsum = sum(w for _, w in pairs)
    if wsum <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(v * w for v, w in pairs) / wsum
