"""TraceQuery: an indexed, interval-algebra-backed store over one run.

The query layer turns a timeline — either a live
(:class:`~repro.analysis.trace.TraceRecorder`,
:class:`~repro.obs.MetricsRegistry`) pair or any saved Chrome/Perfetto
JSON — into something you can *interrogate* instead of just render:

* **span selection** by category / track / group / time window,
* **per-track summaries** (busy, gaps, utilization over the horizon),
* **span joins** — e.g. each DMA command joined to the link
  serializations and remote DRAM service it caused, matched by chunk id,
  endpoints and time containment,
* **critical-path extraction** — the backward walk through the
  GEMM -> Tracker-trigger -> DMA -> link -> DRAM dependency chain that
  explains where the finish time comes from.

Everything is held in nanoseconds.  Files written by
``TraceRecorder.save`` round-trip exactly (the exporter embeds exact ns
endpoints per event); foreign Chrome traces load through the same
``ts``/``dur`` fallback the shared loader implements.

A live recorder that holds one rotation period of its ring
(:mod:`repro.obs.rotation`) is queried as the whole ring.  Questions
that read span times only — merged intervals, utilization, bounds,
categories, groups and the span count, filtered by category, group,
window or a non-id ``args`` value — are answered from the recorded
spans: every copy has the times of the span it copies.  The rest build
the ring's spans once, on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.trace import (SPAN_ORDER, TraceRecorder, TraceSpan,
                                  events_to_counters, events_to_spans,
                                  read_trace)
from repro.obs import intervals as iv
from repro.obs.rotation import RELABELLED_ARGS, Ring

#: span categories emitted as instant incident markers.
INCIDENT_CATEGORIES = ("fault", "resilience")

#: the category precedence the critical-path walk prefers when several
#: predecessors abut the same instant (producer before consumer).
CRITICAL_CHAIN = ("kernel", "dma", "link", "dram")

_LINK_TRACK = re.compile(r"^link\.(\d+)->(\d+)")
_DMA_TRACK = re.compile(r"^GPU(\d+)\.dma$")


@dataclass(frozen=True)
class TrackSummary:
    """Utilization/gap digest of one track."""

    track: str
    group: str
    n_spans: int
    busy_ns: float
    first_ns: float
    last_ns: float
    #: idle time between the track's first and last activity.
    gap_ns: float
    #: busy fraction of the query horizon (not just the track's window).
    utilization: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "track": self.track, "group": self.group,
            "n_spans": self.n_spans, "busy_ns": self.busy_ns,
            "first_ns": self.first_ns, "last_ns": self.last_ns,
            "gap_ns": self.gap_ns, "utilization": self.utilization,
        }


@dataclass(frozen=True)
class ChunkFlow:
    """One DMA command joined to the activity it caused."""

    dma: TraceSpan
    src_gpu: int
    dst_gpu: int
    chunk: Optional[int]
    links: Tuple[TraceSpan, ...]
    dram: Tuple[TraceSpan, ...]

    @property
    def link_ns(self) -> float:
        return iv.total(iv.merge(
            (s.start_ns, s.end_ns) for s in self.links))

    @property
    def dram_ns(self) -> float:
        return iv.total(iv.merge(
            (s.start_ns, s.end_ns) for s in self.dram))

    @property
    def trigger_to_wire_ns(self) -> float:
        """Latency from the DMA trigger to first link serialization (the
        local source read + queueing ahead of the wire)."""
        if not self.links:
            return 0.0
        return min(s.start_ns for s in self.links) - self.dma.start_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.dma.name, "src_gpu": self.src_gpu,
            "dst_gpu": self.dst_gpu, "chunk": self.chunk,
            "start_ns": self.dma.start_ns, "end_ns": self.dma.end_ns,
            "n_links": len(self.links), "n_dram": len(self.dram),
            "link_ns": self.link_ns, "dram_ns": self.dram_ns,
            "trigger_to_wire_ns": self.trigger_to_wire_ns,
        }


@dataclass(frozen=True)
class CriticalStep:
    """One hop of the backward critical-path walk."""

    span: TraceSpan
    #: idle time between this span's end and the successor's start (0 on
    #: an abutting chain; > 0 when the path crosses a real gap).
    slack_ns: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.span.name, "category": self.span.category,
            "track": self.span.track, "start_ns": self.span.start_ns,
            "end_ns": self.span.end_ns, "slack_ns": self.slack_ns,
        }


class _Index:
    """Spans in timeline order, bucketed by category and by track."""

    __slots__ = ("spans", "by_category", "by_track")

    def __init__(self, spans: Sequence[TraceSpan]):
        self.spans: List[TraceSpan] = sorted(spans, key=SPAN_ORDER)
        self.by_category: Dict[str, List[TraceSpan]] = {}
        self.by_track: Dict[str, List[TraceSpan]] = {}
        for span in self.spans:
            self.by_category.setdefault(span.category, []).append(span)
            self.by_track.setdefault(span.track, []).append(span)


class TraceQuery:
    """Indexed query surface over one run's spans + counter tracks.

    Build with :meth:`from_recorder` (live pair) or :meth:`from_file`
    (saved trace).  ``counters`` maps track name ->
    ``[(t_ns, value), ...]``; ``registry_snapshot`` holds the aggregate
    :meth:`~repro.obs.MetricsRegistry.snapshot` when one was attached or
    embedded, which the analysis passes that need counters (arbiter
    deferrals) read.  ``ring`` (a :class:`~repro.obs.rotation.Ring`)
    says ``spans`` are one rotation period of it, and the query answers
    for every rank.
    """

    def __init__(self, spans: Sequence[TraceSpan],
                 counters: Optional[Dict[str, List[Tuple[float, float]]]]
                 = None,
                 registry_snapshot: Optional[Dict[str, Any]] = None,
                 source: str = "<memory>",
                 ring: Optional[Ring] = None):
        self.counters = counters or {}
        self.registry_snapshot = registry_snapshot
        self.source = source
        self._ring = ring
        #: the recorded spans; on an unrotated query, the ring's too.
        self._period = _Index(spans)
        self._full = self._period if ring is None else None

    def _ring_index(self) -> _Index:
        """Every rank's spans, indexed on first use."""
        if self._full is None:
            self._full = _Index(self._ring.spans(self._period.spans))
        return self._full

    @property
    def spans(self) -> List[TraceSpan]:
        """Every span, in timeline order."""
        return self._ring_index().spans

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_recorder(cls, recorder: TraceRecorder,
                      registry=None) -> "TraceQuery":
        """Wrap a live recorder (and optionally its registry) — exact
        floats, no serialization in between."""
        counters: Dict[str, List[Tuple[float, float]]] = {}
        snapshot = None
        if registry is not None:
            for scope in registry.scopes():
                prefix = f"gpu{scope.gpu}" if scope.gpu >= 0 else "global"
                for name, gauge in sorted(scope.gauges.items()):
                    if gauge.samples:
                        counters[f"{prefix}.{scope.component}.{name}"] = \
                            list(gauge.samples)
                for name in scope.series_names():
                    series = scope.get_series(name)
                    if series is not None and len(series):
                        counters[f"{prefix}.{scope.component}.{name}"] = \
                            list(zip(series.times, series.values))
            snapshot = registry.snapshot()
        return cls(recorder.spans, counters, snapshot, source="<live>",
                   ring=recorder.ring)

    @classmethod
    def from_file(cls, path: str) -> "TraceQuery":
        """Load a saved Chrome/Perfetto JSON (ours or foreign); a file
        that is not one raises :class:`ValueError` naming it and, for a
        bad event, the event's index."""
        payload, events = read_trace(path)
        spans = events_to_spans(events, source=str(path))
        counters = events_to_counters(events, source=str(path))
        return cls(spans, counters, payload.get("t3", {}).get("registry"),
                   source=str(path))

    @classmethod
    def from_events(cls, events: Sequence[Dict[str, Any]]) -> "TraceQuery":
        return cls(events_to_spans(events))

    # -- basic introspection --------------------------------------------------

    def __len__(self) -> int:
        repeats = 1 if self._ring is None else self._ring.repeats
        return len(self._period.spans) * repeats

    def categories(self) -> List[str]:
        return sorted(self._period.by_category)

    def tracks(self, group: Optional[str] = None) -> List[str]:
        index = self._ring_index()
        if group is None:
            return sorted(index.by_track)
        return sorted({s.track for s in index.spans if s.group == group})

    def groups(self) -> List[str]:
        return sorted({s.group for s in self._period.spans})

    def counter_tracks(self) -> List[str]:
        return sorted(self.counters)

    def bounds(self) -> Tuple[float, float]:
        """(first, last) timestamp over spans *and* counter samples."""
        lo, hi = float("inf"), float("-inf")
        spans = self._period.spans
        if spans:
            lo = min(lo, min(s.start_ns for s in spans))
            hi = max(hi, max(s.end_ns for s in spans))
        for samples in self.counters.values():
            if samples:
                lo = min(lo, samples[0][0])
                hi = max(hi, samples[-1][0])
        if lo > hi:
            return (0.0, 0.0)
        return (lo, hi)

    @property
    def horizon_ns(self) -> float:
        return self.bounds()[1]

    # -- selection ------------------------------------------------------------

    def select(self, category: Optional[str] = None,
               track: Optional[str] = None,
               group: Optional[str] = None,
               window: Optional[Tuple[float, float]] = None,
               name_contains: Optional[str] = None,
               where: Optional[Callable[[TraceSpan], bool]] = None,
               args: Optional[Dict[str, Any]] = None,
               ) -> List[TraceSpan]:
        """Spans matching every given filter, in timeline order.

        ``window=(lo, hi)`` keeps spans *overlapping* the window (an
        instant at ``lo`` counts).  ``args={key: value, ...}`` keeps
        spans whose args hold every key with an equal value.  ``where`` is
        an arbitrary predicate, e.g.
        ``lambda s: (s.args or {}).get("chunk") == 3``.
        """
        return _select(self._ring_index(), category, track, group, window,
                       name_contains, where, args)

    def intervals(self, **filters) -> List[iv.Interval]:
        """Merged (sorted, disjoint) busy intervals of a selection.

        On a rotated query, filters that read no field the ring relabel
        rewrites (``category``, ``group``, ``window``, ``args`` without
        an id key) are answered from the recorded spans; ``track``,
        ``name_contains``, ``where`` and id ``args`` read the ring's.
        """
        index = self._ring_index() if _reads_ids(**filters) \
            else self._period
        return iv.merge((s.start_ns, s.end_ns)
                        for s in _select(index, **filters))

    def incidents(self) -> List[TraceSpan]:
        """Fault/resilience markers, in timeline order."""
        out: List[TraceSpan] = []
        by_category = self._ring_index().by_category
        for category in INCIDENT_CATEGORIES:
            out.extend(by_category.get(category, []))
        return sorted(out, key=SPAN_ORDER)

    # -- summaries ------------------------------------------------------------

    def track_summary(self, track: str) -> TrackSummary:
        spans = self._ring_index().by_track.get(track, [])
        if not spans:
            raise KeyError(f"no spans on track {track!r}")
        merged = iv.merge((s.start_ns, s.end_ns) for s in spans)
        busy = iv.total(merged)
        first = min(s.start_ns for s in spans)
        last = max(s.end_ns for s in spans)
        horizon = self.horizon_ns
        return TrackSummary(
            track=track, group=spans[0].group, n_spans=len(spans),
            busy_ns=busy, first_ns=first, last_ns=last,
            gap_ns=(last - first) - busy,
            utilization=busy / horizon if horizon > 0 else 0.0)

    def summaries(self, group: Optional[str] = None) -> List[TrackSummary]:
        return [self.track_summary(track) for track in self.tracks(group)]

    def utilization(self, **filters) -> float:
        """Busy fraction of the horizon for a selection."""
        horizon = self.horizon_ns
        if horizon <= 0:
            return 0.0
        return iv.total(self.intervals(**filters)) / horizon

    def gaps(self, track: str) -> List[iv.Interval]:
        """Idle intervals between a track's first and last activity."""
        spans = self._ring_index().by_track.get(track, [])
        if not spans:
            return []
        merged = iv.merge((s.start_ns, s.end_ns) for s in spans)
        lo = merged[0][0]
        hi = merged[-1][1]
        return iv.subtract([(lo, hi)], merged)

    # -- joins ----------------------------------------------------------------

    def join(self, parents: Sequence[TraceSpan],
             children: Sequence[TraceSpan],
             key: Optional[Callable[[TraceSpan], Any]] = None,
             slack_ns: float = 0.0,
             ) -> List[Tuple[TraceSpan, List[TraceSpan]]]:
        """Attach each child to every parent whose interval contains it.

        ``key`` (applied to both sides) restricts matches to equal keys —
        e.g. ``lambda s: (s.args or {}).get("chunk")`` joins by chunk id;
        a ``None`` key on either side never matches.  ``slack_ns`` widens
        the containment test at both ends.
        """
        out = [(parent, []) for parent in parents]
        for child in children:
            child_key = key(child) if key is not None else None
            for parent, matched in out:
                if key is not None:
                    parent_key = key(parent)
                    if parent_key is None or parent_key != child_key:
                        continue
                if (child.start_ns >= parent.start_ns - slack_ns
                        and child.end_ns <= parent.end_ns + slack_ns):
                    matched.append(child)
        return [(parent, matched) for parent, matched in out]

    def chunk_flows(self) -> List[ChunkFlow]:
        """Join every DMA command to its link serializations and remote
        DRAM service — the trigger -> wire -> memory chain per chunk.

        Links are matched by the directed ``link.<src>-><dst>`` track and
        time containment; DRAM service by destination GPU, comm stream,
        chunk id (when recorded) and time containment.  Traces saved
        without ``record_dram`` simply produce empty ``dram`` legs.
        """
        flows: List[ChunkFlow] = []
        by_category = self._ring_index().by_category
        links = by_category.get("link", [])
        dram = by_category.get("dram", [])
        for span in by_category.get("dma", []):
            track_match = _DMA_TRACK.match(span.track)
            src = int(track_match.group(1)) if track_match else -1
            args = span.args or {}
            dst = args.get("dst")
            if dst is None:
                name_match = re.search(r"->gpu(\d+)$", span.name)
                dst = int(name_match.group(1)) if name_match else -1
            chunk = args.get("chunk")
            own_links = []
            for link in links:
                ends = _LINK_TRACK.match(link.track)
                if ends is None or int(ends.group(1)) != src \
                        or int(ends.group(2)) != dst:
                    continue
                if link.start_ns >= span.start_ns \
                        and link.end_ns <= span.end_ns:
                    own_links.append(link)
            own_dram = []
            for service in dram:
                sargs = service.args or {}
                if sargs.get("stream") != "comm":
                    continue
                if not service.track.startswith(f"gpu{dst}."):
                    continue
                if chunk is not None and sargs.get("chunk") is not None \
                        and sargs.get("chunk") != chunk:
                    continue
                if service.start_ns >= span.start_ns \
                        and service.end_ns <= span.end_ns:
                    own_dram.append(service)
            flows.append(ChunkFlow(
                dma=span, src_gpu=src, dst_gpu=int(dst), chunk=chunk,
                links=tuple(own_links), dram=tuple(own_dram)))
        return flows

    # -- critical path --------------------------------------------------------

    def critical_path(self,
                      categories: Sequence[str] = CRITICAL_CHAIN,
                      max_steps: int = 10_000) -> List[CriticalStep]:
        """Backward walk from the last-ending span to the timeline start.

        At each hop the walk prefers a span that *abuts* the current one
        (ends exactly where it starts — the discrete-event simulator
        chains dependencies contiguously), breaking ties by the
        ``categories`` precedence (producers before consumers) and then
        by earliest start (longest span).  When nothing abuts, it falls
        back to the latest span ending strictly before the current start
        and records the crossed idle time as ``slack_ns``.  Returned in
        chronological order.
        """
        pool = [s for s in self.spans if s.category in categories
                and s.end_ns > s.start_ns]
        if not pool:
            return []
        rank = {category: index
                for index, category in enumerate(categories)}
        by_end = sorted(pool, key=lambda s: s.end_ns)
        current = max(pool, key=lambda s: (s.end_ns, s.end_ns - s.start_ns))
        steps: List[CriticalStep] = [CriticalStep(current, 0.0)]
        for _ in range(max_steps):
            cursor = current.start_ns
            abutting = [s for s in pool
                        if s.end_ns == cursor and s is not current]
            if abutting:
                current = min(
                    abutting,
                    key=lambda s: (rank.get(s.category, len(rank)),
                                   s.start_ns))
                steps.append(CriticalStep(current, 0.0))
                continue
            predecessors = [s for s in by_end if s.end_ns < cursor]
            if not predecessors:
                break
            latest_end = predecessors[-1].end_ns
            candidates = [s for s in predecessors if s.end_ns == latest_end]
            current = min(
                candidates,
                key=lambda s: (rank.get(s.category, len(rank)), s.start_ns))
            steps.append(CriticalStep(current, cursor - latest_end))
        return list(reversed(steps))

    def critical_path_breakdown(
            self, categories: Sequence[str] = CRITICAL_CHAIN,
    ) -> Dict[str, float]:
        """Time on the critical path per category (plus ``slack``)."""
        out: Dict[str, float] = {}
        for step in self.critical_path(categories):
            out[step.span.category] = (out.get(step.span.category, 0.0)
                                       + step.span.duration_ns)
            if step.slack_ns:
                out["slack"] = out.get("slack", 0.0) + step.slack_ns
        return out


def _reads_ids(track=None, name_contains=None, where=None, args=None,
               **_filters) -> bool:
    """True when a :meth:`TraceQuery.select` filter reads a span field
    that :mod:`repro.obs.rotation` relabels on the ring's copies."""
    return (track is not None or name_contains is not None
            or where is not None
            or not RELABELLED_ARGS.isdisjoint(args or ()))


def _select(index: _Index, category: Optional[str] = None,
            track: Optional[str] = None, group: Optional[str] = None,
            window: Optional[Tuple[float, float]] = None,
            name_contains: Optional[str] = None,
            where: Optional[Callable[[TraceSpan], bool]] = None,
            args: Optional[Dict[str, Any]] = None) -> List[TraceSpan]:
    """The spans of ``index`` that :meth:`TraceQuery.select`'s filters
    keep, in timeline order."""
    if category is not None:
        pool: Sequence[TraceSpan] = index.by_category.get(category, [])
    elif track is not None:
        pool = index.by_track.get(track, [])
    else:
        pool = index.spans
    wanted = None if args is None else args.items()
    out: List[TraceSpan] = []
    for span in pool:
        if track is not None and span.track != track:
            continue
        if group is not None and span.group != group:
            continue
        if name_contains is not None and name_contains not in span.name:
            continue
        if window is not None:
            lo, hi = window
            inside = (span.start_ns < hi and span.end_ns > lo) or \
                (span.start_ns == span.end_ns
                 and lo <= span.start_ns <= hi)
            if not inside:
                continue
        if wanted is not None and not wanted <= (span.args or {}).items():
            continue
        if where is not None and not where(span):
            continue
        out.append(span)
    return out


@dataclass
class _CountersView:
    """Helper: counter samples for tracks matching a regex."""

    query: TraceQuery
    pattern: str
    tracks: Dict[str, List[Tuple[float, float]]] = field(init=False)

    def __post_init__(self) -> None:
        regex = re.compile(self.pattern)
        self.tracks = {name: samples
                       for name, samples in self.query.counters.items()
                       if regex.search(name)}

    def values(self) -> List[float]:
        return [value for samples in self.tracks.values()
                for _t, value in samples]


def counter_view(query: TraceQuery, pattern: str) -> _CountersView:
    """Counter tracks whose name matches ``pattern`` (a regex)."""
    return _CountersView(query, pattern)
