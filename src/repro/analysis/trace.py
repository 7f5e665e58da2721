"""Execution tracing: export simulations to the Chrome trace format.

Attach a :class:`TraceRecorder` to an :class:`~repro.sim.engine.Environment`
(``env.trace = TraceRecorder()``) *before* building the topology and the
simulator's components record spans as they run:

* GEMM / collective kernel executions (one track per GPU),
* DMA commands (trigger -> remote completion),
* inter-GPU link serialization spans,
* per-channel DRAM service spans (optional — high volume),
* fault / resilience incidents (instant markers, when those layers fire).

``save("run.json")`` writes a file loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_, which renders the paper's Figure 7
choreography directly: staggered GEMM stages, Tracker-triggered DMAs
racing down the ring, and the memory system underneath.

Trace-format contract (see ``docs/tracing.md``)
-----------------------------------------------
Timestamps are exported in microseconds (the trace format's display
unit), but every span event additionally carries its **exact**
nanosecond endpoints in ``args.start_ns`` / ``args.end_ns`` so post-hoc
analysis (:mod:`repro.trace`) reproduces live interval arithmetic
bit-for-bit — the us columns are views, not the source of truth.
Zero-length spans are emitted as instant ("i") events rather than being
inflated to a fake duration.  Output is byte-deterministic: tids are
assigned from the sorted ``(group, track)`` set, events are sorted, and
JSON is dumped with sorted keys and compact separators, so two saves of
the same run diff clean.  ``save(path, registry=...)`` embeds the
:class:`~repro.obs.MetricsRegistry` both as Perfetto counter tracks and
as an aggregate snapshot under the top-level ``"t3"`` key.
"""

from __future__ import annotations

import json
import operator
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: schema tag written under the top-level "t3" key of saved traces.
TRACE_SCHEMA = 1

#: args keys reserved by the exporter for exact span endpoints.
_EXACT_KEYS = ("start_ns", "end_ns")

#: the timeline order of spans: :meth:`TraceSpan.sort_key` without a
#: Python call per span.
SPAN_ORDER = operator.attrgetter("start_ns", "end_ns", "group", "track",
                                 "category", "name")


@dataclass(frozen=True)
class TraceSpan:
    name: str
    category: str
    start_ns: float
    end_ns: float
    track: str              # becomes the trace "thread"
    group: str = "sim"      # becomes the trace "process"
    args: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(f"span {self.name!r} ends before it starts")

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def sort_key(self):
        return SPAN_ORDER(self)

    def relabelled(self, name: str, track: str,
                   args: Optional[Dict[str, Any]]) -> "TraceSpan":
        """This span under another name, track and args: a rotated rank's
        copy (:mod:`repro.obs.rotation`).  Built from this span's fields
        without re-running the checks they passed, which would dominate
        copying tens of thousands of spans."""
        fields = self.__dict__.copy()
        fields["name"] = name
        fields["track"] = track
        fields["args"] = args
        span = object.__new__(TraceSpan)
        object.__setattr__(span, "__dict__", fields)
        return span


def read_trace(path: str) -> Tuple[Dict[str, Any], List[Any]]:
    """A saved trace's top-level object and its event array.

    Accepts this exporter's files and any Chrome JSON (an object with
    ``traceEvents``, or a bare event array, read as ``({}, events)``);
    anything else raises :class:`ValueError` naming the file.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except ValueError as error:
        raise ValueError(f"{path}: not a JSON trace ({error})") from None
    if isinstance(payload, list):
        return {}, payload
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a trace is an object or an event array, "
                         f"not {type(payload).__name__}")
    events = payload.get("traceEvents", [])
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is "
                         f"{type(events).__name__}, not an array")
    header = payload.get("t3", {})
    if not isinstance(header, dict):
        raise ValueError(f"{path}: \"t3\" is {type(header).__name__}, not "
                         "an object")
    _check_registry(header.get("registry"), path)
    return payload, events


#: the fields of a ``ValueStats`` snapshot the analysis passes add up.
_STATS_FIELDS = ("count", "total", "min", "max")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_registry(snapshot: Any, path: str) -> None:
    """Reject a registry snapshot the analysis passes cannot read:
    ``scopes`` is an array of objects, each ``counters`` maps to numbers,
    and each ``observations`` maps to objects whose ``count``, ``total``,
    ``min`` and ``max`` are numbers.  A missing snapshot is fine."""
    if snapshot is None:
        return
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: the \"t3\" registry snapshot is not an "
                         "object")
    scopes = snapshot.get("scopes", [])
    if not isinstance(scopes, list):
        raise ValueError(f"{path}: registry scopes is "
                         f"{type(scopes).__name__}, not an array")
    for index, scope in enumerate(scopes):
        where = f"{path}: registry scope {index}"
        if not isinstance(scope, dict):
            raise ValueError(f"{where} is {type(scope).__name__}, not an "
                             "object")
        counters = scope.get("counters", {})
        if not isinstance(counters, dict) \
                or not all(map(_is_number, counters.values())):
            raise ValueError(f"{where}: counters must map names to numbers")
        observations = scope.get("observations", {})
        if not isinstance(observations, dict) or not all(
                isinstance(stats, dict)
                and all(_is_number(stats.get(name))
                        for name in _STATS_FIELDS)
                for stats in observations.values()):
            raise ValueError(
                f"{where}: observations must map names to objects with "
                "numeric count, total, min and max")


def _event_error(source: str, index: int, problem: str) -> ValueError:
    return ValueError(f"{source}: event {index}: {problem}")


def _event_args(event: Dict[str, Any], source: str,
                index: int) -> Dict[str, Any]:
    args = event.get("args") or {}
    if not isinstance(args, dict):
        raise _event_error(source, index,
                           f"args is {type(args).__name__}, not an object")
    return args


def _event_number(value: Any, source: str, index: int, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise _event_error(source, index,
                           f"{name} is {value!r}, not a number") from None


def _event_thread(event: Dict[str, Any], source: str, index: int):
    thread = (event.get("pid"), event.get("tid"))
    if any(isinstance(part, (list, dict)) for part in thread):
        raise _event_error(source, index, "pid and tid must be scalars")
    return thread


def events_to_spans(events: Sequence[Any],
                    source: str = "<events>") -> List[TraceSpan]:
    """Reconstruct :class:`TraceSpan`\\ s from Chrome trace events.

    Complete ("X") and instant ("i"/"I") events become spans; counter and
    metadata events are skipped (see :func:`events_to_counters`).  Events
    written by :meth:`TraceRecorder.to_chrome_events` round-trip exactly
    via their ``args.start_ns``/``args.end_ns``; foreign traces (e.g. an
    nsys Chrome export) fall back to ``ts``/``dur`` microseconds.  An
    event that is not an object, any event whose args are not an object,
    and a span whose times or thread ids cannot be read raise
    :class:`ValueError` naming ``source`` and the event's index.
    """
    names: Dict[Any, Any] = {}
    span_events = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{source}: event {index} is "
                             f"{type(event).__name__}, not an object")
        args = _event_args(event, source, index)
        ph = event.get("ph")
        if ph == "M" and event.get("name") == "thread_name":
            names[_event_thread(event, source, index)] = \
                args.get("name", "")
        elif ph in ("X", "i", "I"):
            span_events.append((index, event, args))
    spans: List[TraceSpan] = []
    for index, event, args in span_events:
        if "start_ns" in args and "end_ns" in args:
            start_ns = _event_number(args["start_ns"], source, index,
                                     "start_ns")
            end_ns = _event_number(args["end_ns"], source, index, "end_ns")
        else:
            start_ns = _event_number(event.get("ts", 0.0), source, index,
                                     "ts") * 1e3
            end_ns = start_ns + _event_number(
                event.get("dur", 0.0), source, index, "dur") * 1e3
        if end_ns < start_ns:
            raise _event_error(source, index, "the span ends before it "
                               "starts")
        user_args = {key: value for key, value in args.items()
                     if key not in _EXACT_KEYS}
        track = names.get(_event_thread(event, source, index))
        track = str(track) if track else str(event.get("tid", "?"))
        spans.append(TraceSpan(
            name=str(event.get("name", "")),
            category=str(event.get("cat", "")),
            start_ns=start_ns, end_ns=end_ns,
            track=track, group=str(event.get("pid", "sim")),
            args=user_args or None))
    return spans


def events_to_counters(events: Sequence[Dict[str, Any]],
                       source: str = "<events>",
                       ) -> Dict[str, List[Tuple[float, float]]]:
    """Counter ("C") events as track name -> ``[(t_ns, value), ...]``:
    exact ``args.t_ns`` where the exporter wrote it, else ``ts``
    microseconds.  ``events`` passed :func:`events_to_spans`."""
    counters: Dict[str, List[Tuple[float, float]]] = {}
    for index, event in enumerate(events):
        if event.get("ph") != "C":
            continue
        args = _event_args(event, source, index)
        t_ns = args.get("t_ns")
        if t_ns is None:
            t_ns = _event_number(event.get("ts", 0.0), source, index,
                                 "ts") * 1e3
        counters.setdefault(str(event.get("name", "")), []).append(
            (_event_number(t_ns, source, index, "t_ns"),
             _event_number(args.get("value", 0.0), source, index, "value")))
    return counters


@dataclass
class TraceRecorder:
    """Collects spans; converts to Chrome's JSON event array.

    ``spans`` holds what was recorded.  A run of one rotation period of
    its ring then gets ``ring`` (:func:`~repro.obs.rotation.rotate_out`),
    and :meth:`ring_spans`, ``len``, the exports and
    :class:`~repro.trace.TraceQuery` present every rank's spans.
    """

    spans: List[TraceSpan] = field(default_factory=list)
    #: record per-request DRAM service spans (noisy; off by default, but
    #: required for decomposition-grade traces — post-hoc hidden/exposed
    #: math needs the comm-stream DRAM service intervals).
    record_dram: bool = False
    #: the :class:`~repro.obs.rotation.Ring` that ``spans`` are one
    #: rotation period of, or None when they cover every rank.
    ring: Any = field(default=None, init=False, repr=False, compare=False)

    def span(self, name: str, category: str, start_ns: float, end_ns: float,
             track: str, group: str = "sim",
             args: Optional[Dict[str, Any]] = None) -> None:
        self.spans.append(TraceSpan(name, category, start_ns, end_ns,
                                    track, group, args))

    def instant(self, name: str, category: str, at_ns: float, track: str,
                group: str = "incidents",
                args: Optional[Dict[str, Any]] = None) -> None:
        """A zero-length marker (fault injections, recovery actions)."""
        self.span(name, category, at_ns, at_ns, track, group, args)

    def __len__(self) -> int:
        if self.ring is None:
            return len(self.spans)
        return len(self.spans) * self.ring.repeats

    def ring_spans(self) -> List[TraceSpan]:
        """Every rank's spans: ``spans``, followed on a rotated recorder
        by the copies the other ranks would record."""
        if self.ring is None:
            return list(self.spans)
        return self.ring.spans(self.spans)

    def by_category(self, category: str) -> List[TraceSpan]:
        return [s for s in self.ring_spans() if s.category == category]

    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Complete ("X") / instant ("i") events plus thread-name metadata.

        Byte-deterministic: tids come from the sorted ``(group, track)``
        set, metadata precedes span events, and span events are emitted
        in ``(start, end, group, track, ...)`` order.  Exact nanosecond
        endpoints ride in ``args`` (see the module docstring's format
        contract); zero-length spans become instant events instead of
        being inflated to a fake 1 ps duration.
        """
        spans = self.ring_spans()
        tracks = sorted({(span.group, span.track) for span in spans})
        tids = {key: index + 1 for index, key in enumerate(tracks)}
        events: List[Dict[str, Any]] = []
        for (group, track), tid in sorted(tids.items()):
            events.append({
                "name": "thread_name", "ph": "M", "pid": group, "tid": tid,
                "args": {"name": track},
            })
        for span in sorted(spans, key=SPAN_ORDER):
            args = dict(span.args or {})
            args["start_ns"] = span.start_ns
            args["end_ns"] = span.end_ns
            event = {
                "name": span.name,
                "cat": span.category,
                "ts": span.start_ns / 1e3,
                "pid": span.group,
                "tid": tids[(span.group, span.track)],
                "args": args,
            }
            if span.end_ns > span.start_ns:
                event["ph"] = "X"
                event["dur"] = (span.end_ns - span.start_ns) / 1e3
            else:
                event["ph"] = "i"
                event["s"] = "t"       # instant scoped to its thread
            events.append(event)
        return events

    def save(self, path: str, registry=None,
             max_samples_per_track: Optional[int] = None) -> None:
        """Write the Chrome-format JSON; passing an
        :class:`~repro.obs.MetricsRegistry` merges its gauges/series in
        as counter tracks on the same timeline and embeds its aggregate
        snapshot under the top-level ``"t3"`` key (the input to post-hoc
        analysis passes that need counters, e.g. arbiter deferrals).

        Output is compact (no spaces) with sorted keys, and parent
        directories are created on demand.
        """
        events = self.to_chrome_events()
        payload: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "t3": {"schema": TRACE_SCHEMA},
        }
        if registry is not None:
            from repro.obs.perfetto import merge_into_trace
            payload["traceEvents"] = merge_into_trace(
                events, registry, max_samples_per_track)
            payload["t3"]["registry"] = registry.snapshot()
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as handle:
            json.dump(payload, handle, sort_keys=True,
                      separators=(",", ":"))

    @classmethod
    def load(cls, path: str) -> "TraceRecorder":
        """Round-trip a saved trace back into a recorder.

        Reads the file as :class:`~repro.trace.TraceQuery.from_file` does
        (:func:`read_trace`, :func:`events_to_spans`): this exporter's
        files and any Chrome JSON load, and anything else raises
        :class:`ValueError` naming the file.
        """
        _payload, events = read_trace(path)
        recorder = cls()
        recorder.spans = events_to_spans(events, source=str(path))
        return recorder

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.ring_spans():
            out[span.category] = out.get(span.category, 0) + 1
        return out
