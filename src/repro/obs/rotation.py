"""Copy one rotation period's records out to the whole ring.

A :class:`~repro.interconnect.topology.PeriodicRingTopology` simulates
ranks ``0..p-1`` of an ``N``-rank ring: rank ``r + k*p`` would run rank
``r``'s simulation with every GPU id and ring chunk id ``k*p`` ahead
(mod ``N``).  :func:`rotate_out` appends those ranks' scopes to the
run's :class:`~repro.obs.MetricsRegistry`, so every registry scope
equals the full ring's.  A :class:`~repro.analysis.trace.TraceRecorder`
keeps the one period it recorded and gets a :class:`Ring`:
``recorder.ring_spans()`` builds the copies when they are read, and
equals the full ring's spans as a multiset.  Copies follow the simulated
ranks' spans, so the order differs; exports and queries sort.

The relabel knows every id a ring run records and rejects anything else
with :class:`ValueError` when :func:`rotate_out` is called, so a new
recording site cannot be copied with stale ids:

* registry: the ``(gpu, component)`` scope key, and the ``link`` scope's
  ``link.{src}->{dst}`` counter and span names; the other components
  name their metrics without ids;
* trace: the ``GPU{r}`` kernel track; the ``GPU{r}.dma`` track, its
  ``{command}.chunk{c}->gpu{d}`` name and ``chunk``/``dst`` args; the
  ``gpu{r}.hbm.ch{n}`` DRAM track and its ``chunk`` arg; the
  ``link.{src}->{dst}`` track; the ``gpu{r}.policy`` track and its
  ``gpu`` arg.

Fault and resilience incidents are not among them: those runs keep the
full ring.
"""

from __future__ import annotations

import re
from typing import Collection, Dict, List, Tuple

#: registry components whose metric names carry no id.
_ID_FREE_COMPONENTS = frozenset(
    ("compute", "gemm", "tracker", "trigger", "dma", "dram", "arbiter",
     "mc"))

#: a ``link`` scope's span name and counter keys.
_LINK_METRIC = re.compile(r"link\.(\d+)->(\d+)(?:\.bytes|\.stall_ns)?")

#: trace category -> its track name; every group is a GPU id.
_TRACKS = {
    "kernel": re.compile(r"GPU(\d+)"),
    "dma": re.compile(r"GPU(\d+)\.dma"),
    "dram": re.compile(r"gpu(\d+)\.hbm\.ch\d+"),
    "link": re.compile(r"link\.(\d+)->(\d+)"),
    "policy": re.compile(r"gpu(\d+)\.policy"),
}

#: a DMA span's name: the command id, then the destination GPU.
_DMA_NAME = re.compile(r".*\.chunk(\d+)->gpu(\d+)")

#: trace category -> the args that carry ring ids; a DRAM span carries
#: its chunk only when the request belongs to one.
_ID_ARGS = {"dma": ("chunk", "dst"), "dram": ("chunk",),
            "policy": ("gpu",)}

#: the span fields the relabel rewrites: every track, a DMA span's name,
#: and these args.  A query that reads none of them gets the same answer
#: from one period's spans as from the ring's.
RELABELLED_ARGS = frozenset(key for keys in _ID_ARGS.values()
                            for key in keys)


class Ring:
    """The ring a recorder's spans are one rotation period of: ranks
    ``0..period-1`` of ``n_gpus``, whose copies are built on demand."""

    __slots__ = ("n_gpus", "period", "unrotated_labels")

    def __init__(self, n_gpus: int, period: int,
                 unrotated_labels: frozenset):
        self.n_gpus = n_gpus
        self.period = period
        self.unrotated_labels = unrotated_labels

    @property
    def repeats(self) -> int:
        """How many ring ranks run each simulated rank's records."""
        return self.n_gpus // self.period

    def spans(self, recorded: list) -> list:
        """``recorded`` followed by every other rank's copies of it."""
        out = list(recorded)
        for shift in range(self.period, self.n_gpus, self.period):
            out.extend(_rotated_spans(recorded, self.n_gpus, shift,
                                      self.unrotated_labels))
        return out


def _match(pattern: re.Pattern, text: str) -> re.Match:
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(
            f"cannot rotate {text!r}: it does not match the recorded form "
            f"{pattern.pattern!r}")
    return match


def _shifted(pattern: re.Pattern, text: str, n_gpus: int,
             shift: int) -> str:
    """``text`` with every id ``pattern`` captures moved ``shift`` ranks
    round the ring; raises when ``text`` does not match."""
    match = _match(pattern, text)
    parts: List[str] = []
    last = 0
    for group in range(1, pattern.groups + 1):
        start, end = match.span(group)
        parts.append(text[last:start])
        parts.append(str((int(text[start:end]) + shift) % n_gpus))
        last = end
    parts.append(text[last:])
    return "".join(parts)


def rotate_out(n_gpus: int, period: int, registry=None, recorder=None,
               unrotated_labels: Collection[str] = ()) -> None:
    """Give ranks ``period..n_gpus-1`` the records of ranks
    ``0..period-1`` with GPU and chunk ids rotated: registry scopes are
    appended, and the recorder gets a :class:`Ring` that copies its spans
    when they are read.

    ``unrotated_labels`` names traffic labels whose DRAM spans carry a
    ``chunk`` arg that is the same on every rank rather than a ring chunk
    id: the plain GEMM of a Sequential run writes its one-chunk grid as
    chunk 0 everywhere.
    """
    if period < 1 or n_gpus % period:
        raise ValueError(
            f"period {period} does not divide the {n_gpus}-rank ring")
    shifts = range(period, n_gpus, period)
    if registry is not None:
        for scope in registry.scopes():
            if not 0 <= scope.gpu < period:
                raise ValueError(
                    f"scope {scope.key} is not a simulated rank of a "
                    f"{period}-rank period")
            if scope.component == "link":
                for shift in shifts:
                    registry.add(scope.replica(
                        scope.gpu + shift,
                        lambda name, s=shift: _shifted(
                            _LINK_METRIC, name, n_gpus, s)))
            elif scope.component in _ID_FREE_COMPONENTS:
                for shift in shifts:
                    registry.add(scope.replica(scope.gpu + shift))
            else:
                raise ValueError(
                    f"cannot rotate the {scope.component!r} scope: its "
                    "metric names are not known to be id-free")
    if recorder is not None:
        if recorder.ring is not None:
            raise ValueError("the recorder's spans are already rotated out")
        unrotated = frozenset(unrotated_labels)
        _check_relabel(recorder.spans, unrotated)
        recorder.ring = Ring(n_gpus, period, unrotated)


def _check_relabel(spans, unrotated_labels: frozenset) -> None:
    """Raise :class:`ValueError` on the first span :func:`_rotated_spans`
    could not relabel: once per category and track and per DMA name, and
    for the id args of every span."""
    tracks = set()
    dma_names = set()
    for span in spans:
        category = span.category
        if (category, span.track) not in tracks:
            pattern = _TRACKS.get(category)
            if pattern is None:
                raise ValueError(
                    f"cannot rotate a {category!r} span ({span.name!r} on "
                    f"{span.track!r}): its ids are not known")
            _match(pattern, span.track)
            tracks.add((category, span.track))
        keys = _ID_ARGS.get(category)
        if keys is None:
            continue
        args = span.args or {}
        if category == "dram":
            if "chunk" not in args or \
                    span.name.rpartition(".")[0] in unrotated_labels:
                continue
        elif category == "dma" and span.name not in dma_names:
            _match(_DMA_NAME, span.name)
            dma_names.add(span.name)
        for key in keys:
            value = args.get(key)
            if not isinstance(value, int):
                raise ValueError(
                    f"cannot rotate a {category!r} span ({span.name!r} on "
                    f"{span.track!r}): its {key!r} arg is {value!r}, not a "
                    "ring id")


def _rotated_spans(spans, n_gpus: int, shift: int,
                   unrotated_labels: frozenset) -> list:
    """``spans`` as the rank ``shift`` ahead records them; every span
    passed :func:`_check_relabel`."""
    tracks: Dict[Tuple[str, str], str] = {}
    dma_names: Dict[str, str] = {}
    #: DRAM span name -> whether its chunk arg is a ring chunk id.
    ring_chunks: Dict[str, bool] = {}
    out = []
    for span in spans:
        category = span.category
        name = span.name
        args = span.args
        track = tracks.get((category, span.track))
        if track is None:
            track = tracks[category, span.track] = _shifted(
                _TRACKS[category], span.track, n_gpus, shift)
        if category == "dram":
            if args is not None and "chunk" in args:
                rotates = ring_chunks.get(name)
                if rotates is None:
                    rotates = ring_chunks[name] = (
                        name.rpartition(".")[0] not in unrotated_labels)
                if rotates:
                    args = dict(args)
                    args["chunk"] = (args["chunk"] + shift) % n_gpus
        elif category == "dma":
            renamed = dma_names.get(name)
            if renamed is None:
                renamed = dma_names[name] = _shifted(
                    _DMA_NAME, name, n_gpus, shift)
            name = renamed
            args = dict(args)
            args["chunk"] = (args["chunk"] + shift) % n_gpus
            args["dst"] = (args["dst"] + shift) % n_gpus
        elif category == "policy":
            args = dict(args)
            args["gpu"] = (args["gpu"] + shift) % n_gpus
        out.append(span.relabelled(name, track, args))
    return out
