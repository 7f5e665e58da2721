"""Copy one rotation period's records out to the whole ring.

A :class:`~repro.interconnect.topology.PeriodicRingTopology` simulates
ranks ``0..p-1`` of an ``N``-rank ring: rank ``r + k*p`` would run rank
``r``'s simulation with every GPU id and ring chunk id ``k*p`` ahead
(mod ``N``).  :func:`rotate_out` appends those ranks' records to the
run's :class:`~repro.obs.MetricsRegistry` and
:class:`~repro.analysis.trace.TraceRecorder`, so both hold what the full
ring records: every registry scope is equal, and the recorder's spans
are equal as a multiset.  Replicas follow the simulated ranks' spans, so
``recorder.spans`` is in another order; exports and queries sort.

The relabel knows every id a ring run records and rejects anything else
with :class:`ValueError`, so a new recording site cannot be copied with
stale ids:

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


def _shifted(pattern: re.Pattern, text: str, n_gpus: int,
             shift: int) -> str:
    """``text`` with every id ``pattern`` captures moved ``shift`` ranks
    round the ring; raises when ``text`` does not match."""
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(
            f"cannot rotate {text!r}: it does not match the recorded form "
            f"{pattern.pattern!r}")
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
    """Append ranks ``period..n_gpus-1``'s records, copied from ranks
    ``0..period-1`` with GPU and chunk ids rotated.

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
        spans = list(recorder.spans)
        unrotated = frozenset(unrotated_labels)
        for shift in shifts:
            recorder.spans.extend(
                _rotated_spans(spans, n_gpus, shift, unrotated))


def _rotated_spans(spans, n_gpus: int, shift: int,
                   unrotated_labels: frozenset) -> list:
    """``spans`` as the rank ``shift`` ahead records them."""
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
            pattern = _TRACKS.get(category)
            if pattern is None:
                raise ValueError(
                    f"cannot rotate a {category!r} span ({name!r} on "
                    f"{span.track!r}): its ids are not known")
            track = tracks[category, span.track] = _shifted(
                pattern, span.track, n_gpus, shift)
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
