"""Terminal timeline viewer for simulation traces.

Two layers:

* :func:`render_timeline` — a **pure** renderer producing a string:
  one row per track, Unicode block characters shading per-column busy
  fraction, ``!``/``*`` markers for fault/resilience incidents, plus a
  time axis and a utilization gutter.  Headless-safe (the tests call it
  directly), and what ``runner trace --timeline`` prints.
* :func:`interactive` — a curses wrapper adding pan (``h``/``l`` or
  arrows), zoom (``+``/``-``), track scrolling (``j``/``k``), reset
  (``0``) and quit (``q``).  Import of ``curses`` happens inside the
  function so platforms without it can still use the renderer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs import intervals as iv
from repro.trace.query import TraceQuery

#: shading ramp: index by ceil(busy_fraction * 8).
_BLOCKS = " ▁▂▃▄▅▆▇█"

#: marker characters per incident category (override the shading).
_MARKERS = {"fault": "!", "resilience": "*"}


def _shade(fraction: float) -> str:
    if fraction <= 0.0:
        return _BLOCKS[0]
    index = min(len(_BLOCKS) - 1, max(1, round(fraction * 8)))
    return _BLOCKS[index]


def _axis(lo: float, hi: float, columns: int) -> str:
    """A time ruler in microseconds with ~4 labelled ticks."""
    row = [" "] * columns
    ticks = max(2, min(5, columns // 20))
    for tick in range(ticks):
        position = tick * (columns - 1) // (ticks - 1)
        value = lo + (hi - lo) * position / max(1, columns - 1)
        label = f"{value / 1e3:.1f}"
        start = min(position, columns - len(label))
        for offset, char in enumerate(label):
            row[start + offset] = char
    return "".join(row)


def render_timeline(query: TraceQuery,
                    width: int = 100,
                    window: Optional[Tuple[float, float]] = None,
                    tracks: Optional[Sequence[str]] = None,
                    track_offset: int = 0,
                    max_tracks: Optional[int] = None,
                    label_width: int = 24) -> str:
    """Render the trace as a fixed-width terminal timeline.

    ``window`` is a ``(lo_ns, hi_ns)`` view (default: full trace);
    ``tracks`` restricts and orders the rows (default: every span
    track, sorted); ``track_offset``/``max_tracks`` page vertically for
    the interactive viewer.  Each column shades the track's busy
    fraction over that column's time slice; incident markers win over
    shading so faults stay visible at any zoom.
    """
    lo, hi = window if window is not None else query.bounds()
    if hi <= lo:
        hi = lo + 1.0
    names = list(tracks) if tracks is not None else query.tracks()
    names = [name for name in names if name in set(query.tracks())]
    total_tracks = len(names)
    if max_tracks is not None:
        names = names[track_offset:track_offset + max_tracks]
    columns = max(10, width - label_width - 10)
    step = (hi - lo) / columns
    lines: List[str] = []
    title = (f"{query.source}  [{lo / 1e3:.1f}us .. {hi / 1e3:.1f}us]"
             f"  {columns} cols x {step / 1e3:.3f}us")
    lines.append(title)
    incidents = [(mark.start_ns, mark.track, mark.category)
                 for mark in query.incidents()]
    for name in names:
        merged = query.intervals(track=name)
        clipped = iv.clip(merged, lo, hi)
        row = []
        for column in range(columns):
            slice_lo = lo + column * step
            slice_hi = slice_lo + step
            busy = iv.total(iv.clip(clipped, slice_lo, slice_hi))
            row.append(_shade(busy / step if step > 0 else 0.0))
        for at, track, category in incidents:
            if track != name or not (lo <= at <= hi):
                continue
            column = min(columns - 1, int((at - lo) / step)) \
                if step > 0 else 0
            row[column] = _MARKERS.get(category, "!")
        busy_total = iv.total(clipped)
        utilization = busy_total / (hi - lo)
        label = name if len(name) <= label_width \
            else name[:label_width - 1] + "…"
        lines.append(f"{label:<{label_width}}|{''.join(row)}|"
                     f"{100 * utilization:>5.1f}%")
    lines.append(" " * label_width + " "
                 + _axis(lo, hi, columns) + " (us)")
    if max_tracks is not None and total_tracks > len(names):
        lines.append(f"[tracks {track_offset + 1}-"
                     f"{track_offset + len(names)} of {total_tracks}]")
    if incidents:
        lines.append("markers: ! fault   * resilience")
    return "\n".join(lines)


def interactive(query: TraceQuery) -> None:  # pragma: no cover - curses
    """Curses viewer over :func:`render_timeline` (pan/zoom/scroll)."""
    import curses

    full_lo, full_hi = query.bounds()
    if full_hi <= full_lo:
        full_hi = full_lo + 1.0

    def _loop(screen) -> None:
        curses.use_default_colors()
        screen.keypad(True)
        lo, hi = full_lo, full_hi
        offset = 0
        while True:
            height, width = screen.getmaxyx()
            max_tracks = max(1, height - 5)
            frame = render_timeline(
                query, width=width - 1, window=(lo, hi),
                track_offset=offset, max_tracks=max_tracks)
            screen.erase()
            for row, line in enumerate(frame.splitlines()):
                if row >= height - 1:
                    break
                try:
                    screen.addstr(row, 0, line[:width - 1])
                except curses.error:
                    pass
            hint = "h/l pan  +/- zoom  j/k tracks  0 reset  q quit"
            try:
                screen.addstr(height - 1, 0, hint[:width - 1],
                              curses.A_REVERSE)
            except curses.error:
                pass
            screen.refresh()
            key = screen.getch()
            span = hi - lo
            if key in (ord("q"), 27):
                return
            elif key in (ord("l"), curses.KEY_RIGHT):
                lo += span / 4
                hi += span / 4
            elif key in (ord("h"), curses.KEY_LEFT):
                lo -= span / 4
                hi -= span / 4
            elif key in (ord("+"), ord("=")):
                center = (lo + hi) / 2
                lo = center - span / 4
                hi = center + span / 4
            elif key == ord("-"):
                center = (lo + hi) / 2
                lo = center - span
                hi = center + span
            elif key in (ord("j"), curses.KEY_DOWN):
                offset = min(offset + 1,
                             max(0, len(query.tracks()) - 1))
            elif key in (ord("k"), curses.KEY_UP):
                offset = max(0, offset - 1)
            elif key == ord("0"):
                lo, hi = full_lo, full_hi
                offset = 0

    curses.wrapper(_loop)
