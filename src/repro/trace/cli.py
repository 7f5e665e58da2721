"""``runner trace`` — query a saved trace and run analysis passes.

Examples::

    python -m repro.experiments.runner trace results/scaleout.trace.json
    ... trace run.json --pass decomposition --pass critical-path
    ... trace run.json --json report.json          # machine-readable
    ... trace run.json --timeline --width 120      # headless timeline
    ... trace run.json --tui                       # interactive curses
    ... trace run.json --window 0:250 --timeline   # zoom (us)

Also runnable directly: ``python -m repro.trace.cli <trace.json>``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.trace.passes import PASSES, run_passes
from repro.trace.query import TraceQuery
from repro.trace.tui import render_timeline


def _parse_window(text: str) -> Tuple[float, float]:
    """``LO:HI`` in microseconds -> (lo_ns, hi_ns)."""
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = float(lo_text) * 1e3, float(hi_text) * 1e3
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be LO:HI in us, got {text!r}")
    if hi <= lo:
        raise argparse.ArgumentTypeError(
            f"window must satisfy LO < HI, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runner trace",
        description="Query a saved simulation trace: analysis passes, "
                    "JSON reports, and a terminal timeline.")
    parser.add_argument("trace", nargs="?",
                        help="path to a saved Chrome/Perfetto trace JSON "
                             "(e.g. from a runner --trace flag)")
    parser.add_argument("--pass", dest="passes", action="append",
                        metavar="NAME", default=None,
                        help="analysis pass to run (repeatable; default: "
                             "all). See --list-passes.")
    parser.add_argument("--list-passes", action="store_true",
                        help="list available analysis passes and exit")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the pass results as JSON "
                             "('-' for stdout)")
    parser.add_argument("--timeline", action="store_true",
                        help="render the headless terminal timeline "
                             "after the passes")
    parser.add_argument("--tui", action="store_true",
                        help="open the interactive curses timeline")
    parser.add_argument("--width", type=int, default=100,
                        help="timeline width in columns (default 100)")
    parser.add_argument("--window", type=_parse_window, default=None,
                        metavar="LO:HI",
                        help="restrict the timeline to LO:HI microseconds")
    parser.add_argument("--tracks", metavar="SUBSTR", default=None,
                        help="only show tracks whose name contains SUBSTR "
                             "(timeline views)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_passes:
        for name, fn in PASSES.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:<18}{doc[0] if doc else ''}")
        return 0
    if options.trace is None:
        parser.error("a trace file is required (or --list-passes)")
    path = pathlib.Path(options.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    try:
        query = TraceQuery.from_file(str(path))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        results = run_passes(query, options.passes)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    blocks = [result.text for result in results]
    print("\n\n".join(blocks))
    if options.json:
        payload = {"trace": str(path),
                   "passes": [result.to_dict() for result in results]}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if options.json == "-":
            print(text)
        else:
            target = pathlib.Path(options.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text + "\n")
            print(f"\nwrote {options.json}")
    tracks = None
    if options.tracks is not None:
        tracks = [name for name in query.tracks()
                  if options.tracks in name]
        if not tracks:
            print(f"error: no tracks match {options.tracks!r}",
                  file=sys.stderr)
            return 2
    if options.timeline:
        print()
        print(render_timeline(query, width=options.width,
                              window=options.window, tracks=tracks))
    if options.tui:
        from repro.trace.tui import interactive
        interactive(query)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
