#!/usr/bin/env python
"""Re-render the full-scale sweep figures and diff them against results_full/.

Renders figures 15, 16, 18, 19, 16-large and 20 at paper scale in one
process, so the 16-case sweep behind Figures 15, 16, 18 and 19 is
simulated once, with the persistent sweep cache off.  Each rendering is
compared with its checked-in ``results_full/<name>.txt``, stamp (``[``)
and blank lines stripped.  Prints a unified diff per stale file and
exits 1 if any.

Usage: python scripts/check_full_results.py
"""

import difflib
import pathlib
import sys

from repro.experiments import sublayer_sweep
from repro.experiments.runner import EXPERIMENTS

RESULTS_FULL = pathlib.Path(__file__).resolve().parent.parent / "results_full"
#: the full-scale figures built on the sub-layer sweeps.
SWEEP_FIGURES = ("figure15", "figure16", "figure18", "figure19",
                 "figure16-large", "figure20")


def body(text: str):
    return [line + "\n" for line in text.splitlines()
            if line and not line.startswith("[")]


def main() -> int:
    sublayer_sweep.configure(disk_cache=False)
    stale = []
    for name in SWEEP_FIGURES:
        path = RESULTS_FULL / f"{name}.txt"
        checked_in = body(path.read_text())
        live = body(EXPERIMENTS[name](fast=False).render())
        if live != checked_in:
            stale.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                checked_in, live, f"results_full/{name}.txt", "live"))
        print(f"{name}: {'STALE' if name in stale else 'matches'}",
              flush=True)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
