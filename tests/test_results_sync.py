"""Guard against stale checked-in results.

``results/*.txt`` are committed artifacts of ``scripts/capture_results``;
when a simulator change shifts the numbers, the files must be
regenerated.  Re-rendering every figure is minutes of simulation, so this
test compares only the *cheap* experiments (closed forms, and the
16-case sweep behind Figures 15, 16 and 18) live against their
checked-in bodies — any drift in shared config, simulation or rendering
code trips it immediately, and the expensive figures are validated by
the same mechanism whenever ``make results`` is run.

Without simulating, every per-figure file of ``results/`` and
``results_full/`` must also equal its section of the directory's
``all_results.txt``, so a figure regenerated on its own cannot drift
from the combined file.  CI re-renders the full-scale figures against
``results_full/`` (``scripts/check_full_results.py``).
"""

import pathlib
import re

import pytest

from repro.experiments.runner import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"
#: a capture stamp line, ``[name: 12.3s, fast=True]``.
STAMP = re.compile(r"\[(?P<name>[\w-]+): [\d.]+s, fast=(True|False)\]")
#: ``results/name`` and ``results_full/name`` of every per-figure file.
PER_FIGURE = [
    f"{directory}/{path.stem}"
    for directory in ("results", "results_full")
    for path in sorted((REPO_ROOT / directory).glob("*.txt"))
    if path.stem != "all_results"
]

#: experiments cheap enough to re-render on every test run.  The three
#: figures share one 16-case sweep, simulated once per test run.
CHEAP = ("table1", "table2", "table3", "figure4", "figure15", "figure16",
         "figure18")


def body(text: str) -> str:
    """Rendered output minus the ``[...]`` timing-stamp lines (which vary
    run to run by design — same convention as scripts/smoke_cache.py)."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("[")).strip()


def capture_order():
    """The ORDER list from scripts/capture_results.py (scripts/ is not a
    package, so lift the literal out of the source)."""
    source = (REPO_ROOT / "scripts" / "capture_results.py").read_text()
    start = source.index("ORDER")
    end = source.index("]", start) + 1
    namespace = {}
    exec(source[start:end], namespace)
    return namespace["ORDER"]


@pytest.mark.parametrize("name", CHEAP)
def test_checked_in_results_match_live_render(name):
    path = RESULTS_DIR / f"{name}.txt"
    assert path.exists(), f"results/{name}.txt missing; run make results"
    live = EXPERIMENTS[name](fast=True).render()
    assert body(path.read_text()) == body(live), (
        f"results/{name}.txt is stale; regenerate with "
        "`python scripts/capture_results.py`")


def test_every_captured_experiment_has_a_results_file():
    order = capture_order()
    assert set(order) <= set(EXPERIMENTS)
    missing = [name for name in order
               if not (RESULTS_DIR / f"{name}.txt").exists()]
    assert not missing, (
        f"results/ lacks {missing}; run `python scripts/capture_results.py`")


def test_combined_results_file_contains_every_body():
    combined = RESULTS_DIR / "all_results.txt"
    assert combined.exists()
    text = combined.read_text()
    for name in capture_order():
        assert body((RESULTS_DIR / f"{name}.txt").read_text()) in \
            body(text), f"all_results.txt out of sync for {name}"


def combined_sections(text: str) -> dict:
    """``all_results.txt`` cut at its stamp lines: name -> body."""
    sections, lines = {}, []
    for line in text.splitlines():
        stamp = STAMP.fullmatch(line)
        if stamp:
            sections[stamp["name"]] = body("\n".join(lines))
            lines = []
        else:
            lines.append(line)
    return sections


@pytest.mark.parametrize("path", PER_FIGURE)
def test_per_figure_file_matches_all_results(path):
    directory, name = path.split("/")
    sections = combined_sections(
        (REPO_ROOT / directory / "all_results.txt").read_text())
    assert name in sections, f"{directory}/all_results.txt lacks {name}"
    assert body((REPO_ROOT / f"{path}.txt").read_text()) == sections[name], (
        f"{path}.txt differs from its section of all_results.txt")
