"""Guard against stale checked-in results.

``results/*.txt`` are committed artifacts of ``scripts/capture_results``;
when a simulator change shifts the numbers, the files must be
regenerated.  Re-rendering every figure is minutes of simulation, so this
test compares only the *cheap* experiments (closed forms, and the
16-case sweep behind Figures 15, 16 and 18) live against their
checked-in bodies — any drift in shared config, simulation or rendering
code trips it immediately, and the expensive figures are validated by
the same mechanism whenever ``make results`` is run.
"""

import pathlib

import pytest

from repro.experiments.runner import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"

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
