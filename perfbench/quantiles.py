"""Order statistics and the ``--compare`` verdict rule (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: a tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: fewest runs per side from which a spread, and so a verdict on a noisy
#: metric, can be judged.
MIN_RUNS = 3


def hd_quantile(values: Sequence[float], pct: float) -> float:
    """Harrell–Davis estimate of a percentile: a Beta-weighted average of
    all order statistics instead of the one or two nearest the rank.

    Op times cluster by op kind (4 vs 8 GPUs, TP 8 vs 16), and a plain
    median that falls in the gap between two clusters is the extreme of
    each, which is as noisy as a maximum.  The weighted average moves
    smoothly with the samples around the rank.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    n = len(ordered)
    q = pct / 100.0
    if n == 1 or q <= 0 or q >= 1:
        return ordered[0] if q <= 0 or n == 1 else ordered[-1]
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    # The Beta(a+1, b+1) mass over each ((i-1)/n, i/n], by a midpoint rule
    # fine enough for the density's width at any n.
    steps = 8
    log_density = []
    for i in range(n * steps):
        t = (i + 0.5) / (n * steps)
        log_density.append(a * math.log(t) + b * math.log1p(-t))
    peak = max(log_density)
    mass = [math.exp(value - peak) for value in log_density]
    weights = [sum(mass[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_pct(n: int) -> int:
    """The highest whole percentile (at most 99) leaving at least
    :data:`TAIL_BEYOND` of ``n`` samples above it."""
    if n < 2 * TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile at or above the "
                         f"median with {TAIL_BEYOND} samples beyond it")
    return min(99, 100 * (n - TAIL_BEYOND) // n)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for constants)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(med)


def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Judge one (workload, metric) pair from two sets of runs.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of
    the parent's median by which the metric may worsen.  The rule:

    * a bound of 0 marks an exact metric: any move of the median is
      ``worse`` or ``better``;
    * ``unresolved`` when either set has fewer than :data:`MIN_RUNS` runs;
    * ``unresolved`` when either set's interquartile spread exceeds the
      bound, unless every run of ``after`` beats every run of ``before``
      (then ``better``) or loses to every one (then ``worse``);
    * ``worse`` when the median worsened by more than the bound;
    * ``better`` when the median improved by more than the parent's own
      spread;
    * ``same`` otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(before)
    a_q1, a_med, a_q3 = quartiles(after)
    if b_med == 0:
        worsening = 0.0 if a_med == b_med else sign * math.copysign(
            math.inf, a_med - b_med)
    else:
        worsening = sign * (a_med - b_med) / abs(b_med)
    spread = max(relative_spread(before), relative_spread(after))
    all_better = all(sign * (a - b) < 0 for a in after for b in before)
    all_worse = all(sign * (a - b) > 0 for a in after for b in before)
    if bound == 0:
        label = ("worse" if worsening > 0 else
                 "better" if worsening < 0 else "same")
    elif min(len(before), len(after)) < MIN_RUNS:
        label = "unresolved"
    elif spread > bound:
        label = ("better" if all_better else
                 "worse" if all_worse else "unresolved")
    elif worsening > bound:
        label = "worse"
    elif -worsening > relative_spread(before):
        label = "better"
    else:
        label = "same"
    return {
        "before": {"q1": b_q1, "median": b_med, "q3": b_q3,
                   "n": len(before)},
        "after": {"q1": a_q1, "median": a_med, "q3": a_q3, "n": len(after)},
        "worsening": worsening,
        "spread": spread,
        "bound": bound,
        "verdict": label,
    }
