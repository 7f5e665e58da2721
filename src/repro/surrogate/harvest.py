"""Training-record harvest from previously simulated suites.

The persistent :class:`~repro.experiments.executor.SweepCache` already
stores every simulated case as a full :class:`SublayerSuite` payload
(shape + system + per-config times), which is exactly a training set:
each cached case yields one :class:`TrainingRecord` per config, pairing
the recomputed analytic estimate with the simulated wall-clock.  Stale
entries (older code fingerprints) are still valid training signal — the
factors calibrate magnitudes, not bit-exact replay — so the harvest
reads *every* ``*.json`` in the cache directory, not just current-key
hits.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.experiments.common import SublayerSuite
from repro.surrogate.features import analytic_times
from repro.surrogate.model import TrainingRecord


def _sublayer_name(label: str) -> str:
    """``"Mega-GPT-2/FC-2/TP8"`` -> ``"FC-2"`` (middle path segment)."""
    parts = label.split("/")
    return parts[1] if len(parts) >= 2 else label


def records_from_suite(suite: SublayerSuite) -> List[TrainingRecord]:
    """One record per config of a simulated suite."""
    name = _sublayer_name(suite.label)
    tp = suite.system.n_gpus
    analytic = analytic_times(suite.shape, suite.system,
                              configs=list(suite.times))
    records: List[TrainingRecord] = []
    for config, simulated in suite.times.items():
        estimate = analytic.get(config)
        if estimate is None or estimate <= 0 or simulated <= 0:
            continue
        records.append(TrainingRecord(
            config=config, sublayer=name, tp=tp,
            analytic_ns=estimate, simulated_ns=simulated))
    return records


def records_from_suites(suites: Sequence[SublayerSuite],
                        ) -> List[TrainingRecord]:
    records: List[TrainingRecord] = []
    for suite in suites:
        records.extend(records_from_suite(suite))
    return records


def harvest_cache(cache=None) -> List[TrainingRecord]:
    """All training records recoverable from the persistent sweep cache.

    Unreadable or schema-incompatible files are skipped (the cache is
    best-effort by design); an empty harvest is fine — the surrogate
    then trains purely on the cases the triage flow simulates itself.
    """
    if cache is None:
        from repro.experiments.sublayer_sweep import disk_cache
        cache = disk_cache()
    directory = getattr(cache, "directory", None)
    if directory is None or not directory.is_dir():
        return []
    records: List[TrainingRecord] = []
    for path in sorted(directory.glob("*.json")):
        try:
            suite = SublayerSuite.from_dict(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError,
                OSError):
            continue
        try:
            records.extend(records_from_suite(suite))
        except (ValueError, ZeroDivisionError):
            continue
    return records
