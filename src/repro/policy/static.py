"""The paper's static per-kernel policy — the bit-identity reference.

Exactly the behavior that used to be hard-coded: the Section 4.5
intensity -> threshold table at calibration, the
``dram_occupancy < threshold`` admission gate per arbitration round,
eager triggering, and unpaced DMA.
``tests/test_policy.py::test_static_policy_matches_inline_reference``
holds it decision for decision to an inline copy of the pre-refactor
arbiter, and the fingerprints recorded in
``tests/test_engine_regressions.py`` (where the two agreed) pin whole
runs: results, event counts and telemetry snapshots.
"""

from __future__ import annotations

from repro.policy.base import McaSite, OverlapPolicy, paper_threshold_index


class StaticPaperPolicy(OverlapPolicy):
    """Static per-kernel thresholds; no pacing; eager triggers."""

    name = "static-paper"

    def on_calibration(self, site: McaSite, memory_intensity: float) -> None:
        index = paper_threshold_index(site.config, memory_intensity)
        site.base_index = index
        site.index = index
        site.threshold = site.config.occupancy_thresholds[index]
        self._decide("threshold", site.gpu_id, site.channel_id,
                     site.threshold, reason="calibration")

    def comm_admission(self, site: McaSite, state) -> bool:
        threshold = site.threshold
        return threshold is None or state.dram_occupancy < threshold
