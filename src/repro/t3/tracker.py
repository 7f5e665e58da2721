"""The T3 Tracker (Section 4.2.1).

A small structure at the memory controller that counts local, remote and
DMA updates per wavefront output region:

* 256 entries indexed by the WG id's LSBs (``wg_lsb``), set-associative,
  tagged ``(wg_msb, wf_id)``;
* each entry holds an update counter; when the counter reaches
  ``region bytes x expected updates per element`` the region is complete
  and the entry is handed to the :class:`~repro.t3.trigger.TriggerController`
  (which fires a DMA once all regions of a DMA block are complete);
* entries are allocated when a region is programmed (address-space
  configuration, Section 4.4) and freed when the region completes, so the
  structure is sized for the WGs in flight (the paper sizes it for the
  maximum WGs per producer stage).

Tracking granularity is configurable: ``"wg"`` (default; one region per
workgroup, matching the store granularity the simulator uses) or ``"wf"``
(one region per wavefront, the paper's full granularity).  A request that
carries only a ``wg_id`` contributes its bytes evenly to that WG's WF
regions in ``"wf"`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import TrackerConfig
from repro.memory.request import AccessKind, MemRequest

RegionKey = Tuple[int, int]  # (wg_id, wf_id); wf_id == -1 in "wg" mode


@dataclass
class TrackerEntry:
    """One tracked WF/WG output region.

    Byte counts are **integers**: the hardware counts whole update
    transactions, and integer arithmetic makes completion exact.  (The
    previous float representation compared against ``expected - 1e-6``,
    which could fire *early* once accumulated float error exceeded the
    epsilon — the region would trigger its DMA before the final update
    landed.)
    """

    key: RegionKey
    expected_bytes: int
    received_bytes: int = 0

    @property
    def complete(self) -> bool:
        return self.received_bytes >= self.expected_bytes


@dataclass
class TrackerStats:
    """Occupancy and behaviour counters for hardware-sizing checks."""

    regions_programmed: int = 0
    regions_completed: int = 0
    updates_observed: int = 0
    untracked_updates: int = 0
    peak_ways_used: int = 0
    overflow_events: int = 0
    forced_evictions: int = 0
    regions_restored: int = 0


class Tracker:
    """Set-associative update tracker for one GPU.

    ``env`` is optional; when given, the tracker registers a diagnostic
    with the engine (occupancy in hang dumps), reports credits to
    ``env.invariants`` (monotonicity / no-overshoot) and honors Tracker
    entry-table pressure faults from ``env.faults``.
    """

    def __init__(self, config: TrackerConfig, granularity: str = "wg",
                 strict_capacity: bool = False, env=None, gpu_id: int = 0):
        if granularity not in ("wg", "wf"):
            raise ValueError("granularity must be 'wg' or 'wf'")
        self.config = config
        self.granularity = granularity
        self.strict_capacity = strict_capacity
        self.env = env
        self.gpu_id = gpu_id
        self._sets: List[Dict[RegionKey, TrackerEntry]] = [
            {} for _ in range(config.n_entries)
        ]
        #: live-entry count maintained incrementally — ``live_regions`` is
        #: read on every obs gauge update and summing 256 sets there is a
        #: measurable fraction of profiled runs.
        self._live = 0
        self._on_complete: List[Callable[[RegionKey], None]] = []
        self.stats = TrackerStats()
        #: keys of regions a pressure fault evicted and nothing restored:
        #: their triggers can never fire (see :meth:`_force_evict`).
        self.evicted: List[RegionKey] = []
        #: issue time of the request currently being credited; lets the
        #: completing credit report trigger-fire latency (issue -> fire).
        self._crediting_issued_at: Optional[float] = None
        if env is not None:
            env.add_diagnostic(self._diagnostic)
            if env.invariants is not None:
                env.invariants.register_tracker(gpu_id, self)

    # -- configuration (driver-time) -------------------------------------------

    def add_completion_listener(self, fn: Callable[[RegionKey], None]) -> None:
        self._on_complete.append(fn)

    def program_region(self, wg_id: int, wf_id: int,
                       expected_bytes: float) -> None:
        """Allocate an entry for a region (done by the dma_map setup)."""
        expected = int(round(expected_bytes))
        if expected <= 0:
            raise ValueError("a tracked region must expect positive bytes")
        if self.env is not None and self.env.faults is not None \
                and self.env.faults.has_tracker_faults \
                and self.env.faults.tracker_eviction_due(self.gpu_id):
            self._force_evict()
        key = self._key(wg_id, wf_id)
        entry_set = self._set_for(wg_id)
        if key in entry_set:
            raise ValueError(f"region {key} programmed twice")
        if len(entry_set) >= self.config.ways:
            self.stats.overflow_events += 1
            if self.strict_capacity:
                raise RuntimeError(
                    f"Tracker set {wg_id % self.config.n_entries} exceeded "
                    f"{self.config.ways} ways — the producer stage is larger "
                    "than the Tracker was sized for"
                )
        entry_set[key] = TrackerEntry(key=key, expected_bytes=expected)
        self._live += 1
        self.stats.regions_programmed += 1
        self.stats.peak_ways_used = max(
            self.stats.peak_ways_used, len(entry_set))
        if self.env is not None and self.env.obs is not None:
            scope = self.env.obs.scope(self.gpu_id, "tracker")
            scope.count("regions_programmed")
            scope.gauge("live_regions").set(self.env.now, self.live_regions)
        self._feed_pressure()

    def _force_evict(self) -> None:
        """Entry-table pressure fault: drop the oldest live region.

        Its accumulated update counts are lost, so the region can never
        complete through the Tracker — downstream trigger blocks hang,
        which the engine watchdog / post-run quiescence checks surface."""
        victims = self.pending_regions()
        if not victims:
            return
        victim = victims[0]
        entry = self._set_for(victim[0]).pop(victim)
        self._live -= 1
        self.stats.forced_evictions += 1
        self.evicted.append(victim)
        if self.env is not None and self.env.faults is not None:
            self.env.faults.record_eviction(self.gpu_id, victim)
        if self.env is not None and self.env.resilience is not None:
            # Hand the victim (with its accumulated counts) to the
            # resilience runtime, which may restore the region with its
            # remaining bytes instead of letting the trigger hang.
            self.env.resilience.on_tracker_eviction(self, entry)

    def restore_region(self, key: RegionKey, remaining_bytes: int) -> None:
        """Re-program an evicted region for its *remaining* bytes.

        Recovery path only (resilience runtime): bypasses the pressure
        fault consultation — restoring must not itself trigger another
        eviction — and re-enters the entry directly so already-received
        bytes stay credited via the smaller expectation.
        """
        remaining = int(round(remaining_bytes))
        if remaining <= 0:
            raise ValueError("a restored region must expect positive bytes")
        entry_set = self._set_for(key[0])
        if key in entry_set:
            raise ValueError(f"region {key} is live; nothing to restore")
        entry_set[key] = TrackerEntry(key=key, expected_bytes=remaining)
        self._live += 1
        self.stats.regions_restored += 1
        if key in self.evicted:
            self.evicted.remove(key)
        self.stats.peak_ways_used = max(
            self.stats.peak_ways_used, len(entry_set))
        if self.env is not None and self.env.obs is not None:
            scope = self.env.obs.scope(self.gpu_id, "tracker")
            scope.count("regions_restored")
            scope.gauge("live_regions").set(self.env.now, self.live_regions)

    def is_tracked(self, wg_id: int, wf_id: int = -1) -> bool:
        return self._key(wg_id, wf_id) in self._set_for(wg_id)

    # -- runtime ----------------------------------------------------------------

    def observe(self, request: MemRequest) -> None:
        """Memory-controller hook: account a serviced write/update."""
        if request.kind is AccessKind.READ:
            return
        if request.wg_id is None:
            self.stats.untracked_updates += 1
            return
        self.stats.updates_observed += 1
        self._crediting_issued_at = request.issued_at
        if self.granularity == "wf" and request.wf_id is None:
            # A WG-granular store covers all of the WG's WF regions.
            self._spread_over_wfs(request)
            return
        wf = request.wf_id if self.granularity == "wf" else -1
        self._credit(request.wg_id, wf if wf is not None else -1,
                     request.nbytes)

    def _spread_over_wfs(self, request: MemRequest) -> None:
        entry_set = self._set_for(request.wg_id)
        wf_keys = sorted(key for key in entry_set if key[0] == request.wg_id)
        if not wf_keys:
            self.stats.untracked_updates += 1
            return
        # Exact integer split: no WF region may accumulate fractional
        # credit, or the sum would drift from the request's byte count.
        share, remainder = divmod(int(request.nbytes), len(wf_keys))
        for index, (_wg, wf) in enumerate(wf_keys):
            self._credit(request.wg_id, wf,
                         share + (1 if index < remainder else 0))

    def _credit(self, wg_id: int, wf_id: int, nbytes: float) -> None:
        # Whole bytes only: partial-byte credit must never tip a region
        # over its threshold (the float-epsilon early-fire bug).
        nbytes = int(nbytes)
        key = self._key(wg_id, wf_id)
        entry_set = self._set_for(wg_id)
        entry = entry_set.get(key)
        if entry is None:
            # Updates to unprogrammed regions (e.g. the chunk a GPU writes
            # remotely) are legal; they are simply not tracked here.
            self.stats.untracked_updates += 1
            return
        entry.received_bytes += nbytes
        if self.env is not None and self.env.invariants is not None:
            self.env.invariants.on_tracker_credit(self.gpu_id, entry, nbytes)
        if entry.complete:
            del entry_set[key]
            self._live -= 1
            self.stats.regions_completed += 1
            if self.env is not None and self.env.obs is not None:
                scope = self.env.obs.scope(self.gpu_id, "tracker")
                scope.count("regions_completed")
                if self._crediting_issued_at is not None:
                    # Latency from the region's last expected update being
                    # issued to the completion firing downstream triggers.
                    latency = self.env.now - self._crediting_issued_at
                    scope.observe("trigger_latency_ns", latency)
                    # Also a time series: exports as a Perfetto counter
                    # track, giving post-hoc trace analysis the full
                    # per-completion distribution (the ValueStats above
                    # only snapshots the aggregate).
                    scope.series("trigger_latency_ns").record(
                        self.env.now, latency)
                scope.gauge("live_regions").set(
                    self.env.now, self.live_regions)
            if self.env is not None and self.env.resilience is not None \
                    and self._crediting_issued_at is not None:
                self.env.resilience.observe_trigger_latency(
                    self.gpu_id, self.env.now - self._crediting_issued_at)
            self._feed_pressure()
            for fn in self._on_complete:
                fn(key)

    # -- helpers ---------------------------------------------------------------------

    def _feed_pressure(self) -> None:
        """Live-region occupancy as an overlap-policy pressure signal
        (purely observational: the policy may not schedule anything)."""
        env = self.env
        if env is not None and env.overlap is not None:
            env.overlap.observe_tracker_pressure(
                self.gpu_id, self._live,
                self.config.n_entries * self.config.ways)

    def _key(self, wg_id: int, wf_id: int) -> RegionKey:
        return (wg_id, wf_id if self.granularity == "wf" else -1)

    def _set_for(self, wg_id: int) -> Dict[RegionKey, TrackerEntry]:
        return self._sets[wg_id % self.config.n_entries]

    @property
    def live_regions(self) -> int:
        return self._live

    def pending_regions(self) -> List[RegionKey]:
        return sorted(key for s in self._sets for key in s)

    def _diagnostic(self) -> str:
        """One line of occupancy state for the engine's hang dump."""
        stats = self.stats
        pending = self.pending_regions()
        line = (f"gpu{self.gpu_id}.tracker: live={self.live_regions} "
                f"programmed={stats.regions_programmed} "
                f"completed={stats.regions_completed} "
                f"evicted={stats.forced_evictions}")
        for label, keys in (("pending", pending), ("evicted", self.evicted)):
            if keys:
                shown = ", ".join(map(str, keys[:5]))
                more = f" +{len(keys) - 5} more" if len(keys) > 5 else ""
                line += f"; {label} regions: {shown}{more}"
        return line
