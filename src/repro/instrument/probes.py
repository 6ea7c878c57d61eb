"""Probe API: what the simulator's hot paths emit events into.

Design contract (this is the zero-overhead-when-disabled rule):

* every instrumented component holds a ``probe`` attribute, defaulting
  to the module-level :data:`NULL_PROBE` singleton;
* hot loops guard each emission with ``if probe is not NULL_PROBE`` --
  one attribute load and one identity test, no call, when profiling is
  off (measured < 1% on the quick Barnes-Hut run);
* the probe is duck-typed: anything implementing the ``NullProbe``
  method surface can be plugged in, and :class:`InstrumentationProbe`
  is the standard implementation that feeds a
  :class:`~repro.instrument.registry.MetricsRegistry` and a bounded
  :class:`~repro.instrument.sampling.EventLog`;
* the standard implementation -- exactly that class, with
  ``record_events=False`` -- may also be *told* instead of called: the
  native engine (:mod:`repro.trace.engine.native`) bins what these
  callbacks would have recorded for the events it executes and hands
  the totals to :meth:`InstrumentationProbe.absorb` once, after the
  run, leaving the registry the calls would have.  A change to what a
  callback below records is therefore made twice, here and in the
  "metrics" section of ``_native.c``; the differential verifier's
  ``instrumented`` engine diffs every counter and bin.  Subclasses,
  duck-typed probes and the event log are always called.

Event vocabulary (one method per hardware phenomenon):

=================  ====================================================
``bus_acquire``    a :class:`~repro.core.bus.SnoopyBus` grant
``bank_access``    one SCC bank claim (conflict wait included)
``write_buffer``   a store entering a bank's write buffer
``cache_access``   tag-check outcome of one data reference
``invalidation``   remote copies killed by one write
``proc_busy``      straight-line execution span of one processor
``proc_stall``     a memory/sync/icache stall span of one processor
=================  ====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .registry import MetricsRegistry
from .sampling import EventLog
from .timeline import Timeline

__all__ = ["NullProbe", "NULL_PROBE", "InstrumentationProbe"]


class NullProbe:
    """The do-nothing probe every component starts with.

    Kept callable (not just a sentinel) so code outside the guarded hot
    loops may emit unconditionally; each method is a no-op.
    """

    enabled = False

    def bus_acquire(self, bus: str, now: int, start: int,
                    occupancy: int) -> None:
        pass

    def bank_access(self, cluster: int, bank: int, now: int, start: int,
                    wait: int) -> None:
        pass

    def write_buffer(self, cluster: int, bank: int, now: int, depth: int,
                     stall: int) -> None:
        pass

    def cache_access(self, cluster: int, line: int, is_write: bool,
                     hit: bool, start: int, complete: int) -> None:
        pass

    def invalidation(self, cluster: int, line: int, copies: int,
                     now: int) -> None:
        pass

    def proc_busy(self, proc: int, start: int, cycles: int) -> None:
        pass

    def proc_stall(self, proc: int, kind: str, start: int,
                   end: int) -> None:
        pass


NULL_PROBE = NullProbe()
"""Shared no-op probe; hot paths compare against it by identity."""


class InstrumentationProbe(NullProbe):
    """Collects probe events into timelines, counters, and an event log.

    ``bin_width`` sets timeline resolution in cycles.  ``record_events``
    keeps raw event records (bounded by ``max_events`` via deterministic
    decimation) for slice-level Chrome-trace export; disable it for
    cheap summary-only instrumentation (what sweep caching uses) --
    the log needs every event as a call, so keeping one keeps the run
    on the per-event reference loop.
    """

    enabled = True

    def __init__(self, bin_width: int = 1024, record_events: bool = True,
                 max_events: int = 100_000):
        self.registry = MetricsRegistry(bin_width)
        self.events: Optional[EventLog] = (
            EventLog(max_events) if record_events else None)
        self.execution_time = 0
        # Per-id timeline handles, cached so the enabled hot path pays a
        # tuple-keyed dict hit instead of a string format per event.
        self._bus_occupancy = self.registry.timeline("bus.occupancy")
        self._bus_wait = self.registry.timeline("bus.wait")
        self._bus_invalidations = self.registry.timeline("bus.invalidations")
        self._bank_conflict: Dict[Tuple[int, int], Timeline] = {}
        self._wb_depth: Dict[int, Timeline] = {}
        self._proc_tl: Dict[Tuple[int, str], Timeline] = {}

    # ------------------------------------------------------------------
    # Probe callbacks
    # ------------------------------------------------------------------

    def bus_acquire(self, bus: str, now: int, start: int,
                    occupancy: int) -> None:
        self._bus_occupancy.add_span(start, start + occupancy)
        if start > now:
            self._bus_wait.add_span(now, start)
        registry = self.registry
        registry.count("bus_transactions")
        registry.count("bus_busy_cycles", occupancy)
        registry.count("bus_wait_cycles", start - now)
        if self.events is not None:
            self.events.append(("bus", start, occupancy, start - now, bus))

    def bank_access(self, cluster: int, bank: int, now: int, start: int,
                    wait: int) -> None:
        self.registry.count("bank_accesses")
        if not wait:
            return
        self._conflict_timeline(cluster, bank).add_span(now, start)
        self.registry.count("bank_conflict_events")
        if self.events is not None:
            self.events.append(("bank", now, wait, cluster, bank))

    def write_buffer(self, cluster: int, bank: int, now: int, depth: int,
                     stall: int) -> None:
        self._wb_timeline(cluster).add_sample(now, depth)
        if stall:
            self.registry.count("write_buffer_stalls")
            self.registry.count("write_buffer_stall_cycles", stall)
            if self.events is not None:
                self.events.append(("wb", now, stall, cluster, bank, depth))

    def cache_access(self, cluster: int, line: int, is_write: bool,
                     hit: bool, start: int, complete: int) -> None:
        registry = self.registry
        if hit:
            registry.count("cache_hits")
            return
        registry.count("cache_misses")
        if self.events is not None:
            self.events.append(("miss", start, complete - start, cluster,
                                line, is_write))

    def invalidation(self, cluster: int, line: int, copies: int,
                     now: int) -> None:
        if not copies:
            return
        self.registry.count("invalidations", copies)
        self._bus_invalidations.add_at(now, copies)
        if self.events is not None:
            self.events.append(("inval", now, 0, cluster, line, copies))

    def proc_busy(self, proc: int, start: int, cycles: int) -> None:
        if cycles:
            self._proc_timeline(proc, "busy").add_span(start, start + cycles)

    def proc_stall(self, proc: int, kind: str, start: int,
                   end: int) -> None:
        if end <= start:
            return
        self._proc_timeline(proc, kind).add_span(start, end)
        if self.events is not None:
            self.events.append(("proc", start, end - start, proc, kind))

    def _conflict_timeline(self, cluster: int, bank: int) -> Timeline:
        key = (cluster, bank)
        timeline = self._bank_conflict.get(key)
        if timeline is None:
            timeline = self.registry.timeline(
                f"cluster{cluster}.bank{bank}.conflict")
            self._bank_conflict[key] = timeline
        return timeline

    def _wb_timeline(self, cluster: int) -> Timeline:
        timeline = self._wb_depth.get(cluster)
        if timeline is None:
            timeline = self.registry.timeline(
                f"cluster{cluster}.write_buffer", mode="max")
            self._wb_depth[cluster] = timeline
        return timeline

    def _proc_timeline(self, proc: int, kind: str) -> Timeline:
        key = (proc, kind)
        timeline = self._proc_tl.get(key)
        if timeline is None:
            timeline = self.registry.timeline(f"proc{proc}.{kind}")
            self._proc_tl[key] = timeline
        return timeline

    # ------------------------------------------------------------------
    # Bulk intake (the native engine)
    # ------------------------------------------------------------------

    def absorb(self, counts: Dict[str, int], bus, bank_conflict,
               write_buffer, busy, memory, sync) -> None:
        """Fold in what an engine recorded on this probe's behalf --
        the callbacks above, pre-binned at ``registry.bin_width`` --
        leaving the registry as the callbacks themselves would have.

        ``counts`` maps counter names to totals.  The rest are integer
        bin series, empty where nothing was recorded: ``bus`` is
        (occupancy, wait, invalidations), ``bank_conflict`` is indexed
        ``[cluster][bank]``, ``write_buffer`` by cluster, ``busy``,
        ``memory`` and ``sync`` by processor.  A counter or timeline nothing touched
        is not created, sums add and high-water marks max, so the
        result does not depend on what the callbacks recorded before,
        or on the order of the merge.
        """
        count = self.registry.count
        if counts.get("bus_transactions"):
            # ``bus_acquire`` counts all three per grant, zeros included
            count("bus_busy_cycles", 0)
            count("bus_wait_cycles", 0)
        for name, amount in counts.items():
            if amount:
                count(name, amount)
        for timeline, bins in zip((self._bus_occupancy, self._bus_wait,
                                   self._bus_invalidations), bus):
            timeline.absorb(bins)
        for cluster, banks in enumerate(bank_conflict):
            for bank, bins in enumerate(banks):
                if len(bins):
                    self._conflict_timeline(cluster, bank).absorb(bins)
        for cluster, bins in enumerate(write_buffer):
            if len(bins):
                self._wb_timeline(cluster).absorb(bins)
        for kind, series in (("busy", busy), ("memory", memory),
                             ("sync", sync)):
            for proc, bins in enumerate(series):
                if len(bins):
                    self._proc_timeline(proc, kind).absorb(bins)

    # ------------------------------------------------------------------
    # Post-run API
    # ------------------------------------------------------------------

    def finalize(self, execution_time: int) -> None:
        """Stamp the run's horizon (called by ``run_simulation``)."""
        self.execution_time = execution_time
        self.registry.count("execution_time", execution_time)

    def rebin(self, n_bins: int) -> None:
        """Collapse all timelines to at most ``n_bins`` bins."""
        self.registry.rebin_all(n_bins)
        # Cached handles went stale; re-resolve lazily on next use.
        self._bus_occupancy = self.registry.timeline("bus.occupancy")
        self._bus_wait = self.registry.timeline("bus.wait")
        self._bus_invalidations = self.registry.timeline("bus.invalidations")
        self._bank_conflict.clear()
        self._wb_depth.clear()
        self._proc_tl.clear()

    def bus_utilization(self) -> List[float]:
        """Per-bin inter-cluster bus occupancy as a 0..1 fraction."""
        return self._resolved_bus().utilization_series()

    def peak_bus_utilization(self) -> float:
        """Highest per-bin bus occupancy fraction over the run."""
        timeline = self._resolved_bus()
        return timeline.peak() / timeline.bin_width

    def _resolved_bus(self) -> Timeline:
        return self.registry.timeline("bus.occupancy")

    def summary(self) -> Dict[str, float]:
        """Flat JSON-safe digest (what sweep caches persist)."""
        digest = self.registry.summary()
        digest["execution_time"] = self.execution_time
        if self.events is not None:
            digest["events_recorded"] = len(self.events)
            digest["events_dropped"] = self.events.dropped
        return digest
