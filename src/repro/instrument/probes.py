"""Probe API: what the simulator's hot paths emit events into.

Design contract (this is the zero-overhead-when-disabled rule):

* every instrumented component holds a ``probe`` attribute, defaulting
  to the module-level :data:`NULL_PROBE` singleton;
* hot loops guard each emission with ``if probe is not NULL_PROBE`` --
  one attribute load and one identity test, no call, when profiling is
  off (measured < 1% on the quick Barnes-Hut run);
* the probe is duck-typed: anything implementing the ``NullProbe``
  method surface can be plugged in, and :class:`InstrumentationProbe`
  is the standard implementation, which bins each event into a
  :class:`~repro.instrument.timeline.Timeline` named by the hardware it
  describes and keeps a bounded
  :class:`~repro.instrument.sampling.EventLog`;
* a probe is always *called*: any probe keeps a run on the per-event
  reference loop (:class:`~repro.trace.interleave.TimingInterleaver`),
  whose :mod:`repro.core` objects make these calls -- so the callbacks
  below are the one implementation of what a probe records.

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

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .sampling import EventLog
from .timeline import Timeline

__all__ = ["NullProbe", "NULL_PROBE", "InstrumentationProbe"]


class NullProbe:
    """The do-nothing probe every component starts with.

    Kept callable (not just a sentinel) so code outside the guarded hot
    loops may emit unconditionally; each method is a no-op.
    """

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
    """Collects probe events into counters, timelines, and an event log.

    The series are attributes keyed by the hardware they describe:

    * ``bus_occupancy`` / ``bus_wait`` / ``bus_invalidations`` -- the
      inter-cluster bus's busy cycles, grant waits and killed copies;
    * ``bank_conflict[(cluster, bank)]`` -- conflict-wait cycles;
    * ``write_buffer_depth[cluster]`` -- high-water depth (``max`` mode);
    * ``proc[(proc, kind)]`` -- busy/memory/sync/... cycles per
      processor, the breakdown of Figure 2's discussion.

    ``counters`` holds the event counts.  ``bin_width`` sets timeline
    resolution in cycles; every series shares it, before and after
    :meth:`rebin`.  ``record_events`` keeps raw event records (bounded
    by ``max_events`` via deterministic decimation) for slice-level
    Chrome-trace export; disable it for cheap summary-only
    instrumentation (``python -m repro profile`` without
    ``--trace-out``).  Either way the run is the per-event reference
    loop's: every callback is a call.
    """

    def __init__(self, bin_width: int = 1024, record_events: bool = True,
                 max_events: int = 100_000):
        self.bin_width = bin_width
        self.counters: Counter = Counter()
        self.bus_occupancy = Timeline(bin_width)
        self.bus_wait = Timeline(bin_width)
        self.bus_invalidations = Timeline(bin_width)
        self.bank_conflict: Dict[Tuple[int, int], Timeline] = {}
        self.write_buffer_depth: Dict[int, Timeline] = {}
        self.proc: Dict[Tuple[int, str], Timeline] = {}
        self.events: Optional[EventLog] = (
            EventLog(max_events) if record_events else None)
        self.execution_time = 0

    # ------------------------------------------------------------------
    # Probe callbacks
    # ------------------------------------------------------------------

    def bus_acquire(self, bus: str, now: int, start: int,
                    occupancy: int) -> None:
        self.bus_occupancy.add_span(start, start + occupancy)
        if start > now:
            self.bus_wait.add_span(now, start)
        counters = self.counters
        counters["bus_transactions"] += 1
        counters["bus_busy_cycles"] += occupancy
        counters["bus_wait_cycles"] += start - now
        if self.events is not None:
            self.events.append(("bus", start, occupancy, start - now, bus))

    def bank_access(self, cluster: int, bank: int, now: int, start: int,
                    wait: int) -> None:
        self.counters["bank_accesses"] += 1
        if not wait:
            return
        self._series(self.bank_conflict, (cluster, bank)).add_span(
            now, start)
        self.counters["bank_conflict_events"] += 1
        if self.events is not None:
            self.events.append(("bank", now, wait, cluster, bank))

    def write_buffer(self, cluster: int, bank: int, now: int, depth: int,
                     stall: int) -> None:
        self._series(self.write_buffer_depth, cluster, "max").add_sample(
            now, depth)
        if stall:
            self.counters["write_buffer_stalls"] += 1
            self.counters["write_buffer_stall_cycles"] += stall
            if self.events is not None:
                self.events.append(("wb", now, stall, cluster, bank, depth))

    def cache_access(self, cluster: int, line: int, is_write: bool,
                     hit: bool, start: int, complete: int) -> None:
        if hit:
            self.counters["cache_hits"] += 1
            return
        self.counters["cache_misses"] += 1
        if self.events is not None:
            self.events.append(("miss", start, complete - start, cluster,
                                line, is_write))

    def invalidation(self, cluster: int, line: int, copies: int,
                     now: int) -> None:
        if not copies:
            return
        self.counters["invalidations"] += copies
        self.bus_invalidations.add_at(now, copies)
        if self.events is not None:
            self.events.append(("inval", now, 0, cluster, line, copies))

    def proc_busy(self, proc: int, start: int, cycles: int) -> None:
        if cycles:
            self._series(self.proc, (proc, "busy")).add_span(
                start, start + cycles)

    def proc_stall(self, proc: int, kind: str, start: int,
                   end: int) -> None:
        if end <= start:
            return
        self._series(self.proc, (proc, kind)).add_span(start, end)
        if self.events is not None:
            self.events.append(("proc", start, end - start, proc, kind))

    def _series(self, series: Dict, key, mode: str = "sum") -> Timeline:
        """``series[key]``, created at the probe's bin width."""
        timeline = series.get(key)
        if timeline is None:
            timeline = series[key] = Timeline(self.bin_width, mode=mode)
        return timeline

    # ------------------------------------------------------------------
    # Post-run API
    # ------------------------------------------------------------------

    def finalize(self, execution_time: int) -> None:
        """Stamp the run's horizon (called by ``run_simulation``)."""
        self.execution_time = execution_time
        self.counters["execution_time"] += execution_time

    def rebin(self, n_bins: int) -> None:
        """Collapse every timeline to at most ``n_bins`` bins by one
        factor -- the longest series' -- so all of them keep one
        ``bin_width`` and bin ``i`` of each covers the same cycles."""
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        longest = max(len(timeline) for timeline in self._timelines())
        factor = max(1, -(-longest // n_bins))
        self.bin_width *= factor
        self.bus_occupancy = self.bus_occupancy.coarsened(factor)
        self.bus_wait = self.bus_wait.coarsened(factor)
        self.bus_invalidations = self.bus_invalidations.coarsened(factor)
        for series in (self.bank_conflict, self.write_buffer_depth,
                       self.proc):
            for key, timeline in series.items():
                series[key] = timeline.coarsened(factor)

    def _timelines(self) -> List[Timeline]:
        return [self.bus_occupancy, self.bus_wait, self.bus_invalidations,
                *self.bank_conflict.values(),
                *self.write_buffer_depth.values(), *self.proc.values()]

    def bus_utilization(self) -> List[float]:
        """Per-bin inter-cluster bus occupancy as a 0..1 fraction."""
        return self.bus_occupancy.utilization_series()

    def peak_bus_utilization(self) -> float:
        """Highest per-bin bus occupancy fraction over the run."""
        return self.bus_occupancy.peak() / self.bus_occupancy.bin_width

    def summary(self) -> Dict[str, float]:
        """Flat JSON-safe digest: every counter plus headline timeline
        statistics (peak/mean bus utilization, total conflict cycles,
        write-buffer high-water) -- what ``python -m repro profile``
        prints."""
        digest: Dict[str, float] = dict(self.counters)
        bus = self.bus_occupancy
        digest["bus_peak_utilization"] = bus.peak() / bus.bin_width
        digest["bus_mean_utilization"] = bus.mean() / bus.bin_width
        if self.bank_conflict:
            digest["bank_conflict_cycles"] = sum(
                timeline.total() for timeline in self.bank_conflict.values())
        if self.write_buffer_depth:
            digest["write_buffer_peak_depth"] = max(
                timeline.peak()
                for timeline in self.write_buffer_depth.values())
        digest["execution_time"] = self.execution_time
        if self.events is not None:
            digest["events_recorded"] = len(self.events)
            digest["events_dropped"] = self.events.dropped
        return digest
