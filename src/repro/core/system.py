"""The whole machine: clusters, snoopy bus, coherence, and accounting.

:class:`MultiprocessorSystem` is the memory-side half of the simulator.
The trace interleaver (:mod:`repro.trace.interleave`) owns process control
flow and synchronization; it calls into this class for every memory event
and for cycle accounting, and reads the final statistics out of it.

All methods take and return absolute simulated cycle counts, so the system
itself is clockless -- time advances only because callers pass later
timestamps.  (Accesses may arrive slightly out of global order when two
processors race; the bank and bus models use ``max(now, busy_until)`` so
the resulting schedules stay causally consistent.)
"""

from __future__ import annotations

from typing import List, Optional

from .bus import SnoopyBus
from .cluster import Cluster
from .coherence import AccessOutcome, CoherenceController
from .config import SystemConfig
from .directory import DirectoryController
from .stats import SystemStats
from ..instrument.probes import NULL_PROBE

__all__ = ["MultiprocessorSystem"]


class MultiprocessorSystem:
    """Clustered shared-cache multiprocessor memory system.

    ``instrumentation`` (an
    :class:`~repro.instrument.probes.InstrumentationProbe`, or anything
    duck-typed like one) is threaded into every component that models a
    contended resource; by default they all carry the no-op
    :data:`~repro.instrument.probes.NULL_PROBE` and pay one identity
    test per event.
    """

    def __init__(self, config: SystemConfig, instrumentation=None):
        self.config = config
        probe = instrumentation if instrumentation is not None \
            else NULL_PROBE
        self.probe = probe
        self.clusters: List[Cluster] = [
            Cluster(config, c, probe=probe) for c in range(config.clusters)
        ]
        self.bus = SnoopyBus(probe=probe, name="inter-cluster")
        sccs = [cluster.scc for cluster in self.clusters]
        if config.inter_cluster == "directory":
            # Point-to-point transport for data; the bus object remains
            # only for instruction-cache refills.
            self.coherence = DirectoryController(config, sccs)
        else:
            self.coherence = CoherenceController(config, sccs, self.bus,
                                                 probe=probe)
        self._procs = [
            proc for cluster in self.clusters for proc in cluster.processors
        ]
        # data_access is the hottest method in the simulator; resolve the
        # per-processor routing and the scalar config fields once.
        self._proc_cluster = [config.cluster_of(p)
                              for p in range(config.total_processors)]
        self._proc_scc = [self.clusters[c].scc for c in self._proc_cluster]
        self._line_shift = config.line_offset_bits
        self._stall_on_writes = config.stall_on_writes

    # ------------------------------------------------------------------
    # Memory events
    # ------------------------------------------------------------------

    def data_access(self, proc: int, addr: int, is_write: bool,
                    now: int) -> int:
        """Issue a load or store; returns when the processor may continue.

        The path is: claim the line's SCC bank (possibly waiting out a bank
        conflict), run the coherence protocol, then for stores reserve a
        write-buffer slot (stalling only if the buffer is full).  Loads
        stall for the full miss latency; stores retire in the background.
        """
        cluster_id = self._proc_cluster[proc]
        scc = self._proc_scc[proc]
        line = addr >> self._line_shift
        start, _wait = scc.claim_bank(line, now)
        outcome: AccessOutcome = self.coherence.access(
            cluster_id, line, is_write, start)
        complete = outcome.complete
        if is_write:
            if self._stall_on_writes:
                # Sequential consistency without buffering: the store
                # holds the processor until it is globally performed.
                complete = max(complete, outcome.retire)
            else:
                stall = scc.buffer_write(line, complete, outcome.retire)
                complete += stall
        self._procs[proc].account_reference(now, complete)
        return complete

    def ifetch(self, proc: int, addr: int, count: int, now: int) -> int:
        """Fetch and execute ``count`` sequential instructions.

        Costs one cycle per instruction; with ``model_icache`` enabled,
        each instruction-cache line miss adds ``icache_miss_latency``
        cycles and an inter-cluster bus transaction (refills share the bus
        with SCC traffic).
        """
        cluster_id = self.config.cluster_of(proc)
        port = self.config.port_of(proc)
        stall = 0
        if self.config.model_icache:
            icache = self.clusters[cluster_id].icaches[port]
            misses = icache.fetch(addr, count)
            for _ in range(misses):
                tx = self.bus.acquire(now + stall, self.config.bus_occupancy,
                                      self.config.icache_miss_latency)
                stall = tx.done - now
        self._procs[proc].account_ifetch(count, stall, now=now)
        return now + count + stall

    # ------------------------------------------------------------------
    # Non-memory accounting (called by the interleaver)
    # ------------------------------------------------------------------

    def account_compute(self, proc: int, cycles: int,
                        now: Optional[int] = None) -> None:
        """Record straight-line execution for ``proc`` (``now``, when
        the caller knows it, timestamps the instrumentation span)."""
        self._procs[proc].account_compute(cycles, now=now)

    def account_sync(self, proc: int, cycles: int,
                     start: Optional[int] = None) -> None:
        """Record synchronization stall for ``proc`` beginning at
        ``start`` (``None`` when the caller has no timestamp)."""
        self._procs[proc].account_sync_stall(cycles, start=start)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def stats(self, execution_time: int = 0) -> SystemStats:
        """Snapshot all counters into a :class:`SystemStats`."""
        stats = SystemStats(
            scc=[cluster.scc.stats for cluster in self.clusters],
            processors=[proc.stats for proc in self._procs],
            execution_time=execution_time,
        )
        stats.icache_misses = sum(
            icache.misses
            for cluster in self.clusters for icache in cluster.icaches)
        stats.icache_fetch_lines = sum(
            icache.fetch_lines
            for cluster in self.clusters for icache in cluster.icaches)
        return stats

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any coherence invariant violation."""
        for cluster in self.clusters:
            cluster.scc.check_fill_tracking()
        if isinstance(self.coherence, DirectoryController):
            self.coherence.check_consistency()
            return
        bad_line = self.coherence.check_exclusivity()
        if bad_line is not None:
            raise AssertionError(
                f"line {bad_line:#x} is MODIFIED in one SCC but still "
                f"resident elsewhere")
