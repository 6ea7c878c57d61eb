"""The Shared Cluster Cache (SCC).

One SCC serves all processors in a cluster (Section 2.1): it is a
direct-mapped, non-blocking data cache interleaved across
``4 x processors_per_cluster`` banks on cache-line boundaries, with a
dedicated port per processor and a cache-controller port for refills.

This class owns the per-cluster pieces -- the tag/state array, the bank
interconnect with its write buffers, in-flight fill tracking for the
non-blocking behaviour, and the per-SCC statistics.  The machine-wide
choreography (bus transactions, snooping the other SCCs) lives in
:mod:`repro.core.coherence`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .cache import make_array
from .config import SystemConfig
from .interconnect import BankInterconnect
from .stats import SccStats
from ..instrument.probes import NULL_PROBE

__all__ = ["SharedClusterCache"]


class SharedClusterCache:
    """Tag array + banks + write buffers for one cluster's shared cache."""

    __slots__ = ("config", "cluster_id", "array", "interconnect", "stats",
                 "probe", "_inflight", "_lost_lines")

    def __init__(self, config: SystemConfig, cluster_id: int,
                 probe=NULL_PROBE):
        self.config = config
        self.cluster_id = cluster_id
        self.probe = probe
        self.array = make_array(config.scc_lines, config.associativity)
        self.interconnect = BankInterconnect(
            num_banks=config.num_banks,
            bank_cycle_time=config.bank_cycle_time,
            write_buffer_depth=config.write_buffer_depth,
            probe=probe, cluster_id=cluster_id)
        self.stats = SccStats()
        # line -> cycle its fill completes; a second access to an in-flight
        # line merges with the outstanding fill (MSHR behaviour) instead of
        # issuing another bus transaction.
        self._inflight: Dict[int, int] = {}
        # Lines this SCC lost to remote invalidations; a later read miss to
        # one of these is a coherence ("invalidation") miss.
        self._lost_lines: Set[int] = set()

    # ------------------------------------------------------------------
    # Bank path
    # ------------------------------------------------------------------

    def bank_of_line(self, line: int) -> int:
        """Bank holding ``line`` (lines interleave across banks)."""
        return line % self.config.num_banks

    def claim_bank(self, line: int, now: int) -> Tuple[int, int]:
        """Arbitrate for the line's bank; returns ``(start, wait)``."""
        start, wait = self.interconnect.access(self.bank_of_line(line), now)
        self.stats.bank_conflict_cycles += wait
        return start, wait

    def buffer_write(self, line: int, now: int, retire_time: int) -> int:
        """Enter a store into the bank's write buffer; returns any stall."""
        stall = self.interconnect.reserve_write_slot(
            self.bank_of_line(line), now, retire_time)
        self.stats.write_buffer_stall_cycles += stall
        return stall

    # ------------------------------------------------------------------
    # Fill tracking (non-blocking cache)
    # ------------------------------------------------------------------

    def note_fill(self, line: int, ready: int) -> None:
        """Record that ``line`` is being filled and arrives at ``ready``."""
        self._inflight[line] = ready

    def fill_ready_time(self, line: int, now: int) -> Optional[int]:
        """If ``line`` is still in flight at ``now``, its arrival time.

        Completed fills are forgotten lazily; returns ``None`` when the
        line is not in flight (or already arrived).
        """
        ready = self._inflight.get(line)
        if ready is None:
            return None
        if ready <= now:
            del self._inflight[line]
            return None
        return ready

    def drop_inflight(self, line: int) -> None:
        """Forget an in-flight fill (the line was invalidated under it)."""
        self._inflight.pop(line, None)

    def inflight_lines(self) -> Tuple[int, ...]:
        """Lines with an outstanding fill (introspection for invariant
        checks; order unspecified)."""
        return tuple(self._inflight)

    def stale_inflight(self) -> Tuple[int, ...]:
        """In-flight entries that violate the fill-tracking invariant.

        Fills are installed in the array the moment their bus transaction
        is granted (``note_fill`` only times the data arrival), so every
        line with an outstanding fill must be resident under the same
        full line number.  An entry whose line is no longer resident is a
        leak: its stale ``fill_ready_time`` could later satisfy a miss to
        a *different* tag that maps to the same index.  The differential
        oracle checks this after every transaction.
        """
        contains = self.array.contains
        return tuple(line for line in self._inflight if not contains(line))

    def check_fill_tracking(self) -> None:
        """Raise ``AssertionError`` if :meth:`stale_inflight` finds a
        leak.  The native engine also runs this on an SCC that enters a
        run with fills outstanding: it keeps one fill per index, which is
        exact only while the invariant holds."""
        stale = self.stale_inflight()
        if stale:
            raise AssertionError(
                f"cluster {self.cluster_id} tracks in-flight "
                f"fills for non-resident lines {sorted(stale)} "
                f"(fill-tracking leak)")

    # ------------------------------------------------------------------
    # Coherence-loss tracking
    # ------------------------------------------------------------------

    def note_lost(self, line: int) -> None:
        """Mark ``line`` as stolen by a remote invalidation."""
        self._lost_lines.add(line)

    def consume_lost(self, line: int) -> bool:
        """True (once) if a miss to ``line`` is a coherence miss."""
        if line in self._lost_lines:
            self._lost_lines.remove(line)
            return True
        return False
