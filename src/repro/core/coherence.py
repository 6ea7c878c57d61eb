"""Snoopy write-invalidate coherence across the Shared Cluster Caches.

Section 2.2.2: "The SCCs are kept coherent with each other using an
invalidation-based scheme on a snoopy bus.  In this scheme a write to a
line in a particular SCC causes that line to be invalidated, if present, in
each of the other SCCs."  The fixed latency to fetch a line from main
memory *or from another SCC* is ``memory_latency`` (100) cycles.

The protocol is MSI over whole SCCs (processors inside a cluster share the
single copy, which is precisely the paper's argument for clustering); the
``protocol="mesi"`` configuration adds the Exclusive state, so a line no
other SCC holds installs clean-exclusive and later upgrades silently:

* **read miss** -- bus transaction; a remote MODIFIED copy is downgraded to
  SHARED (an intervention); the line installs SHARED.
* **write miss** -- bus transaction; every remote copy is invalidated; the
  line installs MODIFIED.
* **write hit on SHARED** -- an upgrade broadcast invalidates remote copies
  and moves the local copy to MODIFIED; no data moves, so it holds the bus
  only for ``upgrade_bus_occupancy`` cycles and the processor does not
  stall (the store sits in the write buffer).
* **write hit on MODIFIED / read hit** -- no bus traffic.

Dirty victims are written back to memory with a bus transaction whose
occupancy contends with other traffic but which no processor waits on.

The controller also enforces and exposes the machine-wide invariant the
test suite property-checks: a line MODIFIED in one SCC is INVALID in all
others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .bus import SnoopyBus
from .cache import (EXCLUSIVE, INVALID, MODIFIED, SHARED,
                    DirectMappedArray)
from .config import SystemConfig
from .scc import SharedClusterCache
from ..instrument.probes import NULL_PROBE

__all__ = ["AccessOutcome", "CoherenceController"]


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one data access as seen by the issuing processor.

    ``complete`` is when the processor may proceed; ``retire`` is when the
    access truly finished (for stores this can be later than ``complete``
    because the write buffer hides the miss).  ``hit`` is the tag-check
    outcome used for miss-rate statistics.
    """

    complete: int
    retire: int
    hit: bool
    bus_wait: int = 0
    invalidations: int = 0


class CoherenceController:
    """Protocol engine spanning all SCCs and the inter-cluster bus."""

    __slots__ = ("config", "sccs", "bus", "probe")

    def __init__(self, config: SystemConfig,
                 sccs: Sequence[SharedClusterCache], bus: SnoopyBus,
                 probe=NULL_PROBE):
        if len(sccs) != config.clusters:
            raise ValueError("one SCC per cluster required")
        self.config = config
        self.sccs = list(sccs)
        self.bus = bus
        self.probe = probe

    # ------------------------------------------------------------------
    # Data access entry point (bank already claimed by the caller)
    # ------------------------------------------------------------------

    def access(self, cluster: int, line: int, is_write: bool,
               start: int) -> AccessOutcome:
        """Perform the tag check and any protocol action for one access.

        ``start`` is the cycle the access reaches its bank (bank conflicts
        already resolved by the caller).  Statistics are recorded on the
        owning SCC; the caller turns the outcome into processor stall
        cycles and write-buffer occupancy.
        """
        scc = self.sccs[cluster]
        if is_write:
            return self.write_line(scc, line, start)
        return self.read_line(scc, line, start)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_line(self, scc: SharedClusterCache, line: int,
                  start: int) -> AccessOutcome:
        """Protocol action for one read reaching ``scc`` at ``start``.

        With :meth:`write_line` this is the contract of the native
        engine's miss path (``_native.c``, "coherence" section), which
        transcribes both over the same arrays, in-flight dicts, lost-line
        sets and bus clock and never calls in here: change one, change
        the other (the differential verifier diffs them).
        """
        scc.stats.reads += 1
        if scc.array.state(line) != INVALID:
            # Hit -- but a fill may still be in flight (another processor
            # in the cluster missed on this line moments ago); merge with
            # it rather than bypassing the memory system.
            scc.array.touch(line)
            ready = scc.fill_ready_time(line, start)
            done = (ready if ready is not None else start) + 1
            if self.probe is not NULL_PROBE:
                self.probe.cache_access(scc.cluster_id, line, False, True,
                                        start, done)
            return AccessOutcome(complete=done, retire=done, hit=True)

        scc.stats.read_misses += 1
        if scc.consume_lost(line):
            scc.stats.coherence_read_misses += 1
        tx = self.bus.acquire(start, self.config.bus_occupancy,
                              self.config.memory_latency)
        scc.stats.bus_wait_cycles += tx.wait
        shared_elsewhere = self._snoop_downgrade(scc, line)
        state = SHARED
        if self.config.protocol == "mesi" and not shared_elsewhere:
            # MESI: nobody else has it, so take it clean-exclusive and
            # earn a silent upgrade if we write it later.
            state = EXCLUSIVE
        self._install(scc, line, state, start=start, ready=tx.done)
        if self.probe is not NULL_PROBE:
            self.probe.cache_access(scc.cluster_id, line, False, False,
                                    start, tx.done + 1)
        return AccessOutcome(complete=tx.done + 1, retire=tx.done + 1,
                             hit=False, bus_wait=tx.wait)

    def _snoop_downgrade(self, requester: SharedClusterCache,
                         line: int) -> bool:
        """A read miss downgrades remote MODIFIED/EXCLUSIVE copies to
        SHARED; returns whether any remote SCC held the line."""
        held = False
        for other in self.sccs:
            if other is requester:
                continue
            state = other.array.state(line)
            if state == INVALID:
                continue
            held = True
            if state == MODIFIED:
                other.array.set_state(line, SHARED)
                requester.stats.interventions += 1
            elif state == EXCLUSIVE:
                other.array.set_state(line, SHARED)
        return held

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def write_line(self, scc: SharedClusterCache, line: int,
                   start: int) -> AccessOutcome:
        """Protocol action for one write reaching ``scc`` at ``start``
        (transcribed by the native engine, see :meth:`read_line`)."""
        scc.stats.writes += 1
        state = scc.array.state(line)
        if state == MODIFIED or state == EXCLUSIVE:
            # MODIFIED writes are silent; EXCLUSIVE ones transition to
            # MODIFIED without any bus traffic (the MESI silent upgrade).
            if state == EXCLUSIVE:
                scc.array.set_state(line, MODIFIED)
            scc.array.touch(line)
            ready = scc.fill_ready_time(line, start)
            done = (ready if ready is not None else start) + 1
            if self.probe is not NULL_PROBE:
                self.probe.cache_access(scc.cluster_id, line, True, True,
                                        start, done)
            return AccessOutcome(complete=done, retire=done, hit=True)

        if state == SHARED:
            # Upgrade: broadcast an invalidation; the store drains from the
            # write buffer, so the processor continues after one cycle.
            scc.array.touch(line)
            scc.stats.upgrades += 1
            tx = self.bus.acquire(start, self.config.upgrade_bus_occupancy,
                                  self.config.upgrade_bus_occupancy)
            killed = self._invalidate_remote(scc, line)
            scc.array.set_state(line, MODIFIED)
            if self.probe is not NULL_PROBE:
                self.probe.cache_access(scc.cluster_id, line, True, True,
                                        start, start + 1)
                self.probe.invalidation(scc.cluster_id, line, killed,
                                        tx.start)
            return AccessOutcome(complete=start + 1, retire=tx.done,
                                 hit=True, bus_wait=tx.wait,
                                 invalidations=killed)

        # Write miss: fetch the line with ownership.  The write buffer
        # hides the fetch from the processor.
        scc.stats.write_misses += 1
        scc.consume_lost(line)
        tx = self.bus.acquire(start, self.config.bus_occupancy,
                              self.config.memory_latency)
        scc.stats.bus_wait_cycles += tx.wait
        killed = self._invalidate_remote(scc, line)
        self._install(scc, line, MODIFIED, start=start, ready=tx.done)
        if self.probe is not NULL_PROBE:
            self.probe.cache_access(scc.cluster_id, line, True, False,
                                    start, tx.done)
            self.probe.invalidation(scc.cluster_id, line, killed, tx.start)
        return AccessOutcome(complete=start + 1, retire=tx.done, hit=False,
                             bus_wait=tx.wait, invalidations=killed)

    def _invalidate_remote(self, writer: SharedClusterCache,
                           line: int) -> int:
        """Invalidate ``line`` in every SCC but the writer's.

        Returns the number of copies actually invalidated -- the
        "invalidations actually performed" that Sections 3.1.1-3.1.3 track.
        """
        killed = 0
        for other in self.sccs:
            if other is writer:
                continue
            # Drop any fill tracking unconditionally: a fill whose line
            # is snatched away mid-flight leaves no resident copy for
            # ``invalidate`` to find, but its stale ``fill_ready_time``
            # entry could satisfy a later miss to a different tag that
            # maps to the same index.
            other.drop_inflight(line)
            if other.array.invalidate(line):
                other.note_lost(line)
                other.stats.invalidations_received += 1
                killed += 1
        writer.stats.invalidations_sent += killed
        return killed

    # ------------------------------------------------------------------
    # Fills and replacement
    # ------------------------------------------------------------------

    def _install(self, scc: SharedClusterCache, line: int, state: int,
                 start: int, ready: int) -> None:
        victim = scc.array.install(line, state)
        scc.note_fill(line, ready)
        if victim is not None:
            victim_line, victim_state = victim
            scc.drop_inflight(victim_line)
            scc.stats.evictions += 1
            if victim_state == MODIFIED:
                # The write-back rides right behind the fetch that evicted
                # it; it occupies the bus but nobody waits on it.  (It must
                # be issued at the *request* time, not the fill-completion
                # time: the bus arbiter serves requests in arrival order,
                # and a future-dated acquisition would stall every later
                # requester behind a phantom reservation.)
                scc.stats.writebacks += 1
                self.bus.acquire(start, self.config.bus_occupancy, 0)

    # ------------------------------------------------------------------
    # Invariants (used by tests and debug assertions)
    # ------------------------------------------------------------------

    def check_exclusivity(self) -> Optional[int]:
        """Return a line violating MODIFIED-exclusivity, or ``None``.

        The invariant: a line MODIFIED in some SCC must be INVALID in every
        other SCC (SHARED copies may coexist freely).  Of several, the
        first sighted -- SCC by SCC, in ``resident_lines`` order -- is
        returned.  Direct-mapped SCCs of one geometry keep a line at the
        same index in every SCC, so their tag and state arrays are
        compared index by index; anything else takes
        :meth:`exclusivity_walk`.
        """
        arrays = [scc.array for scc in self.sccs]
        if (all(type(array) is DirectMappedArray for array in arrays)
                and len({array.num_lines for array in arrays}) == 1):
            return _direct_mapped_violator(arrays)
        return self.exclusivity_walk()

    def exclusivity_walk(self) -> Optional[int]:
        """:meth:`check_exclusivity` for any tag array: every resident
        line of every SCC, counted."""
        held: dict = {}     # line -> copies, a set-associative SCC's each
        owned: dict = {}    # MODIFIED/EXCLUSIVE lines, in order of sighting
        for scc in self.sccs:
            for line, state in scc.array.resident_lines():
                held[line] = held.get(line, 0) + 1
                if state in (MODIFIED, EXCLUSIVE):
                    owned[line] = None
        for line in owned:
            if held[line] > 1:
                return line
        return None


def _direct_mapped_violator(arrays) -> Optional[int]:
    """:meth:`CoherenceController.check_exclusivity` over direct-mapped
    arrays of one size, on numpy views of their ``array('q')`` storage.

    A line is at the same index in every array, and at most once in each,
    so it is held elsewhere exactly when another array holds its tag,
    valid, at its index.  The first owner, in (array, index) order, that
    is held elsewhere is the walk's first violator: had its line been
    owned in an earlier array, that owner would have been held elsewhere
    too, and come first.
    """
    if len(arrays) < 2:
        return None     # a line cannot be held twice in one array
    import numpy as np
    states = [np.frombuffer(array._states, dtype=np.int64)
              for array in arrays]
    tags = [np.frombuffer(array._tags, dtype=np.int64) for array in arrays]
    valid = [state != INVALID for state in states]
    elsewhere = [np.zeros(len(state), dtype=bool) for state in states]
    for a in range(len(arrays)):
        for b in range(a + 1, len(arrays)):
            both = valid[a] & valid[b] & (tags[a] == tags[b])
            elsewhere[a] |= both
            elsewhere[b] |= both
    for a, state in enumerate(states):
        owners = np.flatnonzero(
            elsewhere[a] & ((state == MODIFIED) | (state == EXCLUSIVE)))
        if len(owners):
            index = int(owners[0])
            return int(tags[a][index]) * arrays[a].num_lines + index
    return None
