"""Processor-cache interconnection network and bank arbitration.

Within a cluster, each processor has a dedicated port into the SCC through
a crossbar ICN (Section 2.1, Figure 1).  The crossbar itself is conflict
free -- contention happens at the *banks*: each bank can start one access
per ``bank_cycle_time`` cycles, and simultaneous requests from different
ports to the same bank serialize.  The paper addresses "the issue of
contention at the shared cache by considering contention on each individual
bank within the SCC" (Section 2.2.2); :class:`BankInterconnect` is exactly
that model.

The SRAM blocks also contain a write buffer (Section 4.3).  Stores retire
in the background; a processor only stalls when its target bank's buffer is
full, which :meth:`BankInterconnect.reserve_write_slot` models.
"""

from __future__ import annotations

import heapq
from array import array
from typing import List, Tuple

from ..instrument.probes import NULL_PROBE

__all__ = ["BankInterconnect"]


class BankInterconnect:
    """Per-bank busy tracking and write-buffer occupancy for one SCC."""

    __slots__ = ("num_banks", "bank_cycle_time", "write_buffer_depth",
                 "_bank_free", "_write_buffers", "conflict_cycles",
                 "write_stall_cycles", "probe", "cluster_id")

    def __init__(self, num_banks: int, bank_cycle_time: int = 1,
                 write_buffer_depth: int = 4, probe=NULL_PROBE,
                 cluster_id: int = 0):
        if num_banks < 1:
            raise ValueError("need at least one bank")
        if bank_cycle_time < 1:
            raise ValueError("bank_cycle_time must be >= 1")
        if write_buffer_depth < 1:
            raise ValueError("write_buffer_depth must be >= 1")
        self.num_banks = num_banks
        self.bank_cycle_time = bank_cycle_time
        self.write_buffer_depth = write_buffer_depth
        # ``array('q')`` so the compiled replay backends can address the
        # bank-free table through the buffer protocol (see repro.trace.engine).
        self._bank_free = array("q", bytes(8 * num_banks))
        # Min-heaps of retire times for stores still draining, per bank.
        self._write_buffers: List[List[int]] = [[] for _ in range(num_banks)]
        self.conflict_cycles = 0
        self.write_stall_cycles = 0
        self.probe = probe
        self.cluster_id = cluster_id

    def access(self, bank: int, now: int) -> Tuple[int, int]:
        """Claim ``bank`` for one access at the earliest time >= ``now``.

        Returns ``(start, wait)`` where ``wait = start - now`` is the bank
        conflict delay the requesting processor observes.
        """
        free = self._bank_free[bank]
        start = free if free > now else now
        self._bank_free[bank] = start + self.bank_cycle_time
        wait = start - now
        self.conflict_cycles += wait
        probe = self.probe
        if probe is not NULL_PROBE:
            probe.bank_access(self.cluster_id, bank, now, start, wait)
        return start, wait

    def reserve_write_slot(self, bank: int, now: int, retire_time: int) -> int:
        """Place a store in ``bank``'s write buffer.

        The store occupies a buffer entry until ``retire_time`` (when its
        miss or upgrade completes; hits retire immediately).  Returns the
        stall the processor suffers: zero unless all
        ``write_buffer_depth`` entries are still draining at ``now``, in
        which case the processor waits for the oldest entry to retire.
        """
        buffer = self._write_buffers[bank]
        while buffer and buffer[0] <= now:
            heapq.heappop(buffer)
        stall = 0
        if len(buffer) >= self.write_buffer_depth:
            # Wait until the oldest outstanding store drains.
            oldest = heapq.heappop(buffer)
            stall = max(0, oldest - now)
            self.write_stall_cycles += stall
        heapq.heappush(buffer, max(retire_time, now + stall))
        probe = self.probe
        if probe is not NULL_PROBE:
            probe.write_buffer(self.cluster_id, bank, now, len(buffer),
                               stall)
        return stall

    def pending_writes(self, bank: int, now: int) -> int:
        """Stores still draining from ``bank``'s buffer at ``now``."""
        return sum(1 for t in self._write_buffers[bank] if t > now)

    def buffered_writes(self, bank: int) -> int:
        """Entries currently held in ``bank``'s buffer, drained or not.

        ``reserve_write_slot`` evicts lazily, so this may count retired
        stores -- but it can never exceed ``write_buffer_depth``, which
        is the invariant the differential oracle checks.
        """
        return len(self._write_buffers[bank])
