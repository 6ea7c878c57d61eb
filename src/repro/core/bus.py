"""The inter-cluster snoopy bus.

Section 2.2.2 fixes the latency to fetch a line from main memory or a
remote SCC at 100 processor cycles.  The bus itself, however, is a shared
serial resource: when several SCCs miss at once their transactions queue.
We model that with a single busy-until timestamp -- a transaction issued at
``t`` starts at ``max(t, busy_until)``, holds the bus for its occupancy,
and the requester sees ``start - t`` extra wait on top of the fixed fetch
latency.  This queueing is what lets bus saturation emerge for
invalidation-heavy workloads (MP3D, Section 3.1.2).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..instrument.probes import NULL_PROBE

__all__ = ["BusTransaction", "SnoopyBus"]


@dataclass(frozen=True)
class BusTransaction:
    """Outcome of one bus transaction.

    ``start`` is when the bus was granted, ``wait`` the queueing delay
    before the grant, and ``done`` when the requester's transfer (data or
    broadcast) completed.
    """

    start: int
    wait: int
    done: int


def _clock_field(index: int, doc: str) -> property:
    """A :class:`SnoopyBus` attribute stored in its ``_clock`` array."""
    def fget(self) -> int:
        return self._clock[index]

    def fset(self, value: int) -> None:
        self._clock[index] = value

    return property(fget, fset, doc=doc)


class SnoopyBus:
    """Single shared split-transaction bus with FCFS arbitration."""

    __slots__ = ("_clock", "probe", "name")

    def __init__(self, probe=NULL_PROBE, name: str = "bus") -> None:
        # Busy-until, transactions, busy cycles.  One ``array('q')`` so
        # the native engine (:mod:`repro.trace.engine`) arbitrates on
        # this very memory: the python caller that interleaves with it
        # (an icache refill) needs no hand-over.
        self._clock = array("q", [0, 0, 0])
        self.probe = probe
        """Instrumentation sink (:data:`~repro.instrument.probes.
        NULL_PROBE` when profiling is off)."""
        self.name = name

    _busy_until = _clock_field(0, "Time the bus next becomes free.")
    transactions = _clock_field(1, "Transactions granted so far.")
    busy_cycles = _clock_field(2, "Cycles the bus has been held so far.")

    def acquire(self, now: int, occupancy: int, latency: int) -> BusTransaction:
        """Arbitrate for the bus at time ``now``.

        The transaction occupies the bus for ``occupancy`` cycles starting
        at the grant; the requester's result (line data, or broadcast
        completion) is available ``latency`` cycles after the grant.  For a
        line fetch ``latency`` is the paper's fixed 100 cycles, of which
        only ``occupancy`` serializes against other traffic (the rest is
        memory access time overlapped with other transactions).
        """
        if occupancy < 0 or latency < 0:
            raise ValueError("occupancy and latency must be non-negative")
        clock = self._clock
        start = clock[0]
        if start < now:
            start = now
        clock[0] = start + occupancy
        clock[1] += 1
        clock[2] += occupancy
        probe = self.probe
        if probe is not NULL_PROBE:
            probe.bus_acquire(self.name, now, start, occupancy)
        return BusTransaction(start=start, wait=start - now,
                              done=start + latency)

    @property
    def busy_until(self) -> int:
        """Time at which the bus next becomes free (for tests)."""
        return self._busy_until

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the bus was held."""
        return self.busy_cycles / elapsed if elapsed else 0.0
