"""A fixed unit of work for telling how fast the host is right now.

The sandboxes this benchmark runs in change speed under it: phases some
1.4x apart lasting ten to sixty seconds, and jitter of seconds on top (a
neighbour on the same core; invisible as steal time).  A run lasts about
as long as one phase, so the median of a run's raw pass times lands on
either speed, and ten runs of one commit spread by 16-23% -- wider than
any bound worth having.  Every timed region is therefore bracketed by
:meth:`Calibration.sample` (three :func:`spin` calls), and its host time
is scaled by how long the spins took relative to :data:`REFERENCE_S`:
metrics read in *seconds at the reference host speed*.  The raw median
and the speed ratio are reported next to them (``harness.wall_raw_s``,
``harness.host_speed_ratio``).

The kernel is pure standard library on purpose -- nothing a change to the
repository can speed up -- and is shaped like the simulator's own inner
loops (generators resumed from a heap, a dictionary of tags, a few
megabytes of ``array('q')``), because a slow phase does not slow a tight
arithmetic loop and a pointer-chasing interpreter loop alike.  It is
still somewhat *more* sensitive than the simulator: regressing log pass
time on log spin time over 120 child processes of five workloads gave
slopes of 0.5 to 0.85, so the correction is applied with exponent
:data:`SENSITIVITY`.  On that data the quartile spread of per-run medians
fell from 0.16-0.23 (raw) to 0.04-0.07.
"""

from __future__ import annotations

import heapq
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import List

__all__ = ["REFERENCE_S", "SENSITIVITY", "spin", "Calibration"]

REFERENCE_S = 0.07
"""What one :func:`spin` takes on the reference host (the 2.1 GHz Xeon
sandbox this benchmark was written on, in its fast phase)."""

SPINS_PER_SAMPLE = 3
"""One spin's own jitter is ~6%; three halve what that adds per pass."""

SENSITIVITY = 0.75
"""How much of the kernel's slowdown (in log terms) the simulator shares."""

_STREAMS = 8
_EVENTS_PER_STREAM = 8_000
_MEMORY = array("q", [0]) * (1 << 19)       # 4 MiB
_TAGS: dict = {}


def _stream(seed: int, length: int, size: int):
    state = seed * 7919
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield (state >> 4) % size, state & 7


def spin() -> float:
    """Do the fixed work; return the host seconds it took."""
    begin = time.perf_counter()
    memory, tags = _MEMORY, _TAGS
    size = len(memory)
    streams = [_stream(number, _EVENTS_PER_STREAM, size)
               for number in range(_STREAMS)]
    clocks = [0] * _STREAMS
    heap = [(0, number) for number in range(_STREAMS)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        now, number = pop(heap)
        try:
            address, compute = next(streams[number])
        except StopIteration:
            continue
        line = address >> 2
        if tags.get(line & 4095) != line:
            tags[line & 4095] = line
            memory[address] += 1
            now += 20
        clocks[number] = now + compute + 1
        push(heap, (clocks[number], number))
    return time.perf_counter() - begin


class Calibration:
    """Spins taken over a process's life, and the scale they imply."""

    def __init__(self) -> None:
        self._at: List[float] = []
        self._took: List[float] = []

    def sample(self) -> float:
        """Spin; return the host seconds the whole sample cost."""
        begin = time.perf_counter()
        took = sum(spin() for _ in range(SPINS_PER_SAMPLE))
        end = time.perf_counter()
        self._at.append((begin + end) / 2)
        self._took.append(took / SPINS_PER_SAMPLE)
        return end - begin

    def last_sample_age(self) -> float:
        return time.perf_counter() - self._at[-1] if self._at else 1e9

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per host second over ``[begin, end]``, from
        the last sample before it and the first after it."""
        before = max(0, bisect_right(self._at, begin) - 1)
        after = min(len(self._at) - 1, bisect_left(self._at, end))
        took = (self._took[before] + self._took[after]) / 2
        return (REFERENCE_S / took) ** SENSITIVITY
