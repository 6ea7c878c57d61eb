"""Trace analysis: LRU stack distances, miss-ratio curves, working sets.

The paper reasons about its workloads through their working sets (how
much cache a benchmark "wants" -- the knees in Figures 2-5).  This
module computes those properties directly from any event stream, which
is how the reproduction's synthetic workloads were validated against
their intended footprints:

* :func:`stack_distances` -- the LRU stack distance of every data
  reference (the number of *distinct* lines touched since the previous
  reference to the same line; cold references yield ``None``);
* :func:`distance_histogram` -- the one-pass reuse summary
  (:class:`DistanceHistogram`) that the miss-ratio curve, the working
  set and the :mod:`repro.model` surrogate all share;
* :func:`miss_ratio_curve` -- miss ratios of fully-associative LRU
  caches of the given sizes, computed from the distance histogram
  (Mattson's classic inclusion property);
* :func:`working_set_lines` -- the smallest number of hot lines covering
  a target fraction of references.

Every entry point accepts either an iterable of
:class:`~repro.trace.events.TraceEvent` objects (which may themselves
include :class:`~repro.trace.packed.PackedChunk` runs) or a packed
stream directly (a ``PackedChunk`` or the raw ``array('q')`` a
:class:`~repro.trace.record.StreamRecorder` produces).  The packed
paths walk opcodes in place, so profiling a cached tape allocates no
event objects.

The stack-distance computation uses the Bennett-Kruskal / Olken
algorithm: a Fenwick tree over reference timestamps marks each line's
most recent occurrence, so every distance query is O(log N).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .events import Read, TraceEvent, Write
from .packed import (OP_READ, OP_READ_SPAN, OP_WRITE, OP_WRITE_SPAN,
                     PackedChunk, record_width)

__all__ = ["data_lines", "stack_distances", "distance_histogram",
           "DistanceHistogram", "miss_ratio_curve", "working_set_lines"]

TraceSource = Union[Iterable[TraceEvent], PackedChunk, array]
"""Anything the analyses accept: decoded events (possibly containing
packed chunks), a whole packed chunk, or a raw packed stream."""


class _Fenwick:
    """Binary indexed tree over reference timestamps."""

    __slots__ = ("_tree",)

    def __init__(self, size: int):
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        tree = self._tree
        while index < len(tree):
            tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries [0, index)."""
        total = 0
        tree = self._tree
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total


def _packed_source(source: TraceSource):
    """The raw packed ints behind ``source``, or ``None`` if it is an
    event iterable."""
    if isinstance(source, PackedChunk):
        return source.data
    if isinstance(source, array) and source.typecode == "q":
        return source
    return None


def _packed_data_lines(data, shift: int, out: List[int]) -> None:
    """Append the data-reference lines of one packed stream to ``out``,
    walking opcodes directly (no event objects)."""
    append = out.append
    index, end = 0, len(data)
    while index < end:
        op = data[index]
        width = record_width(data, index)
        if op == OP_READ or op == OP_WRITE:
            append(data[index + 1] >> shift)
        elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            base, size = data[index + 1], data[index + 2]
            if size > 0:    # (an empty span may carry any stride)
                for offset in range(0, size, data[index + 3]):
                    append((base + offset) >> shift)
        index += width


def _line_shift(line_size: int) -> int:
    if line_size < 1 or line_size & (line_size - 1):
        raise ValueError("line_size must be a power of two")
    return line_size.bit_length() - 1


def data_lines(events: TraceSource, line_size: int = 16) -> List[int]:
    """The sequence of cache lines touched by data references."""
    shift = _line_shift(line_size)
    packed = _packed_source(events)
    lines: List[int] = []
    if packed is not None:
        _packed_data_lines(packed, shift, lines)
        return lines
    for event in events:
        if isinstance(event, (Read, Write)):
            lines.append(event.addr >> shift)
        elif type(event) is PackedChunk:
            _packed_data_lines(event.data, shift, lines)
    return lines


def _distances_from_lines(lines: Sequence[int]) -> List[Optional[int]]:
    """Bennett-Kruskal / Olken distances over a line sequence."""
    tree = _Fenwick(len(lines))
    last_position: Dict[int, int] = {}
    distances: List[Optional[int]] = []
    for position, line in enumerate(lines):
        previous = last_position.get(line)
        if previous is None:
            distances.append(None)
        else:
            # Distinct lines touched strictly after the previous access:
            # the count of "most recent occurrence" marks past it.
            marks_before = tree.prefix_sum(previous + 1)
            marks_total = tree.prefix_sum(position)
            distances.append(marks_total - marks_before)
            tree.add(previous, -1)
        tree.add(position, +1)
        last_position[line] = position
    return distances


def stack_distances(events: TraceSource,
                    line_size: int = 16) -> List[Optional[int]]:
    """LRU stack distance per data reference (``None`` for cold).

    Distance 0 means the immediately preceding distinct line was this
    one (a repeat); a reference at distance d hits in any
    fully-associative LRU cache of more than d lines.
    """
    return _distances_from_lines(data_lines(events, line_size))


class DistanceHistogram:
    """One-pass reuse summary of a reference stream.

    Holds the stack-distance histogram, the cold-reference count, and
    the per-line reference counts -- everything
    :func:`miss_ratio_curve`, :func:`working_set_lines` and the
    :mod:`repro.model` analytical surrogate need, computed in a single
    walk over the tape.
    """

    __slots__ = ("histogram", "cold", "line_counts", "total")

    def __init__(self, histogram: Counter, cold: int,
                 line_counts: Counter):
        self.histogram = histogram
        self.cold = cold
        self.line_counts = line_counts
        self.total = cold + sum(histogram.values())

    @classmethod
    def from_lines(cls, lines: Sequence[int]) -> "DistanceHistogram":
        histogram: Counter = Counter()
        cold = 0
        for distance in _distances_from_lines(lines):
            if distance is None:
                cold += 1
            else:
                histogram[distance] += 1
        return cls(histogram, cold, Counter(lines))

    def miss_count(self, lines: int) -> int:
        """Misses of a fully-associative LRU cache of ``lines`` lines."""
        if lines < 1:
            raise ValueError("cache must hold at least one line")
        return self.cold + sum(count for distance, count
                               in self.histogram.items()
                               if distance >= lines)

    def miss_ratio(self, lines: int) -> float:
        if self.total == 0:
            raise ValueError("trace contains no data references")
        return self.miss_count(lines) / self.total

    def working_set_lines(self, fraction: float = 0.9) -> int:
        """Smallest number of hot lines covering ``fraction`` of
        references (the classic 90% working set)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self.line_counts:
            raise ValueError("trace contains no data references")
        target = fraction * self.total
        covered = 0
        for needed, (_, count) in enumerate(
                self.line_counts.most_common(), start=1):
            covered += count
            if covered >= target:
                return needed
        return len(self.line_counts)


def distance_histogram(events: TraceSource,
                       line_size: int = 16) -> DistanceHistogram:
    """Build the reusable :class:`DistanceHistogram` of a stream."""
    return DistanceHistogram.from_lines(data_lines(events, line_size))


def _as_histogram(events, line_size: int) -> DistanceHistogram:
    if isinstance(events, DistanceHistogram):
        return events
    return distance_histogram(events, line_size)


def miss_ratio_curve(events: Union[TraceSource, DistanceHistogram],
                     cache_sizes: Sequence[int],
                     line_size: int = 16) -> Dict[int, float]:
    """Miss ratio of fully-associative LRU caches of ``cache_sizes``.

    One trace pass serves every size (LRU's inclusion property): a
    reference misses in a cache of L lines iff its stack distance is at
    least L (or it is cold).  Pass a pre-built
    :class:`DistanceHistogram` to share that pass with other analyses.
    """
    if not cache_sizes:
        raise ValueError("need at least one cache size")
    histogram = _as_histogram(events, line_size)
    if histogram.total == 0:
        raise ValueError("trace contains no data references")
    curve: Dict[int, float] = {}
    for size in sorted(cache_sizes):
        lines = size // line_size
        if lines < 1:
            raise ValueError(f"cache size {size} smaller than a line")
        curve[size] = histogram.miss_ratio(lines)
    return curve


def working_set_lines(events: Union[TraceSource, DistanceHistogram],
                      fraction: float = 0.9,
                      line_size: int = 16) -> int:
    """Smallest number of hot lines covering ``fraction`` of references.

    Accepts the same sources as :func:`miss_ratio_curve`, including a
    shared :class:`DistanceHistogram`.
    """
    return _as_histogram(events, line_size).working_set_lines(fraction)
