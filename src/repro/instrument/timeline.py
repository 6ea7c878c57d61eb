"""Interval-binned utilization timelines.

The paper's headline phenomena -- SCC bank contention (Section 2.2.2)
and bus saturation under invalidation-heavy MP3D traffic (Section
3.1.2) -- are *temporal*: a configuration that looks fine on end-of-run
averages may spend its whole slowdown inside a few saturated phases.
:class:`Timeline` turns a stream of timestamped spans or samples into a
fixed-width binned series cheap enough to maintain during simulation
and small enough to export whole.

Bins grow on demand (the simulated horizon is unknown until the run
ends) and can be re-binned afterwards to a target bin count for display
or export (:meth:`Timeline.rebinned`).
"""

from __future__ import annotations

import operator
from typing import Dict, List

__all__ = ["Timeline"]


class Timeline:
    """One binned series over simulated time.

    ``mode`` selects how values combine within a bin:

    * ``"sum"`` -- totals (busy cycles, conflict cycles); spans added
      with :meth:`add_span` are split proportionally across the bins
      they overlap, so a bin's value never exceeds ``bin_width`` times
      the number of concurrent contributors.
    * ``"max"`` -- high-water marks (write-buffer depth); samples added
      with :meth:`add_sample` keep the largest value seen per bin.
    """

    __slots__ = ("bin_width", "mode", "bins")

    def __init__(self, bin_width: int, mode: str = "sum"):
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        if mode not in ("sum", "max"):
            raise ValueError("mode must be 'sum' or 'max'")
        self.bin_width = bin_width
        self.mode = mode
        self.bins: List[float] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _grow_to(self, index: int) -> None:
        bins = self.bins
        if index >= len(bins):
            bins.extend([0.0] * (index + 1 - len(bins)))

    def add_span(self, start: int, end: int, weight: float = 1.0) -> None:
        """Accumulate ``weight`` per cycle over ``[start, end)``.

        The span's mass is split across every bin it overlaps, so a
        4-cycle bus occupancy straddling a bin boundary contributes to
        both bins in proportion.
        """
        if end <= start:
            return
        width = self.bin_width
        first = start // width
        last = (end - 1) // width
        self._grow_to(last)
        bins = self.bins
        if first == last:
            bins[first] += (end - start) * weight
            return
        bins[first] += ((first + 1) * width - start) * weight
        for index in range(first + 1, last):
            bins[index] += width * weight
        bins[last] += (end - last * width) * weight

    def add_at(self, t: int, value: float) -> None:
        """Accumulate ``value`` into the bin containing cycle ``t``."""
        index = t // self.bin_width
        self._grow_to(index)
        self.bins[index] += value

    def add_sample(self, t: int, value: float) -> None:
        """Record ``value`` at cycle ``t`` (``max`` mode: high-water)."""
        index = t // self.bin_width
        self._grow_to(index)
        if self.mode == "max":
            if value > self.bins[index]:
                self.bins[index] = float(value)     # bins are floats
        else:
            self.bins[index] += value

    def absorb(self, values) -> None:
        """Combine a series recorded elsewhere at this ``bin_width``,
        bin by bin: ``sum`` bins add, ``max`` bins keep the larger.
        Grows to ``len(values)`` like the recording methods would have.
        """
        count = len(values)
        if not count:
            return
        self._grow_to(count - 1)
        combine = max if self.mode == "max" else operator.add
        self.bins[:count] = map(combine, self.bins[:count],
                                map(float, values))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def series(self) -> List[float]:
        """The raw per-bin values (a copy)."""
        return list(self.bins)

    def utilization_series(self) -> List[float]:
        """Per-bin values divided by ``bin_width`` (fraction busy).

        Only meaningful in ``sum`` mode for single-resource occupancy
        timelines, where a fully-held bin reads 1.0.
        """
        width = self.bin_width
        return [value / width for value in self.bins]

    def peak(self) -> float:
        """Largest bin value (0.0 if nothing was recorded)."""
        return max(self.bins) if self.bins else 0.0

    def total(self) -> float:
        """Sum of all bin values."""
        return sum(self.bins)

    def mean(self) -> float:
        """Average bin value (0.0 if nothing was recorded)."""
        return sum(self.bins) / len(self.bins) if self.bins else 0.0

    def __len__(self) -> int:
        return len(self.bins)

    # ------------------------------------------------------------------
    # Re-binning
    # ------------------------------------------------------------------

    def rebinned(self, n_bins: int) -> "Timeline":
        """Collapse to at most ``n_bins`` bins (new ``Timeline``).

        ``sum`` bins merge by addition, ``max`` bins by maximum.  The
        result's ``bin_width`` is a whole multiple of the original so
        bin boundaries stay aligned.
        """
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        factor = max(1, -(-len(self.bins) // n_bins))
        merged = Timeline(self.bin_width * factor, mode=self.mode)
        if not self.bins:
            return merged
        merged._grow_to((len(self.bins) - 1) // factor)
        combine = max if self.mode == "max" else float.__add__
        for index, value in enumerate(self.bins):
            target = index // factor
            merged.bins[target] = combine(merged.bins[target], value)
        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {"bin_width": self.bin_width, "mode": self.mode,
                "bins": list(self.bins)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Timeline":
        timeline = cls(int(data["bin_width"]), mode=str(data["mode"]))
        timeline.bins = [float(v) for v in data["bins"]]
        return timeline
