"""Named metrics: counters and timelines gathered during one run.

:class:`MetricsRegistry` is the container the probe writes into and
everything downstream reads out of: the ``profile`` CLI renders its
timelines, :mod:`repro.instrument.chrometrace` exports them, and
:mod:`repro.experiments.runner` persists :meth:`MetricsRegistry.summary`
alongside each cached :class:`~repro.experiments.runner.RunStats`.

Naming convention (dots group related series, mirroring the machine's
topology):

* ``bus.occupancy`` -- inter-cluster bus busy cycles per bin;
* ``cluster<c>.bank<b>.conflict`` -- per-bank conflict-wait cycles;
* ``cluster<c>.write_buffer`` -- high-water write-buffer depth;
* ``proc<p>.busy`` / ``proc<p>.memory`` / ``proc<p>.sync`` -- the
  per-processor cycle breakdown of Figure 2's discussion.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .timeline import Timeline

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Lazily-created named counters and timelines."""

    __slots__ = ("bin_width", "counters", "timelines")

    def __init__(self, bin_width: int = 1024):
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        self.bin_width = bin_width
        self.counters: Dict[str, float] = {}
        self.timelines: Dict[str, Timeline] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def timeline(self, name: str, mode: str = "sum") -> Timeline:
        """The named timeline, created on first use."""
        timeline = self.timelines.get(name)
        if timeline is None:
            timeline = Timeline(self.bin_width, mode=mode)
            self.timelines[name] = timeline
        return timeline

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_group(self, prefix: str) -> Dict[str, float]:
        """Counters under ``prefix.``, keyed by the remainder of the
        name -- e.g. ``counter_group("session.points")`` is the sweep
        orchestrator's live progress (``done``/``cached``/``retried``/
        ``quarantined``...), the payload progress UIs poll."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name[len(dotted):]: value
                for name, value in sorted(self.counters.items())
                if name.startswith(dotted)}

    def matching(self, prefix: str) -> List[Tuple[str, Timeline]]:
        """Timelines whose name starts with ``prefix``, sorted by name."""
        return sorted((name, tl) for name, tl in self.timelines.items()
                      if name.startswith(prefix))

    def merged(self, prefix: str, n_bins: int = 0) -> Timeline:
        """Element-wise combination of every timeline under ``prefix``.

        ``sum`` timelines add; ``max`` timelines take the maximum --
        e.g. ``merged("cluster0.bank")`` is cluster 0's total conflict
        series and ``merged("cluster")`` (over ``write_buffer`` names)
        the machine-wide buffer high-water.  ``n_bins`` optionally
        re-bins the result.
        """
        parts = self.matching(prefix)
        if not parts:
            return Timeline(self.bin_width)
        mode = parts[0][1].mode
        merged = Timeline(self.bin_width, mode=mode)
        combine = max if mode == "max" else float.__add__
        for _name, timeline in parts:
            merged._grow_to(max(0, len(timeline.bins) - 1))
            for index, value in enumerate(timeline.bins):
                merged.bins[index] = combine(merged.bins[index], value)
        return merged.rebinned(n_bins) if n_bins else merged

    def rebin_all(self, n_bins: int) -> None:
        """Collapse every timeline to at most ``n_bins`` bins, in place."""
        for name, timeline in self.timelines.items():
            self.timelines[name] = timeline.rebinned(n_bins)

    def summary(self) -> Dict[str, float]:
        """Flat JSON-safe digest: all counters plus headline timeline
        statistics (peak/mean bus utilization, total conflict cycles,
        write-buffer high-water) -- what ``python -m repro profile``
        prints."""
        digest: Dict[str, float] = dict(self.counters)
        bus = self.timelines.get("bus.occupancy")
        if bus is not None:
            digest["bus_peak_utilization"] = (
                bus.peak() / bus.bin_width if bus.bin_width else 0.0)
            digest["bus_mean_utilization"] = (
                bus.mean() / bus.bin_width if bus.bin_width else 0.0)
        conflict = [tl for name, tl in self.timelines.items()
                    if ".bank" in name and name.endswith(".conflict")]
        if conflict:
            digest["bank_conflict_cycles"] = sum(
                tl.total() for tl in conflict)
        depth = [tl for name, tl in self.timelines.items()
                 if name.endswith(".write_buffer")]
        if depth:
            digest["write_buffer_peak_depth"] = max(
                tl.peak() for tl in depth)
        return digest

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Full JSON-safe dump (counters and every timeline)."""
        return {
            "bin_width": self.bin_width,
            "counters": dict(self.counters),
            "timelines": {name: timeline.as_dict()
                          for name, timeline in self.timelines.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsRegistry":
        registry = cls(int(data["bin_width"]))
        registry.counters = dict(data["counters"])
        registry.timelines = {
            name: Timeline.from_dict(payload)
            for name, payload in data["timelines"].items()}
        return registry
