"""Pricing a grid point from a :class:`~repro.model.profile.RowProfile`.

:func:`predict_point` turns a row profile into the
:class:`~repro.experiments.runner.RunStats` of one configuration, with
no simulation.  Two paths:

* **exact** -- for one-way arrays at sizes the profile's coherence
  ladder tracked, the miss/invalidation counts come straight from the
  ladder (the same bit-selected direct-mapped, write-allocate,
  write-invalidate model the simulator runs, evaluated on the merged
  stream), so content statistics are exact up to interleaving;
* **binomial** -- for other associativities or untracked sizes, each
  cluster's fully-associative stack-distance histogram is mapped to a
  set-associative miss ratio with the classic binomial set-mapping
  model (a reference at stack distance ``d`` hits an ``A``-way,
  ``S``-set LRU array with probability ``P[fewer than A of the d
  intervening lines land in its set]``), plus an interleaved-reuse
  correction charging each cluster's *exposure* (expected reads landing
  on remotely-written lines) as coherence misses.

The cycle estimate composes the predicted misses with the same
latency parameters the simulator charges (memory latency, bus
occupancy, lock/barrier overheads, icache refills) per process, takes
the slowest process, and scales by the :mod:`repro.cost` load-latency
factor -- the analytical analogue of the cost/performance pipeline.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from ..core.config import SystemConfig
from ..cost import latency_factor
from ..experiments.runner import RunStats
from .profile import RowProfile, _BucketedHistogram

__all__ = ["predict_point"]


_PARALLEL_WARNING_EMITTED = False
"""One-shot latch for the known-bad-row warning (process-wide; reset by
tests via monkeypatch)."""


def _check_parallel_fidelity(profile: RowProfile) -> None:
    """Warn (once) on multi-processor parallel rows."""
    global _PARALLEL_WARNING_EMITTED
    if profile.clusters <= 1 or profile.procs_per_cluster <= 1:
        return
    if not _PARALLEL_WARNING_EMITTED:
        _PARALLEL_WARNING_EMITTED = True
        warnings.warn(
            f"analytical predictions for multi-processor parallel rows "
            f"({profile.clusters} clusters x {profile.procs_per_cluster} "
            f"procs) are known-bad (miss-ratio MAE ~ 0.09): the surrogate "
            f"lacks an interleaving-aware merge for them; prefer the "
            f"fused tier (fidelity='fused')",
            RuntimeWarning, stacklevel=3)


def _set_hit_probability(distance: int, sets: int, ways: int) -> float:
    """P(hit) for a reference at FA stack distance ``distance`` in an
    LRU array of ``sets`` sets of ``ways`` ways.

    Binomial set-mapping: the ``distance`` distinct intervening lines
    land in this line's set independently with probability ``1/sets``;
    the reference hits iff fewer than ``ways`` of them do.  ``sets ==
    1`` degenerates to the exact fully-associative rule.
    """
    if sets == 1:
        return 1.0 if distance < ways else 0.0
    if distance < ways:
        return 1.0
    # Iterative binomial tail: term_k = C(d, k) p^k q^(d-k).
    p = 1.0 / sets
    q = 1.0 - p
    term = q ** distance
    total = term
    for k in range(1, ways):
        term *= (distance - k + 1) * p / (k * q)
        total += term
    return min(1.0, total)


def _binomial_misses(histogram: _BucketedHistogram, sets: int,
                     ways: int) -> Dict[str, float]:
    """Expected read/write misses of one cluster's merged stream."""
    read_misses = float(histogram.cold_reads)
    write_misses = float(histogram.cold_writes)
    hits = 0.0
    for floor, (reads, writes) in histogram.buckets.items():
        hit = _set_hit_probability(floor, sets, ways)
        read_misses += reads * (1.0 - hit)
        write_misses += writes * (1.0 - hit)
        hits += (reads + writes) * hit
    return {"read_misses": read_misses, "write_misses": write_misses,
            "hits": hits}


def _nearest_tracked(profile: RowProfile, lines: int) -> Optional[dict]:
    """The ladder rung whose size is closest (log-scale) to ``lines``."""
    tracked = profile.tracked_line_counts
    if not tracked:
        return None
    best = min(tracked, key=lambda count: abs(count.bit_length()
                                              - lines.bit_length()))
    return profile.ladder_entry(best)


def predict_point(profile: RowProfile, config: SystemConfig,
                  benchmark: Optional[str] = None,
                  load_latency: int = 2) -> RunStats:
    """Analytical :class:`RunStats` of ``config`` from a row profile.

    ``config`` must share the profile's line size and cluster layout
    (those were baked into the recording); cache size and associativity
    are free.  ``benchmark`` selects the :mod:`repro.cost` load-latency
    model scaling the cycle estimate (``None`` or a 2-cycle pipeline
    leaves it unscaled).

    Multi-processor *parallel* rows (several clusters with several
    processors each) are a documented weak spot of the surrogate; they
    warn once per process (the design-space optimizer routes them to the
    exact fused tier instead: ``FunnelEvaluator._effective_tier``).
    """
    _check_parallel_fidelity(profile)
    if config.line_size != profile.line_size:
        raise ValueError(
            f"profile recorded at line size {profile.line_size}, "
            f"configuration wants {config.line_size}")
    if (config.clusters != profile.clusters
            or config.processors_per_cluster != profile.procs_per_cluster):
        raise ValueError(
            f"profile recorded on {profile.clusters}x"
            f"{profile.procs_per_cluster} clusters, configuration wants "
            f"{config.clusters}x{config.processors_per_cluster}")

    lines = config.scc_lines
    per_process = profile.per_process
    reads = profile.reads
    writes = profile.writes

    exact = (config.associativity == 1
             and profile.ladder_entry(lines) is not None)
    if exact:
        entry = profile.ladder_entry(lines)
        read_misses = float(entry["read_misses"])
        write_misses = float(entry["write_misses"])
        invalidations = int(entry["invalidations"])
        proc_read_misses = {int(proc): float(count) for proc, count
                            in entry["proc_read_misses"].items()}
    else:
        sets = max(1, lines // config.associativity)
        ways = config.associativity if sets > 1 else lines
        read_misses = 0.0
        write_misses = 0.0
        proc_read_misses = {proc: 0.0 for proc in per_process}
        exposure = profile.sharing["exposure"]
        for cluster in range(profile.clusters):
            histogram = profile.cluster_histogram(cluster)
            misses = _binomial_misses(histogram, sets, ways)
            cluster_reads = (histogram.cold_reads
                             + sum(counts[0] for counts
                                   in histogram.buckets.values()))
            cluster_read_misses = misses["read_misses"]
            # Interleaved-reuse correction: reads expected to land on
            # remotely-invalidated lines miss regardless of capacity;
            # only the ones the capacity model called hits need moving.
            base_hit = (1.0 - cluster_read_misses / cluster_reads
                        if cluster_reads else 0.0)
            cluster_read_misses += (exposure[str(cluster)] * base_hit)
            read_misses += cluster_read_misses
            write_misses += misses["write_misses"]
            members = [proc for proc in per_process
                       if proc // profile.procs_per_cluster == cluster]
            member_reads = sum(per_process[proc]["reads"]
                               for proc in members)
            for proc in members:
                share = (per_process[proc]["reads"] / member_reads
                         if member_reads else 1.0 / len(members))
                proc_read_misses[proc] += cluster_read_misses * share
        nearest = _nearest_tracked(profile, lines)
        invalidations = int(nearest["invalidations"]) if nearest else 0

    # ---- cycle estimate ----------------------------------------------
    read_penalty = config.memory_latency + config.bus_occupancy
    finish = 0.0
    for proc, summary in per_process.items():
        busy = (summary["instructions"] + summary["compute_cycles"]
                + summary["reads"] + summary["writes"]
                + summary["lock_ops"] * config.lock_overhead
                + summary["barriers"] * config.barrier_overhead)
        stall = proc_read_misses.get(proc, 0.0) * read_penalty
        if config.model_icache:
            stall += (summary["icache_misses"]
                      * config.icache_miss_latency)
        finish = max(finish, busy + stall)
    factor = (latency_factor(benchmark, load_latency)
              if benchmark is not None else 1.0)
    execution_time = int(finish * factor)

    references = reads + writes
    return RunStats(
        execution_time=execution_time,
        read_miss_rate=read_misses / reads if reads else 0.0,
        miss_rate=((read_misses + write_misses) / references
                   if references else 0.0),
        invalidations=invalidations,
        reads=reads,
        writes=writes,
        events=sum(summary["events"]
                   for summary in per_process.values()),
        instrument=None)
