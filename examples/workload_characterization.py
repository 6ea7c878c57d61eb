#!/usr/bin/env python3
"""Characterize a workload's memory behaviour before simulating it.

Uses the trace-analysis tools (LRU stack distances, miss-ratio curves,
working sets) on the reference streams of the instrumented benchmarks --
the same methodology Rothberg et al. (the paper's reference [17]) used
to relate working sets to cache sizes.  The miss-ratio-curve knees
printed here are exactly where the Section 3 figures bend.

Each stream is the tape a sweep records: one processor's run through
``StreamRecorder``, kept as packed words, which the analyses walk in
place.

Usage:  python examples/workload_characterization.py
"""

from repro.api import KB, SystemConfig, run_simulation
from repro.trace.analysis import distance_histogram, miss_ratio_curve
from repro.trace.record import StreamRecorder
from repro.workloads import (BarnesHut, MP3D, MultiprogrammingWorkload,
                             spec92_workload)

SIZES = tuple(k * KB for k in (1, 2, 4, 8, 16, 32, 64))


def one_processor_tape(app):
    """The tape of ``app`` run on a one-processor machine: its whole
    reference stream, as an ``array('q')`` of packed words."""
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=64 * KB)
    recorder = StreamRecorder(app)
    run_simulation(config, recorder)
    return recorder.streams[0]


def characterize(name, tape):
    reuse = distance_histogram(tape)
    curve = miss_ratio_curve(reuse, SIZES)
    hot = reuse.working_set_lines(fraction=0.9)
    knee = min((size for size in SIZES if curve[size] < 0.10),
               default=None)
    print(f"{name}: {reuse.total:,} refs, 90% working set = "
          f"{hot * 16 / KB:.1f} KB")
    print("  size:", "  ".join(f"{size // KB:>4}K" for size in SIZES))
    print("  miss:", "  ".join(f"{100 * curve[size]:4.1f}%"
                               for size in SIZES))
    if knee:
        print(f"  (fully-associative LRU falls under 10% at "
              f"{knee // KB} KB)")
    print()


def main():
    print("Fully-associative LRU miss-ratio curves (one processor's "
          "reference stream)\n")
    characterize("barnes-hut", one_processor_tape(
        BarnesHut(n_bodies=192, steps=1)))
    characterize("mp3d", one_processor_tape(
        MP3D(n_particles=500, steps=3)))
    # SPEC sc alone for 60,000 instructions: the scheduler adds only
    # compute (context switches) around its stream.
    sc = spec92_workload(scale=8)[0]
    characterize("spec sc (synthetic)", one_processor_tape(
        MultiprogrammingWorkload(instructions_per_app=60_000, apps=[sc])))
    print("Compare these knees with where the Figure 2/3/5 curves bend:"
          " the simulated SCC adds conflict and coherence misses on top"
          " of these capacity floors.")


if __name__ == "__main__":
    main()
