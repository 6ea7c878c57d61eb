#!/usr/bin/env python3
"""Capture a reference trace, inspect it, and replay it bit-for-bit.

Shows the tape path a sweep uses, end to end: capture two SPEC-like
quanta as packed words, store them in the trace cache, characterize
them (events, working set, miss-ratio curve), read the file back and
replay it through the simulator, verifying the replay reproduces the
original run exactly.

Usage:  python examples/trace_capture.py
"""

import tempfile
from pathlib import Path

from repro.api import KB, SystemConfig, run_simulation
from repro.trace import (ReplayApplication, TraceCache, event_count,
                         miss_ratio_curve, working_set_lines)
from repro.trace.analysis import data_lines
from repro.workloads import spec92_workload


def main():
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=4 * KB)
    # Two SPEC-like processes, one quantum each, as the capture source.
    apps = spec92_workload(scale=8)
    streams = {proc: apps[proc].burst_chunk(20_000).data for proc in (0, 1)}
    for proc, words in streams.items():
        print(f"captured proc {proc}: {event_count(words):,} events in "
              f"{len(words):,} words")

    with tempfile.TemporaryDirectory() as directory:
        cache = TraceCache(Path(directory))
        cache.put("two SPEC quanta", streams)
        (tape,) = cache.directory.glob("*.trace")
        size = tape.stat().st_size
        events = sum(event_count(words) for words in streams.values())
        print(f"stored: {size:,} bytes ({size / events:.1f} B/event)")
        reloaded = cache.get("two SPEC quanta")

    # The analyses walk a tape's ``array('q')`` in place.
    print("\ntrace characterization (proc 0, as stored):")
    print(f"  data refs : {len(data_lines(reloaded[0])):,}")
    print(f"  90% WS    : "
          f"{working_set_lines(reloaded[0]) * 16 / 1024:.1f} KB")
    curve = miss_ratio_curve(reloaded[0], (1024, 4096, 16384))
    for size, ratio in curve.items():
        print(f"  LRU {size // 1024:>2} KB : {100 * ratio:.1f}% miss")

    print("\nreplaying from disk...")
    direct = run_simulation(config, ReplayApplication(streams))
    replay = run_simulation(config, ReplayApplication(reloaded))
    for label, result in (("direct run", direct), ("replay run", replay)):
        print(f"  {label} : {result.execution_time:,} cycles, "
              f"{result.stats.total_scc.read_misses:,} read misses")
    identical = (direct.execution_time == replay.execution_time
                 and direct.stats.total_scc.as_dict()
                 == replay.stats.total_scc.as_dict())
    print(f"  bit-for-bit identical: {identical}")


if __name__ == "__main__":
    main()
