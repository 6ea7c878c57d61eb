"""Chrome-trace (Perfetto) JSON export of an instrumented run.

Any simulation run with an :class:`~repro.instrument.probes.
InstrumentationProbe` can be opened in ``ui.perfetto.dev`` (or
``chrome://tracing``): :func:`chrome_trace` converts the probe's event
log and timelines into the Trace Event Format's ``traceEvents`` array.
Simulated cycles map one-to-one onto the format's microsecond ``ts``
axis, so "1 ms" in the UI reads as 1000 processor cycles.

``pid``/``tid`` mapping (one Perfetto "process" per hardware box)::

    pid 1              the inter-cluster snoopy bus
        tid 1          granted transactions (X slices)
    pid 10 + c         cluster c
        tid 1 + b      SCC bank b (conflict instants)
        tid 90         SCC miss stream (instants, args carry latency)
        tid 100 + port processor slices (busy / memory / sync stalls)

Counter tracks ("C" events) carry the binned timelines: bus utilization
(0..1), per-cluster bank-conflict cycles, and write-buffer high-water
depth.  Counters are re-binned to at most ``max_counter_bins`` points so
a long run cannot bloat the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .timeline import Timeline

__all__ = ["BUS_PID", "cluster_pid", "bank_tid", "proc_tid", "SCC_TID",
           "chrome_trace", "write_chrome_trace"]

BUS_PID = 1
"""Perfetto pid of the inter-cluster bus pseudo-process."""

SCC_TID = 90
"""Thread id carrying a cluster's cache-miss instant stream."""

_BUS_TID = 1


def cluster_pid(cluster: int) -> int:
    """Perfetto pid for one cluster."""
    return 10 + cluster

def bank_tid(bank: int) -> int:
    """Thread id for one SCC bank inside its cluster's pid."""
    return 1 + bank

def proc_tid(port: int) -> int:
    """Thread id for one processor (cluster-local port number)."""
    return 100 + port


def chrome_trace(probe, config=None,
                 max_counter_bins: int = 1000) -> Dict[str, object]:
    """Render ``probe`` as a Trace-Event-Format dict.

    ``config`` (a :class:`~repro.core.config.SystemConfig`) maps global
    processor ids onto their cluster's pid; without it each processor
    gets a standalone pid of ``1000 + proc``.  The returned dict is
    ``json.dumps``-ready and lists ``traceEvents`` in non-decreasing
    ``ts`` order (Perfetto does not require this, but it makes the file
    diffable and lets tests assert monotonicity).
    """
    events: List[Dict[str, object]] = []
    meta: List[Dict[str, object]] = []

    def name_process(pid: int, name: str, sort: int) -> None:
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": name}})
        meta.append({"ph": "M", "pid": pid, "name": "process_sort_index",
                     "args": {"sort_index": sort}})

    def name_thread(pid: int, tid: int, name: str) -> None:
        meta.append({"ph": "M", "pid": pid, "tid": tid,
                     "name": "thread_name", "args": {"name": name}})

    def pid_tid_of_proc(proc: int):
        if config is None:
            return 1000 + proc, proc_tid(0)
        return (cluster_pid(config.cluster_of(proc)),
                proc_tid(config.port_of(proc)))

    name_process(BUS_PID, "inter-cluster bus", 0)
    name_thread(BUS_PID, _BUS_TID, "transactions")
    named_pids = {BUS_PID}
    named_threads = set()

    def ensure_cluster(cluster: int) -> int:
        pid = cluster_pid(cluster)
        if pid not in named_pids:
            named_pids.add(pid)
            name_process(pid, f"cluster {cluster}", 1 + cluster)
        return pid

    # -- slice and instant events from the raw log ---------------------
    if probe.events is not None:
        for event in probe.events:
            kind, ts = event[0], event[1]
            if kind == "bus":
                _kind, start, occupancy, wait, bus = event
                events.append({"ph": "X", "pid": BUS_PID, "tid": _BUS_TID,
                               "ts": start, "dur": occupancy,
                               "name": "transaction", "cat": "bus",
                               "args": {"wait": wait, "bus": bus}})
            elif kind == "bank":
                _kind, now, wait, cluster, bank = event
                pid = ensure_cluster(cluster)
                tid = bank_tid(bank)
                if (pid, tid) not in named_threads:
                    named_threads.add((pid, tid))
                    name_thread(pid, tid, f"bank {bank}")
                events.append({"ph": "i", "pid": pid, "tid": tid,
                               "ts": now, "s": "t",
                               "name": "bank conflict", "cat": "bank",
                               "args": {"wait": wait}})
            elif kind == "wb":
                _kind, now, stall, cluster, bank, depth = event
                pid = ensure_cluster(cluster)
                events.append({"ph": "i", "pid": pid, "tid": SCC_TID,
                               "ts": now, "s": "t",
                               "name": "write-buffer stall", "cat": "scc",
                               "args": {"stall": stall, "bank": bank,
                                        "depth": depth}})
            elif kind == "miss":
                _kind, start, latency, cluster, line, is_write = event
                pid = ensure_cluster(cluster)
                if (pid, SCC_TID) not in named_threads:
                    named_threads.add((pid, SCC_TID))
                    name_thread(pid, SCC_TID, "scc misses")
                events.append({"ph": "i", "pid": pid, "tid": SCC_TID,
                               "ts": start, "s": "t",
                               "name": "write miss" if is_write
                               else "read miss", "cat": "scc",
                               "args": {"line": line, "latency": latency}})
            elif kind == "inval":
                _kind, now, _dur, cluster, line, copies = event
                events.append({"ph": "i", "pid": BUS_PID, "tid": _BUS_TID,
                               "ts": now, "s": "p",
                               "name": "invalidation", "cat": "bus",
                               "args": {"from_cluster": cluster,
                                        "line": line, "copies": copies}})
            elif kind == "proc":
                _kind, start, dur, proc, stall_kind = event
                pid, tid = pid_tid_of_proc(proc)
                if config is not None:
                    ensure_cluster(config.cluster_of(proc))
                elif pid not in named_pids:
                    named_pids.add(pid)
                    name_process(pid, f"processor {proc}", 100 + proc)
                if (pid, tid) not in named_threads:
                    named_threads.add((pid, tid))
                    name_thread(pid, tid, f"proc {proc}")
                events.append({"ph": "X", "pid": pid, "tid": tid,
                               "ts": start, "dur": dur, "name": stall_kind,
                               "cat": "proc"})

    # -- counter tracks from the binned timelines ----------------------
    def emit_counter(pid: int, name: str, timeline, value_name: str,
                     scale: float = 1.0) -> None:
        compact = timeline.rebinned(max_counter_bins)
        width = compact.bin_width
        for index, value in enumerate(compact.bins):
            events.append({"ph": "C", "pid": pid, "tid": 0,
                           "ts": index * width, "name": name,
                           "args": {value_name: value * scale}})

    bus_timeline = probe.bus_occupancy
    if bus_timeline.bins:
        compact = bus_timeline.rebinned(max_counter_bins)
        for index, value in enumerate(compact.bins):
            events.append({"ph": "C", "pid": BUS_PID, "tid": 0,
                           "ts": index * compact.bin_width,
                           "name": "bus utilization",
                           "args": {"fraction": value / compact.bin_width}})
    clusters = sorted({cluster for cluster, _bank in probe.bank_conflict}
                      | set(probe.write_buffer_depth))
    for cluster in clusters:
        pid = ensure_cluster(cluster)
        banks = [timeline for (owner, _bank), timeline
                 in sorted(probe.bank_conflict.items()) if owner == cluster]
        if banks:
            emit_counter(pid, "bank conflict cycles",
                         Timeline.combined(banks), "cycles")
        if cluster in probe.write_buffer_depth:
            emit_counter(pid, "write-buffer depth",
                         probe.write_buffer_depth[cluster], "entries")

    events.sort(key=lambda event: event.get("ts", 0))
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.instrument",
            "execution_time_cycles": probe.execution_time,
            "time_unit": "1 trace us = 1 simulated cycle",
        },
    }


def write_chrome_trace(probe, path, config=None,
                       max_counter_bins: int = 1000) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    payload = chrome_trace(probe, config=config,
                           max_counter_bins=max_counter_bins)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return path
