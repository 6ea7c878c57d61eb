"""Golden-equivalence suite for the packed trace machinery.

``golden_stats.json`` holds statistics fingerprints captured from the
pre-packed-encoding tree (every event an object, every generator resumed
per event).  These tests re-run the same workloads on the current tree --
as they yield their packed words, decoded into event objects
(``unpacked``), and instrumented -- and demand bit-identical statistics.  Any scheduling, protocol, or accounting drift
introduced by a fast-path change fails here first.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.instrument import InstrumentationProbe
from repro.simulation import run_simulation
from repro.workloads.barnes_hut import BarnesHut
from repro.workloads.cholesky import Cholesky
from repro.workloads.mp3d import MP3D
from repro.workloads.multiprog import MultiprogrammingWorkload

from ..conftest import unpacked

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text())

WORKLOADS = {
    "barnes-hut": lambda: BarnesHut(n_bodies=64, steps=1),
    "mp3d": lambda: MP3D(n_particles=120, steps=2),
    "cholesky": lambda: Cholesky(n=96),
    "multiprogramming": lambda: MultiprogrammingWorkload(
        instructions_per_app=4000, quantum_instructions=1500, scale=8),
}

VARIANTS = {
    "mesi": dict(protocol="mesi"),
    "line32": dict(line_size=32),
    "assoc2": dict(associativity=2),
    "private": dict(cluster_organization="private"),
    "directory": dict(inter_cluster="directory"),
    "stallw": dict(stall_on_writes=True),
}


def fingerprint(result):
    stats = result.stats
    total = stats.total_scc
    return {
        "execution_time": stats.execution_time,
        "events": result.events_processed,
        "reads": total.reads,
        "writes": total.writes,
        "read_misses": total.read_misses,
        "write_misses": total.write_misses,
        "invalidations": stats.total_invalidations,
        "upgrades": total.upgrades,
        "evictions": total.evictions,
        "busy": sum(p.busy_cycles for p in stats.processors),
        "memory_stall": sum(p.memory_stall_cycles
                            for p in stats.processors),
        "sync_stall": sum(p.sync_stall_cycles for p in stats.processors),
    }


def run_key(key, packed=True):
    """Reproduce the run a golden key describes on the current tree."""
    parts = key.split("|")
    name, procs, scc = parts[0], int(parts[1][1:]), int(parts[2][1:])
    tail = parts[3] if len(parts) > 3 else None
    clusters = 1 if name == "multiprogramming" else 4
    extra = VARIANTS.get(tail, {})
    config = SystemConfig(clusters=clusters, processors_per_cluster=procs,
                          scc_size=scc,
                          model_icache=(name == "multiprogramming"),
                          **extra)
    workload = WORKLOADS[name]()
    if not packed:
        workload = unpacked(workload)
    probe = (InstrumentationProbe(bin_width=512, record_events=False)
             if tail == "instrumented" else None)
    return run_simulation(config, workload, instrumentation=probe)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_packed_path_matches_golden(key):
    """Every grid point, instrumented run, and configuration variant
    reproduces the pre-packed statistics exactly."""
    assert fingerprint(run_key(key)) == GOLDEN[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_event_object_path_matches_golden(name):
    """The same streams decoded into one event object per resume; the
    statistics must still equal the same golden entry."""
    key = f"{name}|p2|s2048"
    assert fingerprint(run_key(key, packed=False)) == GOLDEN[key]
