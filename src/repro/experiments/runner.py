"""Sweep driver and result cache for the reproduction experiments.

Every figure and table in the paper is a view over one of two sweeps:

* the **parallel sweep** (Section 3.1): a benchmark on four clusters,
  processors per cluster in {1, 2, 4, 8} x the SCC ladder 4 KB..512 KB;
* the **multiprogramming sweep** (Section 3.2): the SPEC92 mix on a
  single cluster over the same grid.

Simulations are minutes-scale, so results are cached on disk keyed by
the experiment's full parameterisation; delete the cache directory (or
bump :data:`CACHE_VERSION`) after changing the simulator.

Two profiles control workload sizes: ``quick`` for smoke-testing the
pipelines, ``paper`` (the default for benchmarks) for the properly
scaled runs recorded in EXPERIMENTS.md.  Select with the
``REPRO_PROFILE`` environment variable.

Sweeps are *described* by a :class:`~repro.experiments.spec.SweepSpec`
and *driven* by :func:`~repro.experiments.session.run_sweep`, whose
stages (journal, result cache, surrogate, replay, supervised
simulation) and their bookkeeping live in ``session.py``.  This module
is those stages' only door to the engines: every simulation, recording,
tape replay and fused ladder pass a sweep makes is a call from here
(:func:`row_tape`, :func:`replay_row`, :func:`_simulate`), which is
also where ``bench/spans.py`` and the CI smoke scripts count them.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..core.config import KB, SystemConfig
from ..diskstore import FileCache, cache_root
from ..simulation import run_simulation
from ..trace.multiconfig import (fused_ladder_results,
                                 fused_ladder_supported)
from ..trace.record import ReplayApplication, StreamRecorder, TraceCache
from .spec import (CACHE_VERSION, PAPER_LADDER, PROCS_SWEPT, PROFILES,
                   ExperimentProfile, active_profile)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["RunStats", "ExperimentProfile", "PROFILES", "active_profile",
           "ResultCache", "default_cache", "row_tape", "replay_row",
           "PAPER_LADDER", "PROCS_SWEPT", "CACHE_VERSION"]

@dataclass(frozen=True)
class RunStats:
    """The per-configuration quantities the paper's tables need."""

    execution_time: int
    read_miss_rate: float
    miss_rate: float
    invalidations: int
    reads: int
    writes: int
    events: int

    def as_dict(self) -> Dict[str, float]:
        # Built by hand: ``dataclasses.asdict`` deep-copies, and this
        # runs for every banked point.
        return {"execution_time": self.execution_time,
                "read_miss_rate": self.read_miss_rate,
                "miss_rate": self.miss_rate,
                "invalidations": self.invalidations,
                "reads": self.reads,
                "writes": self.writes,
                "events": self.events}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "RunStats":
        """Decode :meth:`as_dict`'s payload.  An ``instrument`` key --
        the observability digest that cached v4 results, fabric store
        entries and older workers' ``complete`` payloads carry from
        when a sweep point ran under a probe -- is dropped."""
        if "instrument" in data:
            data = {name: value for name, value in data.items()
                    if name != "instrument"}
        return cls(**data)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class ResultCache(FileCache):
    """One JSON file of :class:`RunStats` per point key, keyed by
    :data:`CACHE_VERSION` (written and healed as every
    :class:`~repro.diskstore.FileCache` is)."""

    def __init__(self, directory: Path):
        super().__init__(directory, f"v{CACHE_VERSION}", ".json")

    def get(self, key: str) -> Optional[RunStats]:
        return self._get(key)

    def put(self, key: str, stats: RunStats) -> None:
        self._put(key, stats)

    def _encode(self, stats: RunStats, key: str) -> bytes:
        return json.dumps(stats.as_dict()).encode()

    def _decode(self, raw: bytes, key: str) -> RunStats:
        return RunStats.from_dict(json.loads(raw))


def default_cache() -> ResultCache:
    """The result cache at :func:`~repro.diskstore.cache_root`."""
    return ResultCache(cache_root())


# ----------------------------------------------------------------------
# Point simulation
# ----------------------------------------------------------------------

def _stats_from_result(result) -> RunStats:
    """Reduce a :class:`~repro.simulation.SimulationResult` to RunStats."""
    total = result.stats.total_scc
    return RunStats(
        execution_time=result.stats.execution_time,
        read_miss_rate=result.stats.read_miss_rate,
        miss_rate=total.miss_rate,
        invalidations=result.stats.total_invalidations,
        reads=total.reads,
        writes=total.writes,
        events=result.events_processed,
    )


def _simulate(application, config: SystemConfig) -> RunStats:
    """One simulation of any workload object, reduced to RunStats, on
    the engine this process resolves (``$REPRO_ENGINE``, the loader)."""
    return _stats_from_result(run_simulation(config, application))


def row_tape(workload, config: SystemConfig,
             trace_cache: Optional[TraceCache], key: Optional[str]):
    """Find or record one grid row's tape: ``(streams, recording_stats)``.

    A trace-cache hit under ``key`` is ``(streams, None)``.  Otherwise
    ``workload`` is simulated once on ``config`` behind a recorder -- a
    real simulation of that point, whose :class:`RunStats` come back so
    the caller can bank them -- and the tape is stored under ``key``.
    The key rule (when a tape may be shared, and with whom) is the
    caller's; ``key=None`` means record, don't cache.  ``streams`` is
    ``None`` when the workload emitted something a tape cannot hold.
    """
    cached = trace_cache is not None and key is not None
    streams = trace_cache.get(key) if cached else None
    if streams is not None:
        return streams, None
    recorder = StreamRecorder(workload)
    stats = _simulate(recorder, config)
    if cached and recorder.streams is not None:
        trace_cache.put(key, recorder.streams)
    return recorder.streams, stats


def replay_row(configs: List[SystemConfig], streams,
               name: str) -> Iterator[RunStats]:
    """Time one recorded row on each of ``configs``, yielding every
    rung's :class:`RunStats` in order, as soon as it is known.

    When the rungs form a fused-replayable ladder (a single-process row
    whose configurations differ only in SCC size --
    :func:`~repro.trace.multiconfig.fused_ladder_supported`) the whole
    row is *one* pass of the multi-configuration engine and every rung
    is known at once; otherwise each rung is its own replay.  The
    results are bit-identical by construction (pinned by
    ``tests/equivalence``).  Multi-process rows never qualify.
    """
    if set(streams) == {0} and fused_ladder_supported(configs):
        for result in fused_ladder_results(configs, streams):
            yield _stats_from_result(result)
        return
    for config in configs:
        yield _simulate(ReplayApplication(streams, name=name), config)


# ----------------------------------------------------------------------
# Persistent worker pool (``--jobs N``)
# ----------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0

_WORKER_WORKLOADS: Dict[Tuple[str, ExperimentProfile], object] = {}
"""This process's constructed workload objects (a pool worker's, or the
sweep's own when it runs in-process).

Every workload builds its run state (bodies, particles, RNG) freshly per
``processes()`` call, so the application object itself is reusable across
simulations -- and a workload may keep on the object what it has worked
out that no machine configuration changes (Barnes-Hut's force plans;
DESIGN.md section 7), so every stage of a sweep takes its object from
:func:`process_workload`: a row's recording and its points then meet the
same one.
"""


def process_workload(benchmark: str, profile: ExperimentProfile):
    """The workload object this process keeps for ``(benchmark,
    profile)``, constructed on first use."""
    key = (benchmark, profile)
    workload = _WORKER_WORKLOADS.get(key)
    if workload is None:
        # setdefault: two threads arriving together leave with one object
        workload = _WORKER_WORKLOADS.setdefault(
            key, profile.workload(benchmark))
    return workload


def _pool_worker_init() -> None:
    """Reset each worker's signal dispositions to sane defaults.

    Workers fork after the parent has installed its signal-chaining
    handlers -- and possibly while executor locks are held -- so an
    inherited handler could deadlock the worker inside its own copy of
    ``pool.shutdown()`` instead of letting it die.  Workers must die on
    SIGTERM/SIGHUP (that is how ``_shutdown_pool(kill=True)`` stops
    them) and ignore SIGINT (a terminal Ctrl-C reaches the whole
    foreground group; teardown is the parent's call).
    """
    for signum in _TERMINATION_SIGNALS:
        try:
            signal.signal(signum, signal.SIG_IGN
                          if signum == getattr(signal, "SIGINT", None)
                          else signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide sweep pool, rebuilt only when ``jobs`` changes.

    Keeping the pool (and the workload objects its workers cache) alive
    across sweep calls means a multi-benchmark session pays worker
    startup and workload construction once, not once per sweep.  The
    first pool also installs the exit hooks that keep a dying parent
    from orphaning its workers.
    """
    global _POOL, _POOL_JOBS
    from concurrent.futures import ProcessPoolExecutor
    if _POOL is not None and _POOL_JOBS != jobs:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _install_exit_hooks()
        _POOL = ProcessPoolExecutor(max_workers=jobs,
                                    initializer=_pool_worker_init)
        _POOL_JOBS = jobs
    return _POOL


def _shutdown_pool(kill: bool = False) -> None:
    """Drop the pool; ``kill=True`` SIGKILLs the worker processes first
    (the only way to stop a worker stuck inside a simulation -- a
    catchable signal could be absorbed by whatever state the worker
    inherited or got itself into)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is None:
        return
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
    pool.shutdown(wait=False)


_TERMINATION_SIGNALS = tuple(
    getattr(signal, name) for name in ("SIGINT", "SIGTERM", "SIGHUP")
    if hasattr(signal, name))

_EXIT_HOOKS_INSTALLED = False


def _handle_termination(signum, frame, previous) -> None:
    """Kill the pool's workers, then let the signal take its course.

    ``atexit`` never runs when the process dies from a signal, so
    without this a Ctrl-C'd or ``kill``-ed ``--jobs`` sweep leaves its
    worker processes orphaned mid-simulation.
    """
    _shutdown_pool(kill=True)
    if callable(previous):
        previous(signum, frame)
        return
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_exit_hooks() -> None:
    """Register atexit + signal-chaining shutdown, once, main thread
    only (``signal.signal`` is unavailable elsewhere)."""
    global _EXIT_HOOKS_INSTALLED
    if _EXIT_HOOKS_INSTALLED:
        return
    _EXIT_HOOKS_INSTALLED = True
    atexit.register(_shutdown_pool)
    if threading.current_thread() is not threading.main_thread():
        return
    for signum in _TERMINATION_SIGNALS:
        try:
            previous = signal.getsignal(signum)
            if previous is signal.SIG_IGN:
                continue

            def handler(received, frame, _previous=previous):
                _handle_termination(received, frame, _previous)

            signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread or exotic signum
            pass


Sweep = Dict[Tuple[int, int], RunStats]
"""(processors per cluster, paper SCC bytes) -> stats."""
