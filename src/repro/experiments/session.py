"""Checkpointed, fault-tolerant sweep orchestration.

:func:`run_sweep` is the one entry point every sweep goes through: it
takes a declarative :class:`~repro.experiments.spec.SweepSpec` and
resolves the grid through (in order) the session journal, the result
cache, the trace/fused replay engines, and finally real simulation --
serially or on the persistent worker pool.

:class:`SweepSession` is the stateful half.  It keeps a *journal*
(one append-only log per spec signature, one line per point) recording
each point's status and result, so a sweep that crashes or is killed
resumes from the last completed point instead of restarting from zero.
Per-point execution is supervised: a point that raises is retried with
backoff up to ``spec.max_attempts`` times, a point that exceeds
``spec.point_timeout`` has its worker killed and is retried the same
way, and a point that exhausts its attempts is *quarantined* --
reported in the result instead of sinking the rest of the grid.
Progress (done/cached/replayed/retried/quarantined counts) is counted
into a plain dict, :attr:`SweepSession.counters`, which the progress
callback and :attr:`SessionResult.counters` hand to CLIs and dashboards.

Fault injection for tests and drills: set ``REPRO_FAULT_INJECT`` to
``"<procs>:<paper_bytes>:<mode>"`` (mode ``raise`` or ``hang``) and the
matching grid point misbehaves accordingly in whichever process
computes it.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..diskstore import cache_root
from ..trace.record import TraceCache, default_trace_cache
from .runner import (ResultCache, RunStats, Sweep, _shutdown_pool,
                     _simulate, _worker_pool, default_cache,
                     process_workload, replay_row, row_tape)
from .spec import GridPoint, SweepSpec, point_cache_key

__all__ = ["SweepSession", "SessionResult", "SessionJournal",
           "run_sweep", "grid_sweep", "QuarantinedPointError",
           "default_session_dir", "prune_stale_journals",
           "FAULT_INJECT_ENV"]

_LOG = logging.getLogger(__name__)

JOURNAL_VERSION = 2

FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

_DEFAULT_CACHE = object()
"""Sentinel: 'use :func:`~repro.experiments.runner.default_cache`'
(pass ``cache=None`` explicitly to disable result caching)."""


def default_session_dir() -> Path:
    """Journal directory: ``<cache root>/sessions``."""
    return cache_root() / "sessions"


def _read_log(data: bytes) -> Tuple[object, Dict[str, dict], int]:
    """Parse a journal log: its header (``None`` if line 1 does not
    decode), the last entry per point label, and the length of the
    prefix those came from.  Only newline-terminated lines count, and
    the read ends at the first one that is not an object with a string
    ``point`` -- a torn tail, whose predecessors are kept."""
    lines = data.split(b"\n")[:-1]
    if not lines:
        return None, {}, 0
    try:
        header = json.loads(lines[0])
    except ValueError:
        return None, {}, 0
    points: Dict[str, dict] = {}
    end = len(lines[0]) + 1
    for line in lines[1:]:
        try:
            entry = json.loads(line)
        except ValueError:
            break
        if not isinstance(entry, dict) or not isinstance(
                entry.get("point"), str):
            break
        points[entry.pop("point")] = entry
        end += len(line) + 1
    return header, points, end


def prune_stale_journals(directory: Optional[Path],
                         keep_signature: Optional[str] = None) -> List[Path]:
    """Garbage-collect the session directory; returns the paths removed.

    Logs of *finished* sweeps -- every grid point's last entry ``done``
    -- accumulate without this, and no live run will ever resume them.
    In-progress and quarantine-bearing logs are
    kept (they are exactly what ``--resume`` needs), as is the log
    matching ``keep_signature`` (the opening session's own), and logs
    whose header is damaged are left for :meth:`SessionJournal.load`
    to report.
    """
    if directory is None:
        return []
    directory = Path(directory)
    if not directory.is_dir():
        return []
    removed: List[Path] = []
    for path in directory.glob("*.jsonl"):
        if keep_signature is not None and path.stem == keep_signature:
            continue
        try:
            header, points, _ = _read_log(path.read_bytes())
        except OSError:
            continue
        if (not isinstance(header, dict)
                or header.get("version") != JOURNAL_VERSION
                or not isinstance(header.get("spec"), dict)):
            continue
        spec_desc = header["spec"]
        try:
            grid_size = (len(spec_desc["ladder"])
                         * len(spec_desc["procs"]))
        except (KeyError, TypeError):
            continue
        finished = (len(points) >= grid_size
                    and all(entry.get("status") == "done"
                            for entry in points.values()))
        if finished:
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                continue
    if removed:
        _LOG.info("pruned %d stale session file(s) from %s",
                  len(removed), directory)
    return removed


class QuarantinedPointError(RuntimeError):
    """Raised by :func:`run_sweep` after the grid has been resolved as
    far as possible but one or more points were quarantined."""

    def __init__(self, quarantined: Dict[GridPoint, str]):
        self.quarantined = dict(quarantined)
        detail = "; ".join(
            f"procs={procs} scc={paper_bytes}B: {reason}"
            for (procs, paper_bytes), reason in sorted(quarantined.items()))
        super().__init__(
            f"{len(quarantined)} sweep point(s) quarantined: {detail}")


def _point_label(point: GridPoint) -> str:
    return f"{point[0]}/{point[1]}"


def _maybe_inject_fault(point: GridPoint) -> None:
    """Honour ``REPRO_FAULT_INJECT`` for the matching grid point."""
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    try:
        procs_text, bytes_text, mode = spec.split(":")
        target = (int(procs_text), int(bytes_text))
    except ValueError:
        raise ValueError(
            f"{FAULT_INJECT_ENV}={spec!r}; expected "
            f"'<procs>:<paper_bytes>:<raise|hang>'") from None
    if point != target:
        return
    if mode == "raise":
        raise RuntimeError(
            f"injected fault at point procs={point[0]} scc={point[1]}B")
    if mode == "hang":
        time.sleep(3600)
        return
    raise ValueError(f"{FAULT_INJECT_ENV} mode must be 'raise' or "
                     f"'hang', not {mode!r}")


def _point_task(benchmark, profile, config,
                point: GridPoint) -> RunStats:
    """One supervised point simulation, live on this process's workload
    object -- a pool worker's under ``--jobs N``, a fabric worker
    thread's, or the sweep's own when it runs serially.  Module-level so
    the worker pool can pickle it; fault injection and ``$REPRO_ENGINE``
    are read from the inherited environment."""
    _maybe_inject_fault(point)
    return _simulate(process_workload(benchmark, profile), config)


class SessionJournal:
    """Crash-safe per-sweep record of point outcomes.

    One append-only log per spec signature, ``<signature>.jsonl``: a
    header line ``{"version", "signature", "spec"}``, then one line per
    recorded point, ``{"point": "<procs>/<bytes>", "status",
    "attempts", "stats"?, "reason"?}``; a later line for a point
    overrides an earlier one.  A session's first record truncates the
    file to the header and its own line (unless :meth:`load` adopted
    the file, when it appends); every later record is one ``write`` of
    one complete line in append mode.  So a SIGKILL keeps every line
    whose ``write`` returned, and a line cut short (disk full, power
    loss) can only be the last, which :meth:`load` drops.  Each
    ``done`` entry carries the full :class:`RunStats` payload, making
    resume independent of the result cache surviving the crash.
    """

    def __init__(self, spec: SweepSpec,
                 directory: Optional[Path] = None):
        self.spec = spec
        self.directory = Path(directory) if directory is not None else None
        self.signature = spec.signature()
        self.path: Optional[Path] = (
            self.directory / f"{self.signature}.jsonl"
            if self.directory is not None else None)
        self.points: Dict[str, dict] = {}
        self._appending = False

    def load(self) -> bool:
        """Adopt the on-disk log; ``True`` if a usable one for this spec
        existed (a damaged or mismatched header starts fresh, and a
        header that does not decode is deleted).  A torn tail is cut
        off the file, so the session's records append after the last
        complete entry."""
        path = self.path
        if path is None:
            return False
        try:
            data = path.read_bytes()
        except OSError:
            return False
        header, points, end = _read_log(data)
        if header is None:
            _LOG.warning("discarding corrupt sweep journal %s", path)
            self._unlink()
            return False
        if (not isinstance(header, dict)
                or header.get("version") != JOURNAL_VERSION
                or header.get("signature") != self.signature):
            _LOG.warning("sweep journal %s does not match this spec; "
                         "starting fresh", path)
            return False
        if end < len(data):
            _LOG.warning("dropping the torn tail of sweep journal %s",
                         path)
            os.truncate(path, end)
        self.points = points
        self._appending = True
        return True

    def reset(self) -> None:
        self.points = {}
        self._appending = False
        self._unlink()

    def record(self, point: GridPoint, status: str, *,
               stats: Optional[RunStats] = None,
               attempts: int = 1, reason: Optional[str] = None) -> None:
        entry: Dict[str, object] = {"status": status,
                                    "attempts": attempts}
        if stats is not None:
            entry["stats"] = stats.as_dict()
        if reason is not None:
            entry["reason"] = reason
        label = _point_label(point)
        self.points[label] = entry
        path = self.path
        if path is None:
            return
        line = json.dumps({**entry, "point": label},
                          sort_keys=True).encode() + b"\n"
        if self._appending:
            with open(path, "ab") as fh:
                fh.write(line)
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"version": JOURNAL_VERSION,
                             "signature": self.signature,
                             "spec": self.spec.describe()},
                            sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + line)
        self._appending = True

    def entry(self, point: GridPoint) -> Optional[dict]:
        return self.points.get(_point_label(point))

    def _unlink(self) -> None:
        path = self.path
        if path is None:
            return
        try:
            path.unlink()
        except (FileNotFoundError, OSError):
            pass


@dataclass
class SessionResult:
    """Everything a :class:`SweepSession` run produced."""

    spec: SweepSpec
    sweep: Sweep
    quarantined: Dict[GridPoint, str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        """One-line progress digest (the CLI's closing line), reporting
        how many points each resolution tier settled."""
        get = self.counters.get
        return (f"points: {int(get('total', 0))} total -- "
                f"{int(get('computed', 0))} computed, "
                f"{int(get('replayed', 0))} replayed, "
                f"{int(get('analytical', 0))} analytical, "
                f"{int(get('cached', 0))} cached, "
                f"{int(get('journaled', 0))} journaled, "
                f"{int(get('retried', 0))} retries, "
                f"{int(get('quarantined', 0))} quarantined")


class SweepSession:
    """Drive one :class:`SweepSpec` to completion, fault-tolerantly.

    Resolution order per point: journal (on resume) -> result cache ->
    analytical surrogate (``fidelity="analytical"``) -> trace/fused
    replay (skipped by ``fidelity="full"``) -> supervised simulation.
    Every completion is
    journaled immediately, so killing the process at any moment loses
    at most the points currently in flight.
    """

    def __init__(self, spec: SweepSpec,
                 cache=_DEFAULT_CACHE,
                 trace_cache: Optional[TraceCache] = None,
                 session_dir: Optional[Path] = None,
                 resume: bool = False,
                 progress: Optional[Callable] = None,
                 compute: Optional[Callable] = None):
        self.spec = spec
        self.cache: Optional[ResultCache] = (
            default_cache() if cache is _DEFAULT_CACHE else cache)
        self.trace_cache = trace_cache
        self.journal = SessionJournal(spec, session_dir)
        self.resume = resume
        self.progress = progress
        self._counters: Counter = Counter()
        self._compute = compute or _point_task
        self._configs = spec.configs()
        self._total = len(self._configs)
        self._done = 0

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self._counters[name] += amount

    @property
    def counters(self) -> Dict[str, float]:
        """Points by how they settled (``done``/``cached``/``retried``/
        ``quarantined``...), sorted by name."""
        return dict(sorted(self._counters.items()))

    def _settle(self, point: GridPoint, status: str,
                stats: Optional[RunStats], attempts: int = 1,
                reason: Optional[str] = None) -> None:
        """Journal one point outcome and surface it as progress."""
        self._done += 1
        self._count(status)
        if status == "quarantined":
            self.journal.record(point, "quarantined", attempts=attempts,
                                reason=reason)
        elif status != "journaled":  # already the log's line for it
            # Journal every success as "done"; `status` keeps the finer
            # how-it-was-resolved split for counters and progress.
            self.journal.record(point, "done", stats=stats,
                                attempts=attempts)
        if self.progress is not None:
            self.progress(point, status, self._done, self._total,
                          self.counters)

    def _bank(self, point: GridPoint, status: str, stats: RunStats,
              sweep: Sweep, attempts: int = 1) -> None:
        """One point resolved: result cache, sweep, journal -- at once,
        so a kill loses only what is in flight, and in that order, so
        whoever hears of the point as progress finds it in the cache."""
        if self.cache is not None:
            self.cache.put(self.spec.point_key(self._configs[point]),
                           stats)
        sweep[point] = stats
        self._settle(point, status, stats, attempts=attempts)

    def _tapes(self) -> TraceCache:
        """The tape cache stages 1.5 and 2 share: the one the session
        was given, else the default one (opened on first need)."""
        if self.trace_cache is None:
            self.trace_cache = default_trace_cache()
        return self.trace_cache

    @staticmethod
    def _rows(points: List[GridPoint]) -> List[List[GridPoint]]:
        """The points grouped into rows -- one processor count, so one
        tape -- in processor-count order, each row's rungs sorted."""
        by_row: Dict[int, List[GridPoint]] = {}
        for point in points:
            by_row.setdefault(point[0], []).append(point)
        return [sorted(by_row[procs]) for procs in sorted(by_row)]

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> SessionResult:
        spec = self.spec
        self._count("total", self._total)
        sweep: Sweep = {}
        quarantined: Dict[GridPoint, str] = {}

        if self.resume:
            self.journal.load()
        else:
            self.journal.reset()
        prune_stale_journals(self.journal.directory,
                             keep_signature=self.journal.signature)

        # Stage 0: the journal (resumed sessions only).  Quarantined
        # entries are given a fresh chance -- the operator explicitly
        # asked to resume, so transient poison gets re-tried.
        pending: List[GridPoint] = []
        for point in self._configs:
            entry = self.journal.entry(point)
            if (entry is not None and entry.get("status") == "done"
                    and isinstance(entry.get("stats"), dict)):
                try:
                    stats = RunStats.from_dict(entry["stats"])
                except TypeError:
                    pending.append(point)
                    continue
                sweep[point] = stats
                self._heal_cache(point, stats)
                self._settle(point, "journaled", stats,
                             attempts=int(entry.get("attempts", 1)))
            else:
                pending.append(point)

        # Stage 1: the per-point result cache.
        missing: List[GridPoint] = []
        for point in pending:
            cached = (self.cache.get(spec.point_key(self._configs[point]))
                      if self.cache is not None else None)
            if cached is not None:
                sweep[point] = cached
                self._settle(point, "cached", cached)
            else:
                missing.append(point)

        # Stage 1.5: the analytical surrogate (fidelity="analytical"):
        # one row profile prices every rung; rows the model cannot
        # profile fall through to the exact tiers below.
        if missing and spec.fidelity == "analytical":
            missing = self._resolve_analytically(missing, sweep)

        # Stage 2: record-once/replay-everywhere and the fused ladder
        # (fidelity="full" insists on per-point simulation instead).
        if missing and spec.fidelity != "full":
            missing = self._resolve_via_traces(missing, sweep)

        # Stage 3: supervised simulation of whatever is left.
        if missing:
            quarantined = self._run_points(missing, sweep)

        return SessionResult(spec=spec, sweep=sweep,
                             quarantined=quarantined,
                             counters=self.counters)

    def _resolve_analytically(self, missing: List[GridPoint],
                              sweep) -> List[GridPoint]:
        """Stage 1.5: price whole rows from one recorded tape each.

        Per row (processor count): find or build the
        :class:`~repro.model.profile.RowProfile` -- the profile cache
        first (a warm sweep never touches the tape, let alone the
        simulator), then the trace cache, then one recording simulation
        of the row's smallest rung -- and predict every missing point
        from it with :func:`~repro.model.predictor.predict_point`.
        Rows without a recordable packed stream are returned for the
        exact tiers.  Predictions are cached and journaled like any
        other resolution, but under the spec's analytical point keys,
        so they can never be served for a full-fidelity request.
        """
        from ..model.predictor import predict_point
        from ..model.profile import ProfileCache, build_row_profile
        spec = self.spec
        tapes = self._tapes()
        trace_dir = getattr(tapes, "directory", None)
        profile_cache = (ProfileCache(Path(trace_dir) / "profiles")
                         if trace_dir is not None else None)
        remainder: List[GridPoint] = []
        for row_points in self._rows(missing):
            procs = row_points[0][0]
            config0 = self._configs[(procs, min(spec.ladder))]
            tracked = tuple(sorted({
                self._configs[(procs, paper_bytes)].scc_lines
                for paper_bytes in spec.ladder}))
            workload = process_workload(spec.benchmark, spec.profile)
            signature = workload.trace_signature(config0)
            if signature is None:
                remainder.extend(row_points)
                continue
            if workload.stream_is_deterministic(config0):
                # Same tape a fused/full sweep records: share its key.
                tape_key = signature
            else:
                # Interleave depends on the machine; the tape is still
                # deterministic *given* the recording configuration.
                tape_key = f"model|scc={config0.scc_size}|{signature}"
            profile_key = (
                f"{tape_key}|line={config0.line_size}"
                f"|clusters={config0.clusters}"
                f"|procs={config0.processors_per_cluster}"
                f"|icache={config0.icache_size}"
                f"/{config0.icache_line_size}"
                f"|model_icache={config0.model_icache}"
                f"|tracked={','.join(str(count) for count in tracked)}")
            row_profile = (profile_cache.get(profile_key)
                           if profile_cache is not None else None)
            if row_profile is None:
                streams, stats0 = row_tape(workload, config0, tapes,
                                           tape_key)
                if streams is None:
                    remainder.extend(row_points)
                    continue
                if stats0 is not None and self.cache is not None:
                    # The recording pass was a real simulation of the
                    # smallest rung; bank it under its *full-fidelity*
                    # key (it is exact, not a prediction; the
                    # analytical entry for that rung is still the
                    # model's own output).
                    self.cache.put(
                        point_cache_key(spec.benchmark, spec.profile,
                                        config0),
                        stats0)
                row_profile = build_row_profile(streams, config0, tracked)
                if profile_cache is not None:
                    profile_cache.put(profile_key, row_profile)
            for point in row_points:
                self._bank(point, "analytical", predict_point(
                    row_profile, self._configs[point],
                    benchmark=spec.benchmark), sweep)
        return remainder

    def _resolve_via_traces(self, missing: List[GridPoint],
                            sweep: Sweep) -> List[GridPoint]:
        """Stage 2: record-once/replay-everywhere, row by row.

        A row's streams are identical across its rungs exactly when
        :meth:`~repro.workloads.base.TracedApplication
        .stream_is_deterministic` holds there, and its tape is keyed by
        ``trace_signature``; rows failing either guard are returned for
        normal simulation.  The recording run doubles as the row's
        first point, :func:`~repro.experiments.runner.replay_row` times
        the rest, and each point is banked as it is yielded.
        """
        spec = self.spec
        remainder: List[GridPoint] = []
        for row_points in self._rows(missing):
            config0 = self._configs[row_points[0]]
            workload = process_workload(spec.benchmark, spec.profile)
            signature = workload.trace_signature(config0)
            if (signature is None
                    or not workload.stream_is_deterministic(config0)):
                remainder.extend(row_points)
                continue
            streams, stats0 = row_tape(workload, config0, self._tapes(),
                                       signature)
            if stats0 is not None:
                self._bank(row_points.pop(0), "replayed", stats0, sweep)
            if streams is None:
                remainder.extend(row_points)
                continue
            rungs = replay_row(
                [self._configs[point] for point in row_points], streams,
                spec.benchmark)
            for point, stats in zip(row_points, rungs):
                self._bank(point, "replayed", stats, sweep)
        return remainder

    def _heal_cache(self, point: GridPoint, stats: RunStats) -> None:
        """Re-seed the result cache from the journal if the crash took
        the cache entry with it (or the cache lives elsewhere now)."""
        if self.cache is None:
            return
        key = self.spec.point_key(self._configs[point])
        if self.cache.get(key) is None:
            self.cache.put(key, stats)

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------

    def _run_points(self, points: List[GridPoint],
                    sweep: Sweep) -> Dict[GridPoint, str]:
        """Stage 3: simulate ``points``, each banked as it is computed;
        the ones given up on, with the reason."""
        spec = self.spec
        use_pool = ((spec.jobs or 1) > 1
                    or spec.point_timeout is not None)
        if use_pool:
            return self._run_pooled(points, max(1, spec.jobs or 1), sweep)
        return self._run_serial(points, sweep)

    def _record_failure(self, point: GridPoint, attempts: int,
                        exc: BaseException,
                        quarantined: Dict[GridPoint, str]) -> bool:
        """Account one failed attempt; ``True`` if the point may retry."""
        if attempts < self.spec.max_attempts:
            self._count("retried")
            _LOG.warning("sweep point procs=%d scc=%dB failed "
                         "(attempt %d/%d): %s; retrying",
                         point[0], point[1], attempts,
                         self.spec.max_attempts, exc)
            return True
        reason = (f"{type(exc).__name__}: {exc} "
                  f"(after {attempts} attempts)")
        quarantined[point] = reason
        _LOG.error("quarantining sweep point procs=%d scc=%dB: %s",
                   point[0], point[1], reason)
        self._settle(point, "quarantined", None, attempts=attempts,
                     reason=reason)
        return False

    def _run_serial(self, points: List[GridPoint], sweep: Sweep):
        spec = self.spec
        quarantined: Dict[GridPoint, str] = {}
        for point in points:
            attempts = 0
            while True:
                attempts += 1
                try:
                    stats = self._compute(spec.benchmark, spec.profile,
                                          self._configs[point], point)
                except Exception as exc:
                    if self._record_failure(point, attempts, exc,
                                            quarantined):
                        time.sleep(spec.retry_backoff * attempts)
                        continue
                    break
                self._bank(point, "computed", stats, sweep, attempts)
                break
        return quarantined

    def _run_pooled(self, points: List[GridPoint], jobs: int,
                    sweep: Sweep):
        """Submit each point as its own future so hung or crashed
        workers only cost their own point.  A timeout kills the whole
        pool (a hung worker cannot be cancelled), charges the expired
        points an attempt, and resubmits the innocent in-flight points
        without penalty."""
        spec = self.spec
        quarantined: Dict[GridPoint, str] = {}
        attempts: Dict[GridPoint, int] = {p: 0 for p in points}
        ready_at: Dict[GridPoint, float] = {p: 0.0 for p in points}
        queue = deque(points)
        inflight: Dict[object, GridPoint] = {}
        deadlines: Dict[object, float] = {}
        pool = _worker_pool(jobs)

        def submit_ready() -> None:
            now = time.monotonic()
            for _ in range(len(queue)):
                point = queue.popleft()
                if ready_at[point] > now:
                    queue.append(point)
                    continue
                attempts[point] += 1
                future = pool.submit(
                    self._compute, spec.benchmark, spec.profile,
                    self._configs[point], point)
                inflight[future] = point
                if spec.point_timeout is not None:
                    deadlines[future] = now + spec.point_timeout

        def handle_failure(point: GridPoint, exc: BaseException) -> None:
            if self._record_failure(point, attempts[point], exc,
                                    quarantined):
                ready_at[point] = (time.monotonic()
                                   + spec.retry_backoff * attempts[point])
                queue.append(point)

        while queue or inflight:
            submit_ready()
            if not inflight:
                # Everything runnable is backing off; sleep it out.
                wake = min(ready_at[point] for point in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            timeout = 0.05 if queue else None
            if deadlines:
                next_deadline = min(deadlines.values())
                budget = max(0.0, next_deadline - time.monotonic())
                timeout = budget if timeout is None else min(timeout,
                                                             budget)
            done, _ = futures_wait(set(inflight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
            for future in done:
                point = inflight.pop(future)
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    self._bank(point, "computed", future.result(), sweep,
                               attempts[point])
                else:
                    handle_failure(point, exc)
            now = time.monotonic()
            expired = [future for future, deadline in deadlines.items()
                       if deadline <= now]
            if expired:
                # Kill the pool: a worker stuck inside a simulation can
                # only be stopped by terminating its process.
                for future in list(inflight):
                    point = inflight.pop(future)
                    deadlines.pop(future, None)
                    if future in expired:
                        handle_failure(point, FutureTimeoutError(
                            f"no result within {spec.point_timeout}s"))
                    else:
                        # Collateral damage of the pool kill: resubmit
                        # without charging an attempt.
                        attempts[point] -= 1
                        queue.append(point)
                _shutdown_pool(kill=True)
                pool = _worker_pool(jobs)
        return quarantined


def run_sweep(spec: SweepSpec,
              cache=_DEFAULT_CACHE,
              trace_cache: Optional[TraceCache] = None,
              session_dir: Optional[Path] = None,
              resume: bool = False,
              progress: Optional[Callable] = None) -> Sweep:
    """Resolve one :class:`SweepSpec` locally and return its grid,
    ``{(procs, paper_bytes): RunStats}`` -- the type a
    :class:`~repro.fabric.client.SweepClient` submission returns, so
    ``run_sweep(spec) == client.result(client.submit(spec))`` point for
    point.  Pass a ``session_dir`` to journal progress for crash-safe
    ``resume``; without one the session is ephemeral.  If any point is
    quarantined the rest of the grid is still resolved (and journaled)
    before :class:`QuarantinedPointError` is raised; callers that want
    the partial grid instead should drive :class:`SweepSession`
    directly.
    """
    session = SweepSession(spec, cache=cache, trace_cache=trace_cache,
                           session_dir=session_dir, resume=resume,
                           progress=progress)
    result = session.run()
    if result.quarantined:
        raise QuarantinedPointError(result.quarantined)
    return result.sweep


grid_sweep = run_sweep
"""The :mod:`repro.api` spelling of :func:`run_sweep`."""
