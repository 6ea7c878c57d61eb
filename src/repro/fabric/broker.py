"""The fabric's control plane: jobs, work units, and leases.

A submitted :class:`~repro.experiments.spec.SweepSpec` becomes a *job*.
The broker first settles every grid point it can straight from the
:class:`~repro.fabric.store.ArtifactStore` (a fully warm reproduction
never creates any work at all), then shards the remainder into *work
units* -- one per grid row, because a row shares its recorded tape
and fused ladder -- and hands them to workers on
time-limited *leases*.

Lease state machine (per unit)::

    pending --lease()--> leased --complete()/all points settled--> done
       ^                   |
       |        deadline passes without a heartbeat
       +--- re-queued (work stealing; attempt += 1) ---+
                           |
          attempts exhausted: remaining points quarantined

Workers renew every lease they hold with :meth:`Broker.heartbeat`; a
worker that dies simply stops heartbeating and its units are re-leased
to whoever polls next.  Completions are settled through the
content-addressed store, so a straggler completing a unit that was
already re-leased and finished is resolved idempotently: the store
refuses the double-write and the points stay settled exactly once.

The broker is synchronous and thread-safe (one re-entrant lock, one
condition); the asyncio service calls into it from executor threads and
the in-memory transport calls it directly.  Progress is both counted in
:attr:`Broker.counters` (``fabric.*`` names; the ``/metrics`` payload)
and appended to a per-job event log that
:meth:`events_since` long-polls -- the NDJSON progress stream is just
that log replayed.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.runner import RunStats
from ..experiments.spec import GridPoint, SweepSpec
from .store import ArtifactStore
from .wire import FabricError, point_label, sweep_to_wire

__all__ = ["Broker", "SweepJob", "WorkUnit", "DEFAULT_LEASE_TTL"]

DEFAULT_LEASE_TTL = 30.0
"""Seconds a lease stays valid without a heartbeat."""


class WorkUnit:
    """One shard of a job's grid: a row of points."""

    __slots__ = ("unit_id", "job_id", "procs", "ladder", "attempts",
                 "state", "worker", "deadline")

    def __init__(self, unit_id: str, job_id: str, procs: int,
                 ladder: Tuple[int, ...]):
        self.unit_id = unit_id
        self.job_id = job_id
        self.procs = procs
        self.ladder = ladder
        self.attempts = 0           # times leased
        self.state = "pending"      # pending | leased | done
        self.worker: Optional[str] = None
        self.deadline = 0.0

    @property
    def points(self) -> List[GridPoint]:
        return [(self.procs, paper_bytes) for paper_bytes in self.ladder]

    def to_wire(self, spec_wire: dict, lease_ttl: float) -> dict:
        return {"unit": self.unit_id, "job": self.job_id,
                "attempt": self.attempts, "procs": self.procs,
                "ladder": list(self.ladder), "spec": spec_wire,
                "lease_ttl": lease_ttl}


class SweepJob:
    """Broker-side state of one submitted spec."""

    def __init__(self, job_id: str, spec: SweepSpec):
        self.job_id = job_id
        self.spec = spec
        self.spec_wire = spec.to_wire()
        self.configs = spec.configs()
        self.total = len(self.configs)
        self.results: Dict[GridPoint, RunStats] = {}
        self.quarantined: Dict[GridPoint, str] = {}
        self.events: List[dict] = []
        self.store_hits = 0
        self.finished = False

    @property
    def settled(self) -> int:
        return len(self.results) + len(self.quarantined)

    @property
    def done(self) -> bool:
        return self.settled >= self.total

    def status_payload(self) -> dict:
        return {
            "job": self.job_id,
            "signature": self.spec.signature(),
            "state": "done" if self.done else "running",
            "total": self.total,
            "done": len(self.results),
            "store_hits": self.store_hits,
            "quarantined": {point_label(point): reason
                            for point, reason in
                            sorted(self.quarantined.items())},
        }

    def result_payload(self) -> dict:
        return {
            "job": self.job_id,
            "points": sweep_to_wire(self.results),
            "quarantined": {point_label(point): reason
                            for point, reason in
                            sorted(self.quarantined.items())},
        }


class Broker:
    """Shard specs into leased work units and collect their results."""

    def __init__(self, store: Optional[ArtifactStore] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_unit_attempts: int = 3,
                 clock: Callable[[], float] = time.monotonic):
        self.store = store if store is not None else ArtifactStore.default()
        self.lease_ttl = float(lease_ttl)
        self.max_unit_attempts = int(max_unit_attempts)
        self._clock = clock
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self.counters: Counter = Counter()
        self.jobs: Dict[str, SweepJob] = {}
        self._units: Dict[str, WorkUnit] = {}
        self._queue: deque = deque()        # pending unit ids
        self._workers: Dict[str, float] = {}  # worker id -> last seen
        self._job_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(self, spec: SweepSpec) -> dict:
        """Register a job; returns its descriptor.

        Store-warm points settle immediately (zero work units for a
        fully warm spec); the remainder is sharded and queued.
        """
        with self._lock:
            job_id = f"j{next(self._job_seq):04d}-{spec.signature()[:8]}"
            job = SweepJob(job_id, spec)
            self.jobs[job_id] = job
            self._count("jobs.submitted")
            self._emit(job, {"event": "submitted", "job": job_id,
                             "total": job.total})
            missing: Dict[int, List[int]] = {}
            for point, config in job.configs.items():
                cached = self.store.get_stats(spec.point_key(config))
                if cached is not None:
                    job.store_hits += 1
                    self._settle(job, point, cached, via="store")
                else:
                    missing.setdefault(point[0], []).append(point[1])
            unit_seq = itertools.count(1)
            pending_units = 0
            # One unit per grid row: a row shares its tape and fused
            # ladder.
            for procs in sorted(missing):
                unit = WorkUnit(f"{job_id}/u{next(unit_seq)}", job_id,
                                procs, tuple(sorted(missing[procs])))
                self._units[unit.unit_id] = unit
                self._queue.append(unit.unit_id)
                pending_units += 1
            self._count("units.created", pending_units)
            self._finish_if_done(job)
            self._wake.notify_all()
            payload = job.status_payload()
            payload["pending_units"] = pending_units
            return payload

    def status(self, job_id: str) -> dict:
        with self._lock:
            self._reap()
            return self._job(job_id).status_payload()

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> Optional[dict]:
        """The job's full result payload, or ``None`` while it is still
        running after ``timeout`` seconds (``None`` = wait forever)."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            job = self._job(job_id)
            while not job.done:
                self._reap()
                budget = 0.2
                if deadline is not None:
                    budget = min(budget, deadline - time.monotonic())
                    if budget <= 0:
                        return None
                self._wake.wait(budget)
            return job.result_payload()

    def events_since(self, job_id: str, index: int,
                     timeout: float = 10.0) -> Tuple[List[dict], int]:
        """Long-poll the job's event log starting at ``index``."""
        deadline = time.monotonic() + timeout
        with self._lock:
            job = self._job(job_id)
            while len(job.events) <= index and not job.finished:
                self._reap()
                budget = min(0.2, deadline - time.monotonic())
                if budget <= 0:
                    break
                self._wake.wait(budget)
            events = job.events[index:]
            return events, index + len(events)

    def metrics(self) -> dict:
        with self._lock:
            running = sum(1 for job in self.jobs.values() if not job.done)
            return {
                "counters": dict(self.counters),
                "jobs": {"total": len(self.jobs), "running": running},
                "units": {"pending": len(self._queue),
                          "leased": sum(1 for u in self._units.values()
                                        if u.state == "leased")},
                "workers": {worker: round(self._clock() - seen, 3)
                            for worker, seen in sorted(
                                self._workers.items())},
            }

    # ------------------------------------------------------------------
    # Worker API
    # ------------------------------------------------------------------

    def lease(self, worker_id: str, wait: float = 0.0) -> Optional[dict]:
        """Hand the next pending unit to ``worker_id`` (or ``None``).
        An idle worker may ``wait`` that many seconds for one: once, on
        the condition :meth:`submit` notifies."""
        with self._lock:
            self._touch(worker_id)
            if wait > 0 and not self._queue:
                self._wake.wait(wait)
            self._reap()
            while self._queue:
                unit = self._units.get(self._queue.popleft())
                if unit is None or unit.state != "pending":
                    continue
                job = self.jobs[unit.job_id]
                # Work stealing may re-lease a unit whose points partly
                # settled already; the worker's cache stage will skip
                # those, so the lease always goes out whole.
                unit.state = "leased"
                unit.worker = worker_id
                unit.attempts += 1
                unit.deadline = self._clock() + self.lease_ttl
                self._count("units.leased")
                self._emit(job, {"event": "unit", "unit": unit.unit_id,
                                 "status": "leased", "worker": worker_id,
                                 "attempt": unit.attempts})
                return unit.to_wire(job.spec_wire, self.lease_ttl)
            return None

    def heartbeat(self, worker_id: str) -> dict:
        """Renew every lease ``worker_id`` holds."""
        with self._lock:
            self._touch(worker_id)
            renewed = 0
            now = self._clock()
            for unit in self._units.values():
                if unit.state == "leased" and unit.worker == worker_id:
                    unit.deadline = now + self.lease_ttl
                    renewed += 1
            self._count("heartbeats")
            return {"worker": worker_id, "renewed": renewed}

    def progress(self, worker_id: str, unit_id: str, label: str,
                 status: str) -> dict:
        """Per-point progress from a worker; doubles as a heartbeat.

        The stats travel through the store (the worker published them
        before reporting), so the control message carries only the
        label and how the point was resolved.
        """
        with self._lock:
            self.heartbeat(worker_id)
            unit = self._units.get(unit_id)
            if unit is None:
                raise FabricError(f"unknown work unit {unit_id!r}")
            job = self.jobs[unit.job_id]
            point = self._parse_point(job, label)
            if status == "quarantined":
                # Settling happens at unit completion (retries may still
                # clear the point), but the report must not be swallowed:
                # stream it so progress watchers see the poisoned point
                # the moment the worker gives up an attempt on it.
                self._emit(job, {"event": "point", "point": label,
                                 "procs": point[0], "scc": point[1],
                                 "status": status, "worker": worker_id,
                                 "done": job.settled,
                                 "total": job.total})
            elif point not in job.results:
                stats = self.store.get_stats(
                    job.spec.point_key(job.configs[point]))
                if stats is not None:
                    self._settle(job, point, stats, via=status,
                                 worker=worker_id)
                    self._finish_unit_if_settled(unit)
                    self._finish_if_done(job)
                else:
                    # Not published yet -- stream the progress anyway;
                    # the point settles at completion (or re-lease).
                    self._emit(job, {"event": "point", "point": label,
                                     "procs": point[0], "scc": point[1],
                                     "status": status, "worker": worker_id,
                                     "done": job.settled,
                                     "total": job.total})
            self._wake.notify_all()
            return {"ok": True}

    def complete(self, worker_id: str, unit_id: str,
                 results: Optional[Dict[str, dict]] = None,
                 quarantined: Optional[Dict[str, str]] = None) -> dict:
        """Settle a unit.  Idempotent: a duplicate completion (the unit
        was re-leased and already finished elsewhere) settles nothing
        and double-writes nothing -- the store refuses overwrites and
        already-settled points are skipped."""
        with self._lock:
            self._touch(worker_id)
            unit = self._units.get(unit_id)
            if unit is None:
                raise FabricError(f"unknown work unit {unit_id!r}")
            job = self.jobs[unit.job_id]
            fresh = 0
            for label, payload in (results or {}).items():
                point = self._parse_point(job, label)
                if point in job.results:
                    continue
                stats = RunStats.from_dict(payload)
                job.quarantined.pop(point, None)
                self.store.publish(job.spec.point_key(job.configs[point]),
                                   stats)
                self._settle(job, point, stats, via="done",
                             worker=worker_id)
                fresh += 1
            for label, reason in (quarantined or {}).items():
                point = self._parse_point(job, label)
                if point in job.results or point in job.quarantined:
                    continue
                self._quarantine(job, point, reason)
            stale = unit.state == "done"
            if not stale:
                missing = [point for point in unit.points
                           if point not in job.results
                           and point not in job.quarantined]
                if missing:
                    # Partial completion: the rest of the unit goes back
                    # to the queue (or quarantine if the budget is gone).
                    self._requeue_or_quarantine(
                        unit, job, f"incomplete completion by "
                                   f"{worker_id} left {len(missing)} "
                                   f"point(s)")
                else:
                    self._finish_unit(unit, job)
            self._count("completions.stale" if stale and not fresh
                        else "completions")
            self._finish_if_done(job)
            self._wake.notify_all()
            return {"unit": unit_id, "stale": stale, "settled": fresh}

    def fail(self, worker_id: str, unit_id: str, reason: str) -> dict:
        """A worker could not execute its unit at all."""
        with self._lock:
            self._touch(worker_id)
            unit = self._units.get(unit_id)
            if unit is None:
                raise FabricError(f"unknown work unit {unit_id!r}")
            if unit.state == "leased" and unit.worker == worker_id:
                job = self.jobs[unit.job_id]
                self._count("units.failed")
                self._requeue_or_quarantine(unit, job, reason)
                self._finish_if_done(job)
                self._wake.notify_all()
            return {"unit": unit_id, "state": unit.state}

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------

    def _job(self, job_id: str) -> SweepJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise FabricError(f"unknown job {job_id!r}")
        return job

    @staticmethod
    def _parse_point(job: SweepJob, label: str) -> GridPoint:
        from .wire import parse_point_label
        point = parse_point_label(label)
        if point not in job.configs:
            raise FabricError(f"point {label!r} is not in job "
                              f"{job.job_id}'s grid")
        return point

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[f"fabric.{name}"] += amount

    def _touch(self, worker_id: str) -> None:
        self._workers[worker_id] = self._clock()

    def _emit(self, job: SweepJob, event: dict) -> None:
        job.events.append(event)
        self._wake.notify_all()

    def _settle(self, job: SweepJob, point: GridPoint, stats: RunStats,
                via: str, worker: Optional[str] = None) -> None:
        job.results[point] = stats
        job.quarantined.pop(point, None)
        self._count(f"points.{via}" if via in ("store",)
                    else "points.resolved")
        event = {"event": "point", "point": point_label(point),
                 "procs": point[0], "scc": point[1], "status": via,
                 "done": job.settled, "total": job.total}
        if worker is not None:
            event["worker"] = worker
        self._emit(job, event)

    def _quarantine(self, job: SweepJob, point: GridPoint,
                    reason: str) -> None:
        job.quarantined[point] = reason
        self._count("points.quarantined")
        self._emit(job, {"event": "point", "point": point_label(point),
                         "procs": point[0], "scc": point[1],
                         "status": "quarantined", "reason": reason,
                         "done": job.settled, "total": job.total})

    def _finish_unit(self, unit: WorkUnit, job: SweepJob) -> None:
        unit.state = "done"
        unit.worker = None
        self._count("units.completed")
        self._emit(job, {"event": "unit", "unit": unit.unit_id,
                         "status": "completed"})

    def _finish_unit_if_settled(self, unit: WorkUnit) -> None:
        if unit.state == "done":
            return
        job = self.jobs[unit.job_id]
        if all(point in job.results or point in job.quarantined
               for point in unit.points):
            self._finish_unit(unit, job)

    def _requeue_or_quarantine(self, unit: WorkUnit, job: SweepJob,
                               reason: str) -> None:
        unit.worker = None
        if unit.attempts >= self.max_unit_attempts:
            unit.state = "done"
            for point in unit.points:
                if (point not in job.results
                        and point not in job.quarantined):
                    self._quarantine(
                        job, point,
                        f"{reason} (after {unit.attempts} lease "
                        f"attempt(s))")
            return
        unit.state = "pending"
        self._queue.append(unit.unit_id)
        self._emit(job, {"event": "unit", "unit": unit.unit_id,
                         "status": "requeued", "reason": reason,
                         "attempt": unit.attempts})

    def _reap(self) -> None:
        """Expire leases whose deadline passed; re-queue their units so
        any live worker can steal the work."""
        now = self._clock()
        for unit in list(self._units.values()):
            if unit.state == "leased" and unit.deadline <= now:
                job = self.jobs[unit.job_id]
                worker = unit.worker
                self._count("units.expired")
                self._emit(job, {"event": "unit", "unit": unit.unit_id,
                                 "status": "expired", "worker": worker})
                self._finish_unit_if_settled(unit)
                if unit.state != "done":
                    self._requeue_or_quarantine(
                        unit, job, f"lease expired on {worker}")
                self._finish_if_done(job)

    def _finish_if_done(self, job: SweepJob) -> None:
        if job.finished or not job.done:
            return
        job.finished = True
        self._count("jobs.completed")
        self._emit(job, {"event": "done", "job": job.job_id,
                         "ok": not job.quarantined,
                         "total": job.total,
                         "store_hits": job.store_hits,
                         "quarantined": {point_label(p): r for p, r in
                                         sorted(job.quarantined.items())}})
