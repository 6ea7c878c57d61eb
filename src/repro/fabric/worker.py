"""The fabric's execution plane: lease units, run them, publish.

A :class:`Worker` polls the broker for work units, rebuilds each unit's
row as a single-row :class:`~repro.experiments.spec.SweepSpec`, and
resolves it with the very same :class:`~repro.experiments.session.
SweepSession` staged pipeline a local sweep uses -- journal-less, with
the shared :class:`~repro.fabric.store.ArtifactStore` as its result and
trace cache.  Durability therefore comes from write-through: every
point the session resolves (cached, analytical, replayed or simulated)
lands in the content-addressed store *before* the worker reports it, so
a worker killed mid-unit loses at most the in-flight point and the
broker re-leases the remainder to a survivor whose cache stage skips
everything already published.

Fault injection (``REPRO_FAULT_INJECT``) flows through untouched: the
worker's session computes points with its default
:func:`~repro.experiments.session._point_task`, which honours it, on the
engine this host resolves (``$REPRO_ENGINE``, the loader).

Heartbeats: every progress report renews the worker's leases, and a
background pump keeps renewing during long simulations between points,
every third of the lease's time to live (at least every 0.5 s).
A worker that dies simply goes silent; its lease expires and the unit
is stolen.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from typing import Optional

from ..experiments.session import SweepSession
from ..experiments.spec import SweepSpec
from .store import ArtifactStore
from .wire import FabricError, point_label, sweep_to_wire

__all__ = ["Worker"]

_WORKER_SEQ = itertools.count(1)

_IDLE_WAIT = 0.05
"""Seconds a :meth:`Worker.run` with a ``stop`` event waits on the
broker for a lease before it checks ``stop`` again."""


class Worker:
    """One execution loop against a broker.

    ``broker`` is anything with the broker's worker-facing surface
    (``lease``/``heartbeat``/``progress``/``complete``/``fail``) --
    the in-process :class:`~repro.fabric.broker.Broker` itself, or a
    transport proxy.  ``store`` defaults to the broker's own store
    (single-process fabrics); give remote workers their node's view of
    the shared store.
    """

    def __init__(self, broker, store: Optional[ArtifactStore] = None,
                 worker_id: Optional[str] = None):
        self.broker = broker
        self.store = (store if store is not None
                      else getattr(broker, "store", None))
        if self.store is None:
            raise FabricError("worker needs an artifact store (none on "
                              "the broker handle either)")
        self.worker_id = (worker_id if worker_id is not None
                          else f"w{next(_WORKER_SEQ)}-{os.getpid()}")
        self.units_done = 0

    # ------------------------------------------------------------------

    def run(self, stop: Optional[threading.Event] = None) -> int:
        """Lease-and-execute until ``stop`` is set or (without one) the
        queue drains.  Returns the number of units executed.  With
        ``stop``, an idle worker waits on the broker (:data:`_IDLE_WAIT`
        a lease) and not on a timer."""
        executed = 0
        wait = 0.0 if stop is None else _IDLE_WAIT
        while stop is None or not stop.is_set():
            if self.run_once(wait):
                executed += 1
            elif stop is None:
                break               # drain mode: queue is empty
        return executed

    def run_once(self, wait: float = 0.0) -> bool:
        """Lease one unit and execute it; ``False`` when the broker had
        no pending work (after ``wait`` seconds, when given)."""
        lease = self.broker.lease(self.worker_id, wait)
        if lease is None:
            return False
        try:
            self._execute(lease)
        except Exception as exc:  # noqa: BLE001 - report, keep looping
            self.broker.fail(self.worker_id, lease["unit"],
                             f"{type(exc).__name__}: {exc}")
        else:
            self.units_done += 1
        return True

    # ------------------------------------------------------------------

    def _execute(self, lease: dict) -> None:
        unit_id = lease["unit"]
        spec = SweepSpec.from_wire(lease["spec"])
        # The unit is one grid row: rebuild it as a standalone spec so
        # the session keeps its fused-ladder and record-once fast paths.
        # Execution knobs are forced local: workers run serially (the
        # fabric is the pool) and journal-less (the store is the
        # durability layer: the session's cache is ``store.results``,
        # and every stage writes each point there before it reports it,
        # so a crash loses only what is in flight).
        row_spec = dataclasses.replace(
            spec, procs=(int(lease["procs"]),),
            ladder=tuple(int(b) for b in lease["ladder"]),
            jobs=None, point_timeout=None)

        def report(point, status, done, total, counters):
            self.broker.progress(self.worker_id, unit_id,
                                 point_label(point), status)

        pump = _HeartbeatPump(self.broker, self.worker_id,
                              max(0.5, lease["lease_ttl"] / 3.0))
        pump.start()
        try:
            session = SweepSession(row_spec, cache=self.store.results,
                                   trace_cache=self.store.traces,
                                   progress=report)
            result = session.run()
        finally:
            pump.stop()
        self.broker.complete(
            self.worker_id, unit_id,
            results=sweep_to_wire(result.sweep),
            quarantined={point_label(point): reason
                         for point, reason in result.quarantined.items()})


class _HeartbeatPump(threading.Thread):
    """Renews a worker's leases while a unit executes."""

    def __init__(self, broker, worker_id: str, interval: float):
        super().__init__(name=f"heartbeat-{worker_id}", daemon=True)
        self.broker = broker
        self.worker_id = worker_id
        self.interval = interval
        # Not ``_stop``: threading.Thread uses that name internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.broker.heartbeat(self.worker_id)
            except Exception:  # noqa: BLE001 - broker gone; unit will fail
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=1.0)
