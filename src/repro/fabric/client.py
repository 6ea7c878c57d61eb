"""The stable client surface of the sweep fabric.

:class:`SweepClient` is the only API examples and tests should need:
``submit(spec) -> handle``, ``iter_progress(handle)``,
``result(handle)``.  It speaks through a *transport* -- either
:class:`LocalTransport` (direct calls into an in-process
:class:`~repro.fabric.broker.Broker`; no sockets) or
:class:`HttpTransport` (urllib against a ``python -m repro serve``
instance) -- and behaves identically over both: the same payload
shapes cross both boundaries (see :mod:`repro.fabric.wire`) and both
raise :class:`~repro.fabric.wire.FabricError` for fabric-level
failures.

:class:`LocalFabric` bundles a broker, an in-memory (or directory)
store and a pool of worker threads into one context manager, so a whole
fabric round-trip fits in a test without any process or socket setup::

    with LocalFabric(workers=2) as fabric:
        handle = fabric.client.submit(spec)
        sweep = fabric.client.result(handle)   # {(procs, scc): RunStats}
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from ..experiments.runner import RunStats
from ..experiments.session import QuarantinedPointError
from ..experiments.spec import GridPoint, SweepSpec
from .broker import Broker
from .store import ArtifactStore
from .wire import FabricError, parse_point_label, sweep_from_wire
from .worker import Worker

__all__ = ["SweepClient", "JobHandle", "LocalTransport", "HttpTransport",
           "LocalFabric"]


@dataclass(frozen=True)
class JobHandle:
    """An accepted submission.  ``store_hits == total`` means the whole
    grid was served warm and no work units were created at all."""

    job: str
    signature: str
    total: int
    store_hits: int
    pending_units: int

    @classmethod
    def from_payload(cls, payload: dict) -> "JobHandle":
        return cls(job=payload["job"], signature=payload["signature"],
                   total=payload["total"],
                   store_hits=payload.get("store_hits", 0),
                   pending_units=payload.get("pending_units", 0))


class LocalTransport:
    """Direct calls into an in-process broker."""

    def __init__(self, broker: Broker):
        self.broker = broker

    def submit(self, spec_wire: dict) -> dict:
        return self.broker.submit(SweepSpec.from_wire(spec_wire))

    def status(self, job_id: str) -> dict:
        return self.broker.status(job_id)

    def events(self, job_id: str, since: int,
               timeout: float) -> dict:
        events, nxt = self.broker.events_since(job_id, since, timeout)
        return {"events": events, "next": nxt}

    def result(self, job_id: str,
               timeout: Optional[float]) -> Optional[dict]:
        return self.broker.result(job_id, timeout)


class HttpTransport:
    """The same surface over a ``repro serve`` endpoint via urllib."""

    def __init__(self, base_url: str, poll_timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.poll_timeout = poll_timeout

    # -- plumbing ------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: Optional[float] = None) -> dict:
        data = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"}
            if data is not None else {})
        http_timeout = (timeout if timeout is not None
                        else self.poll_timeout) + 30.0
        try:
            with urllib.request.urlopen(request,
                                        timeout=http_timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
                message = detail.get("error", str(exc))
            except Exception:  # noqa: BLE001 - body was not JSON
                message = str(exc)
            raise FabricError(message) from None
        except urllib.error.URLError as exc:
            raise FabricError(f"fabric service unreachable at "
                              f"{self.base_url}: {exc.reason}") from None

    # -- transport surface ---------------------------------------------

    def submit(self, spec_wire: dict) -> dict:
        return self._request("POST", "/jobs", {"spec": spec_wire})

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str, since: int, timeout: float) -> dict:
        return self._request(
            "GET", f"/jobs/{job_id}/events?since={since}"
                   f"&timeout={timeout}", timeout=timeout)

    def result(self, job_id: str,
               timeout: Optional[float]) -> Optional[dict]:
        # Mirror LocalTransport/Broker.result semantics exactly:
        # timeout=None blocks until the job finishes (as a sequence of
        # bounded long-polls, so no single HTTP request waits forever),
        # a finite timeout returns None once it lapses with the job
        # still running.
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            wait = self.poll_timeout
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            payload = self._request(
                "GET", f"/jobs/{job_id}/result?timeout={wait}",
                timeout=wait)
            if not payload.get("pending"):
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                return None


class SweepClient:
    """Submit specs to a fabric and collect their results."""

    def __init__(self, transport: Union[LocalTransport, HttpTransport]):
        self.transport = transport

    @classmethod
    def local(cls, broker: Broker) -> "SweepClient":
        return cls(LocalTransport(broker))

    @classmethod
    def connect(cls, url: str) -> "SweepClient":
        return cls(HttpTransport(url))

    # ------------------------------------------------------------------

    def submit(self, spec: SweepSpec) -> JobHandle:
        """Register ``spec`` with the fabric; returns immediately."""
        payload = self.transport.submit(spec.to_wire())
        return JobHandle.from_payload(payload)

    def status(self, handle: Union[JobHandle, str]) -> dict:
        return self.transport.status(self._job_id(handle))

    def iter_progress(self, handle: Union[JobHandle, str],
                      poll_timeout: float = 10.0) -> Iterator[dict]:
        """Yield the job's event stream (``submitted``, per-``point``,
        ``unit`` lifecycle, final ``done``) until the job finishes.

        Termination does not *depend* on spotting a ``done`` event: if
        an event page comes back drained, the job's state is consulted
        directly, so a stream whose terminal event was lost (or a job
        that finished -- e.g. quarantined its last point -- before the
        first poll with a truncated log) ends instead of long-polling
        forever.
        """
        job_id = self._job_id(handle)
        index = 0
        while True:
            page = self.transport.events(job_id, index, poll_timeout)
            for event in page["events"]:
                yield event
                if event.get("event") == "done":
                    return
            index = page["next"]
            if not page["events"]:
                # Drained without a terminal event: the long poll timed
                # out.  Double-check the job state rather than trusting
                # the event log to eventually deliver "done".
                if self.transport.status(job_id).get("state") == "done":
                    return

    def result(self, handle: Union[JobHandle, str],
               timeout: Optional[float] = None
               ) -> Dict[GridPoint, RunStats]:
        """Block until the job finishes and return its grid, exactly as
        :func:`~repro.experiments.session.run_sweep` would: a
        ``{(procs, paper_bytes): RunStats}`` mapping, or
        :class:`QuarantinedPointError` if any point was quarantined."""
        payload = self.transport.result(self._job_id(handle), timeout)
        if payload is None:
            raise FabricError(
                f"job {self._job_id(handle)} still running after "
                f"{timeout}s")
        quarantined = payload.get("quarantined") or {}
        if quarantined:
            raise QuarantinedPointError(
                {parse_point_label(label): reason
                 for label, reason in quarantined.items()})
        return sweep_from_wire(payload.get("points"))

    @staticmethod
    def _job_id(handle: Union[JobHandle, str]) -> str:
        return handle.job if isinstance(handle, JobHandle) else handle


class LocalFabric:
    """Broker + store + worker threads in one process.

    The single-process fabric: transports, leases, heartbeats, the
    store -- everything real except sockets.  ``store=None`` keeps all
    artifacts in memory; pass ``ArtifactStore(path)`` (or
    ``ArtifactStore.default()``) for a durable fabric.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 workers: int = 1):
        self.store = store if store is not None else ArtifactStore.in_memory()
        self.broker = Broker(self.store)
        self.client = SweepClient.local(self.broker)
        self._stop = threading.Event()
        self._threads = []
        for index in range(workers):
            worker = Worker(self.broker, worker_id=f"local-{index + 1}")
            thread = threading.Thread(
                target=worker.run, kwargs={"stop": self._stop},
                name=worker.worker_id, daemon=True)
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "LocalFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
