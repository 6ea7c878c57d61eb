"""Sweep fabric: the design-space grid as a distributed service.

A :class:`~repro.experiments.spec.SweepSpec` submitted to the fabric is
sharded by a :mod:`broker <repro.fabric.broker>` into leased work
units, executed by :mod:`workers <repro.fabric.worker>` that wrap the
ordinary :class:`~repro.experiments.session.SweepSession` staged
resolution, and settled through a content-addressed :mod:`store
<repro.fabric.store>` keyed by the *existing* ``point_cache_key`` /
trace-signature scheme -- so the fabric, local caches and session
journals interoperate byte for byte.  The :mod:`service
<repro.fabric.service>` module puts an asyncio HTTP front end on the
broker and :mod:`client <repro.fabric.client>` gives callers one stable
API (:class:`SweepClient`) over both the in-memory and the HTTP
transport.

Quick start (no sockets)::

    from repro.fabric import LocalFabric
    with LocalFabric(workers=2) as fabric:
        handle = fabric.client.submit(spec)
        sweep = fabric.client.result(handle)

or as a service: ``python -m repro serve`` then
``python -m repro submit --benchmark multiprogramming --url ...``.
"""

from .broker import Broker, DEFAULT_LEASE_TTL, SweepJob, WorkUnit
from .client import (HttpTransport, JobHandle, LocalFabric,
                     LocalTransport, SweepClient)
from .service import FabricService, start_in_thread
from .store import ArtifactStore, MemoryCache
from .wire import (FabricError, parse_point_label, point_label,
                   sweep_from_wire, sweep_to_wire)
from .worker import Worker

__all__ = [
    "ArtifactStore", "Broker", "DEFAULT_LEASE_TTL", "FabricError",
    "FabricService", "HttpTransport", "JobHandle", "LocalFabric",
    "LocalTransport", "MemoryCache", "SweepClient", "SweepJob",
    "WorkUnit", "Worker", "parse_point_label", "point_label",
    "start_in_thread", "sweep_from_wire", "sweep_to_wire",
]
