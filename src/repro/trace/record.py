"""Whole-stream record/replay and the on-disk trace cache.

A sweep (:mod:`repro.experiments.runner`) simulates the same workload on
every rung of the SCC ladder.  When the workload's per-process event
*content* is independent of the machine configuration -- the
:meth:`~repro.workloads.base.TracedApplication.stream_is_deterministic`
guard -- regenerating the stream at every grid point is pure waste: the
octree is rebuilt, the matrix refactored, the RNG re-drawn, only for the
events to come out identical.  This module records each process's full
stream once, in the packed encoding (:mod:`repro.trace.packed`), and
replays it at the other grid points as one
:class:`~repro.trace.packed.PackedChunk` per process -- the workload's
Python never runs again.

Three pieces:

* :class:`StreamRecorder` -- wraps a workload; the wrapped run behaves
  identically (events, timing, statistics) while every event that passes
  through is appended to a per-process packed buffer;
* :class:`ReplayApplication` -- a workload built from recorded streams;
* :class:`TraceCache` -- stores recordings on disk keyed by the
  workload's :meth:`~repro.workloads.base.TracedApplication
  .trace_signature`, so sweeps in later processes (or later sessions)
  skip the recording run too.

Replay validity is the *caller's* contract: a recorded stream replays
bit-identically only on configurations for which
``stream_is_deterministic`` held at record time (the recorded stream
bakes in every data-dependent branch, including task-queue responses --
see the ``OP_DEQUEUE`` note in :mod:`repro.trace.packed`).
"""

from __future__ import annotations

import json
import struct
from array import array
from pathlib import Path
from typing import Dict, Generator, Optional

from .packed import (PackedChunk, PackedEncodingError, append_event,
                     packed_from_bytes, packed_to_bytes)
from ..core.config import SystemConfig
from ..diskstore import FileCache, cache_root
from ..workloads.base import TracedApplication

__all__ = ["StreamRecorder", "ReplayApplication", "TraceCache",
           "default_trace_cache", "TRACE_FORMAT_VERSION"]

TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPTC"
_HEADER_STRUCT = struct.Struct(">4sBxxxI")
"""Magic, format version, padding, JSON-header byte length."""


class StreamRecorder(TracedApplication):
    """Transparent recording wrapper around another workload.

    Hand this to :func:`~repro.simulation.run_simulation` in place of the
    workload it wraps: the run is event-for-event identical (responses,
    chunks and all are forwarded both ways), and afterwards
    :attr:`streams` holds every process's full stream in the packed
    encoding -- or ``None`` if some event could not be encoded (e.g. a
    :class:`~repro.trace.events.TaskEnqueue` carrying a non-int item), in
    which case the run itself still completed normally.
    """

    def __init__(self, inner: TracedApplication):
        self.inner = inner
        self.name = f"{inner.name}+record"
        self.failed = False
        self._buffers: Optional[Dict[int, array]] = None

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        inner = self.inner.processes(config)
        self._buffers = {proc: array("q") for proc in inner}
        return {proc: self._record(generator, self._buffers[proc])
                for proc, generator in inner.items()}

    @property
    def streams(self) -> Optional[Dict[int, array]]:
        """The recording, once the wrapped run has finished."""
        if self.failed or self._buffers is None:
            return None
        return self._buffers

    def _record(self, generator: Generator, buf: array) -> Generator:
        response = None
        while True:
            try:
                event = generator.send(response)
            except StopIteration:
                return
            if not self.failed:
                try:
                    if type(event) is PackedChunk:
                        buf.extend(event.data)
                    else:
                        append_event(buf, event)
                except PackedEncodingError:
                    # Unencodable stream: keep simulating, drop the tape.
                    self.failed = True
            response = yield event


class ReplayApplication(TracedApplication):
    """A workload reconstituted from recorded streams.

    Each process yields its entire recorded stream as a single
    :class:`~repro.trace.packed.PackedChunk`, so replay runs with zero
    workload Python (and, on the native engine, entirely in C).
    """

    def __init__(self, streams: Dict[int, array], name: str = "replay"):
        self.streams = dict(streams)
        self.name = f"{name}+replay"

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        expected = set(range(config.total_processors))
        if set(self.streams) != expected:
            raise ValueError(
                f"recording has processes {sorted(self.streams)}, "
                f"configuration needs {sorted(expected)}")
        return {proc: self._replay(data)
                for proc, data in self.streams.items()}

    @staticmethod
    def _replay(data: array) -> Generator:
        if len(data):
            yield PackedChunk(data)


class TraceCache(FileCache):
    """One file per recording in ``directory`` (default
    ``<cache root>/traces``), keyed by :data:`TRACE_FORMAT_VERSION` and
    the trace signature.

    The file is a fixed header (magic, format version, JSON length), a
    JSON descriptor (the signature it was stored under plus each
    process's stream length in ints) and the streams' raw 64-bit data
    back to back.  It is written and healed as every
    :class:`~repro.diskstore.FileCache` is; a signature mismatch inside
    a well-formed file is a digest collision, a miss left on disk.
    """

    def __init__(self, directory: Optional[Path] = None):
        if directory is None:
            directory = cache_root() / "traces"
        super().__init__(directory, f"t{TRACE_FORMAT_VERSION}", ".trace")

    def get(self, signature: str) -> Optional[Dict[int, array]]:
        return self._get(signature)

    def put(self, signature: str, streams: Dict[int, array]) -> None:
        self._put(signature, streams)

    def _encode(self, streams: Dict[int, array], signature: str) -> list:
        order = sorted(streams)
        header = json.dumps({
            "signature": signature,
            "streams": [[proc, len(streams[proc])] for proc in order],
        }).encode()
        return [_HEADER_STRUCT.pack(_MAGIC, TRACE_FORMAT_VERSION,
                                    len(header)), header,
                *(packed_to_bytes(streams[proc]) for proc in order)]

    def _decode(self, raw: bytes,
                signature: str) -> Optional[Dict[int, array]]:
        magic, version, header_len = _HEADER_STRUCT.unpack_from(raw)
        if magic != _MAGIC or version != TRACE_FORMAT_VERSION:
            # The format version is part of the path digest, so a
            # mismatched header here is damage, not an old file.
            raise ValueError("bad magic or version")
        offset = _HEADER_STRUCT.size
        header = json.loads(raw[offset:offset + header_len])
        if header.get("signature") != signature:
            return None          # digest collision: a plain miss
        offset += header_len
        lengths = [(int(proc), int(length))
                   for proc, length in header["streams"]]
        # A truncated payload can still be a whole number of int64s,
        # which ``packed_from_bytes`` would accept -- validate the
        # exact total length before slicing.
        expected = offset + sum(length * 8 for _, length in lengths)
        if len(raw) != expected:
            raise ValueError(f"payload is {len(raw)} bytes, descriptor "
                             f"promises {expected}")
        streams: Dict[int, array] = {}
        payload = memoryview(raw)   # (slices copy nothing)
        for proc, length in lengths:
            nbytes = length * 8
            streams[proc] = packed_from_bytes(
                payload[offset:offset + nbytes])
            offset += nbytes
        return streams


def default_trace_cache() -> TraceCache:
    """The trace cache at ``<cache root>/traces``."""
    return TraceCache()
