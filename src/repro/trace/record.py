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
import logging
import os
import struct
from array import array
from pathlib import Path
from typing import Dict, Generator, Optional

_LOG = logging.getLogger(__name__)

from .packed import (PackedChunk, PackedEncodingError, append_event,
                     packed_from_bytes, packed_to_bytes)
from ..core.config import SystemConfig
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
        self.packed = inner.packed
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


class TraceCache:
    """One-file-per-recording disk cache.

    The file layout is a fixed header (magic, format version, JSON length)
    followed by a JSON descriptor (the signature it was stored under plus
    each process's stream length in ints) and the streams' raw 64-bit
    data back to back.  Writes go through a per-process temp file and
    ``os.replace`` so concurrent sweep processes never observe a torn
    recording even when racing on the same key.  A corrupt or truncated
    file (the format version lives in the path digest, so whatever is at
    the path *should* parse) is logged once, deleted, and reported as a
    miss, so the next recording run heals the cache; a signature mismatch
    inside a well-formed file is a digest collision and is left alone.
    """

    def __init__(self, directory: Optional[Path] = None):
        if directory is None:
            directory = Path(os.environ.get(
                "REPRO_TRACE_DIR",
                os.path.join(".repro_cache", "traces")))
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._warned_corrupt = False

    def _path(self, signature: str) -> Path:
        import hashlib
        digest = hashlib.sha256(
            f"t{TRACE_FORMAT_VERSION}:{signature}".encode()
        ).hexdigest()[:24]
        return self.directory / f"{digest}.trace"

    def get(self, signature: str) -> Optional[Dict[int, array]]:
        path = self._path(signature)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            magic, version, header_len = _HEADER_STRUCT.unpack_from(raw)
            if magic != _MAGIC or version != TRACE_FORMAT_VERSION:
                # The format version is part of the path digest, so a
                # mismatched header here is damage, not an old file.
                self._discard_corrupt(path, "bad magic or version")
                return None
            offset = _HEADER_STRUCT.size
            header = json.loads(raw[offset:offset + header_len])
            if header.get("signature") != signature:
                return None          # digest collision: treat as a miss
            offset += header_len
            lengths = [(int(proc), int(length))
                       for proc, length in header["streams"]]
            # A truncated payload can still be a whole number of int64s,
            # which ``packed_from_bytes`` would accept -- validate the
            # exact total length before slicing.
            expected = offset + sum(length * 8 for _, length in lengths)
            if len(raw) != expected:
                self._discard_corrupt(
                    path, f"payload is {len(raw)} bytes, "
                          f"descriptor promises {expected}")
                return None
            streams: Dict[int, array] = {}
            payload = memoryview(raw)   # (slices copy nothing)
            for proc, length in lengths:
                nbytes = length * 8
                streams[proc] = packed_from_bytes(
                    payload[offset:offset + nbytes])
                offset += nbytes
            return streams
        except (struct.error, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as exc:
            self._discard_corrupt(path, exc)
            return None

    def _discard_corrupt(self, path: Path, why) -> None:
        """Delete a damaged recording so the next run rewrites it."""
        if not self._warned_corrupt:
            self._warned_corrupt = True
            _LOG.warning("discarding corrupt trace-cache file %s (%s); "
                         "the stream will be re-recorded", path, why)
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, signature: str, streams: Dict[int, array]) -> None:
        order = sorted(streams)
        header = json.dumps({
            "signature": signature,
            "streams": [[proc, len(streams[proc])] for proc in order],
        }).encode()
        path = self._path(signature)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_HEADER_STRUCT.pack(_MAGIC, TRACE_FORMAT_VERSION,
                                             len(header)))
                fh.write(header)
                for proc in order:
                    fh.write(packed_to_bytes(streams[proc]))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def default_trace_cache() -> TraceCache:
    """Trace cache under the working tree (override: ``REPRO_TRACE_DIR``)."""
    return TraceCache()
